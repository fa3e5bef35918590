import dataclasses
import math
from decimal import (
    ROUND_DOWN,
    ROUND_FLOOR,
    ROUND_UP,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    localcontext,
)
from fractions import Fraction

import pytest

from uidlab import cli
from uidlab.collision import (
    CollisionQuery,
    DomainTooLarge,
    FIFTY_PERCENT_THRESHOLD_NOTES,
    Probability,
    UUIDV4_TABLE_NOTE,
    approx_no_collision_prob,
    collision_prob,
    count_for_probability,
    exact_no_collision_prob,
    relative_risk,
    risk_table,
)
from uidlab.core import IdScheme


def rel_err(actual, expected):
    return abs(actual - expected) / abs(expected)


# --- approximation -----------------------------------------------------------

def test_approx_empty_and_single_draw_are_certain():
    assert float(approx_no_collision_prob(CollisionQuery(74, 0))) == 1.0
    assert float(approx_no_collision_prob(CollisionQuery(74, 1))) == 1.0


def test_approx_small_case_scalar():
    p = approx_no_collision_prob(CollisionQuery(4, 4))
    assert rel_err(float(p), 0.6872892787909722) < 1e-12


def test_collision_prob_is_complement():
    q = CollisionQuery(16, 300)
    total = float(approx_no_collision_prob(q)) + float(collision_prob(q))
    assert abs(total - 1.0) < 1e-12


def test_collision_prob_reference_rates():
    # Frozen from direct evaluation of 1 - exp(-n(n-1)/2^(bits+1)).
    cases = [
        (74, 1000, 2.644330982e-17),
        (74, 10**6, 2.646975313e-11),
        (74, 10**9, 2.646942925e-05),
        (80, 1000, 4.131767160e-19),
        (80, 10**6, 4.135898927e-13),
        (80, 10**9, 4.135902203e-07),
        (122, 1000, 9.394550852e-32),
        (122, 10**6, 9.403945403e-26),
        (122, 10**9, 9.403954797e-20),
    ]
    for bits, n, expected in cases:
        assert rel_err(float(collision_prob(CollisionQuery(bits, n))), expected) < 1e-6


def test_tiny_probability_keeps_significant_digits():
    # Independent series 1 - exp(-x) = x - x^2/2 + x^3/6 with exact rationals.
    x = Fraction(1000 * 999, 2**81)
    reference = x - x * x / 2 + x * x * x / 6
    actual = Decimal(float(collision_prob(CollisionQuery(80, 1000))))
    assert rel_err(float(actual), float(reference)) < 1e-9


_SIXTY_DIGIT_PROBES = [
    (80, 2), (80, 10**3), (80, 10**6), (74, 10**6), (122, 10**9), (74, 10**9), (32, 10**3), (24, 100),
    (160, 10**20), (160, 2), (40, 10**6), (8, 10), (1, 2), (83, 2), (84, 2),
]


@pytest.mark.parametrize("bits, n", _SIXTY_DIGIT_PROBES)
def test_collision_prob_prints_sixty_correct_digits(bits, n):
    # 1 - e^-t cancels up to 25 leading digits on these probes; every printed digit must still hold.
    with localcontext() as ctx:
        ctx.prec = 200
        reference = 1 - (-Decimal(n * (n - 1)) / Decimal(1 << (bits + 1))).exp()
        expected = format(reference, ".59e")
    assert collision_prob(CollisionQuery(bits, n)).sci(60) == expected


def _collision_outputs():
    table = risk_table()
    return (
        [collision_prob(CollisionQuery(bits, n)).sci(60) for bits, n in _SIXTY_DIGIT_PROBES],
        [table.cell(rate, scheme).sci(2) for rate in table.rates for scheme in table.schemes],
        count_for_probability(80, 0.5),
        count_for_probability(122, 0.5),
        relative_risk(IdScheme.ULID, IdScheme.UUID_V7, 10**6),
        exact_no_collision_prob(CollisionQuery(12, 64)).sci(30),
    )


@pytest.mark.parametrize(
    "caller",
    [
        Context(rounding=ROUND_UP),
        Context(rounding=ROUND_DOWN),
        Context(rounding=ROUND_FLOOR),
        Context(traps=[InvalidOperation, DivisionByZero, Overflow, Inexact]),
        Context(Emin=-20, Emax=20),
        Context(prec=5),
    ],
    ids=["round-up", "round-down", "round-floor", "trap-inexact", "narrow-exponent", "prec-5"],
)
def test_results_do_not_depend_on_the_callers_decimal_context(caller):
    expected = _collision_outputs()
    with localcontext(caller):
        assert _collision_outputs() == expected


def test_tiny_probability_ratio_method_witness():
    # p scales as 1/d while x is small: p(80 bits) ~ p(24 bits) / 2^56.
    p_small = float(exact_no_collision_prob(CollisionQuery(24, 1000)).complement())
    p_large = float(collision_prob(CollisionQuery(80, 1000)))
    assert rel_err(p_large, p_small / 2**56) < 0.02


def test_collision_prob_monotone_in_count():
    for bits in (8, 32, 74, 122):
        previous = -1.0
        for n in (0, 1, 2, 10, 100, 10**4, 10**8):
            p = float(collision_prob(CollisionQuery(bits, n)))
            assert p >= previous
            previous = p


def test_collision_prob_antitone_in_bits():
    for n in (2, 1000, 10**6):
        previous = 2.0
        for bits in (8, 16, 32, 64, 74, 80, 122, 160):
            p = float(collision_prob(CollisionQuery(bits, n)))
            assert p <= previous
            previous = p


def test_collision_prob_is_certain_past_the_space():
    for bits, n in ((1, 3), (1, 5), (4, 17), (8, 10**8)):
        q = CollisionQuery(bits, n)
        assert collision_prob(q) == Probability.certain()
        if bits <= 4:
            assert collision_prob(q) == exact_no_collision_prob(q).complement()
    assert float(collision_prob(CollisionQuery(1, 2))) < 1.0


# --- exact product -----------------------------------------------------------

def test_exact_one_prior_occupant():
    assert float(exact_no_collision_prob(CollisionQuery(4, 2))) == 15 / 16


def test_exact_pigeonhole():
    assert float(exact_no_collision_prob(CollisionQuery(4, 17))) == 0.0
    assert float(exact_no_collision_prob(CollisionQuery(4, 17)).complement()) == 1.0


def test_exact_against_float_log_oracle():
    # fsum over log1p is a fully independent code path.
    expected = math.exp(math.fsum(math.log1p(-k / 65536) for k in range(300)))
    actual = float(exact_no_collision_prob(CollisionQuery(16, 300)))
    assert rel_err(actual, expected) < 1e-12


def test_exact_domain_limits():
    with pytest.raises(DomainTooLarge):
        exact_no_collision_prob(CollisionQuery(25, 10))
    # Pigeonhole comes before the width limit, at any width.
    assert exact_no_collision_prob(CollisionQuery(25, 2**25 + 1)) == Probability.impossible()
    assert exact_no_collision_prob(CollisionQuery(160, 2**160 + 1)) == Probability.impossible()


def test_query_validation():
    with pytest.raises(ValueError):
        CollisionQuery(0, 10)
    with pytest.raises(ValueError):
        CollisionQuery(161, 10)
    with pytest.raises(ValueError):
        CollisionQuery(74, -1)


# --- inversion ---------------------------------------------------------------

def test_fifty_percent_thresholds():
    for bits in (122, 74, 80):
        expected = math.sqrt(2 * 2**bits * math.log(2))
        assert rel_err(count_for_probability(bits, 0.5), expected) < 1e-12


def test_inversion_consistency():
    for p in (0.1, 0.5, 0.9):
        for bits in (32, 64, 74, 80, 122):
            n = round(count_for_probability(bits, p))
            back = float(collision_prob(CollisionQuery(bits, n)))
            assert p * (1 - 1e-3) <= back <= p * (1 + 1e-3)


@pytest.mark.parametrize("p", ["1e-70", "1e-40"])
def test_count_for_probability_tiny_p(p):
    # At 60 digits 1 - 1e-70 rounds to 1; 120 digits hold 1 - p exactly for both.
    with localcontext() as ctx:
        ctx.prec = 120
        expected = (2 * Decimal(2**160) * -(1 - Decimal(p)).ln()).sqrt()
    assert rel_err(count_for_probability(160, Decimal(p)), float(expected)) < 1e-12


def test_count_for_probability_validation():
    with pytest.raises(ValueError):
        count_for_probability(74, 0.0)
    with pytest.raises(ValueError):
        count_for_probability(74, 1.0)
    with pytest.raises(ValueError):
        count_for_probability(0, 0.5)


@pytest.mark.parametrize("p", [float("nan"), Decimal("NaN"), Decimal("sNaN")], ids=str)
def test_count_for_probability_rejects_nan(p):
    with pytest.raises(ValueError, match="target probability"):
        count_for_probability(80, p)


# --- relative risk -----------------------------------------------------------

def test_relative_risk_ulid_vs_uuidv7():
    value = relative_risk(IdScheme.ULID, IdScheme.UUID_V7, 1000)
    assert abs(value - (1 - 2**-6)) < 1e-12


def test_relative_risk_same_scheme_is_zero():
    assert relative_risk(IdScheme.ULID, IdScheme.ULID, 1000) == 0.0


def test_relative_risk_inverse_direction():
    value = relative_risk(IdScheme.UUID_V7, IdScheme.ULID, 1000)
    assert abs(value - (1 - 64)) < 1e-9


def test_relative_risk_needs_two():
    with pytest.raises(ValueError):
        relative_risk(IdScheme.ULID, IdScheme.UUID_V7, 1)


# --- probability type --------------------------------------------------------

def test_probability_rejects_positive_log():
    with pytest.raises(ValueError):
        Probability(Decimal("0.1"))
    # A NaN fails the check too, not the comparison with InvalidOperation.
    for nan in (float("nan"), Decimal("NaN")):
        with pytest.raises(ValueError, match="log-probability must be <= 0"):
            Probability(nan)


def test_probability_certain_and_impossible():
    assert float(Probability.certain()) == 1.0
    assert float(Probability.impossible()) == 0.0
    assert float(Probability.certain().complement()) == 0.0
    assert float(Probability.impossible().complement()) == 1.0


def test_probability_ordering():
    small = collision_prob(CollisionQuery(122, 1000))
    large = collision_prob(CollisionQuery(74, 1000))
    assert small < large
    assert large > small
    assert small == collision_prob(CollisionQuery(122, 1000))


def test_probability_sci_formatting():
    p = collision_prob(CollisionQuery(122, 1000))
    assert p.sci(2) == "9.4e-32"
    assert p.sci(4) == "9.395e-32"


@pytest.mark.parametrize("digits, zero", [(1, "0e+0"), (2, "0.0e+0"), (4, "0.000e+0"), (60, "0." + "0" * 59 + "e+0")])
def test_probability_sci_renders_zero_with_exponent_zero(digits, zero):
    assert Probability.impossible().sci(digits) == zero
    # exp() of a huge negative log underflows to a zero with a huge exponent.
    assert approx_no_collision_prob(CollisionQuery(1, 2**64)).sci(digits) == zero
    assert Probability.certain().sci(digits) == "1" + zero[1:]


def test_probability_repr():
    assert repr(Probability.impossible()) == "Probability(0.000000e+0)"
    assert repr(Probability.certain()) == "Probability(1.000000e+0)"
    assert repr(collision_prob(CollisionQuery(122, 1000))) == "Probability(9.394551e-32)"


@pytest.mark.parametrize("digits", [0, 61])
def test_probability_sci_stops_at_model_precision(digits):
    p = collision_prob(CollisionQuery(122, 1000))
    assert len(p.sci(60)) == len("9.") + 59 + len("e-32")
    with pytest.raises(ValueError, match="digits"):
        p.sci(digits)


def test_probability_is_immutable():
    p = collision_prob(CollisionQuery(122, 1000))
    held = {p}
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.ln_value = Decimal(3)
    assert p.sci(2) == "9.4e-32"
    assert p in held


def test_log_representation_handles_huge_counts():
    p = approx_no_collision_prob(CollisionQuery(1, 2**64))
    assert p.ln_value.is_finite()
    assert float(p) == 0.0
    assert float(p.complement()) == 1.0


# --- risk table --------------------------------------------------------------

def test_risk_table_default_grid():
    table = risk_table()
    assert table.rates == (1000, 10**6, 10**9)
    assert table.cell(1000, IdScheme.UUID_V7).sci(2) == "2.6e-17"
    assert table.cell(10**9, IdScheme.ULID).sci(2) == "4.1e-7"
    assert table.cell(1000, IdScheme.UUID_V4).sci(2) == "9.4e-32"
    assert table.notes == (UUIDV4_TABLE_NOTE,)


def test_risk_table_csv_schema(capsys):
    assert cli.main(["model", "--table", "--csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "rate,uuidv4,uuidv7,ulid"
    assert lines[1].startswith("1000,")
    assert len(lines) == 4
    table = risk_table()
    for line, rate in zip(lines[1:], table.rates):
        cells = [table.cell(rate, s).sci(2) for s in table.schemes]
        assert line == ",".join([str(rate), *cells])


def test_risk_table_text_carries_uuidv4_note(capsys):
    assert cli.main(["model", "--table"]) == 0
    text = capsys.readouterr().out
    assert UUIDV4_TABLE_NOTE in text
    assert "2.3e-29" in text and "9.4e-32" in text


def test_risk_table_without_uuidv4_has_no_note():
    table = risk_table(schemes=[IdScheme.ULID, IdScheme.UUID_V7])
    assert table.notes == ()


def test_risk_table_custom_rates():
    table = risk_table(rates=[10, 20], schemes=[IdScheme.ULID])
    assert float(table.cell(10, IdScheme.ULID)) == float(
        collision_prob(CollisionQuery(80, 10))
    )
    with pytest.raises(ValueError):
        risk_table(rates=[])


def test_threshold_notes_mention_both_figures():
    assert "1.9e18" in FIFTY_PERCENT_THRESHOLD_NOTES[122]
    assert "2.71e18" in FIFTY_PERCENT_THRESHOLD_NOTES[122]
    assert "1.1e12" in FIFTY_PERCENT_THRESHOLD_NOTES[80]
    assert "1.29e12" in FIFTY_PERCENT_THRESHOLD_NOTES[80]
