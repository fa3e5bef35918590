"""Birthday-bound collision probabilities for identifier schemes.

For n identifiers drawn uniformly from a space of d values, the probability
of seeing no duplicate is

    P(none) = d! / (d^n (d - n)!) = prod_{k=0}^{n-1} (1 - k/d)
            ~ exp(-n(n-1) / (2d))

and the collision probability is its complement. Time-ordered schemes reset
the draw every millisecond (identifiers from different milliseconds differ
in the timestamp bits), so n counts identifiers per millisecond for UUIDv7
and ULID and identifiers overall for UUIDv4; d is 2^effective_random_bits.

All probability arithmetic runs in this module's own 60-digit ``decimal``
context, whatever the caller's, and carries probabilities as natural
logarithms, so a value like 9.4e-32 survives the final ``1 - exp(...)`` step
with dozens of correct digits instead of drowning in float cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Context, Decimal, localcontext

from . import _LAZY
from .core import IdScheme

__all__ = list(_LAZY["collision"])

_PRECISION = 60
_SERIES_CUTOFF = Decimal("1e-25")
_CTX = Context(prec=_PRECISION)
# 1 - e^-t cancels up to 25 leading digits for t >= 1e-25; 25 spare digits keep all 60.
_WIDE = Context(prec=_PRECISION - _SERIES_CUTOFF.adjusted())

MIN_BITS = 1
MAX_BITS = 160
EXACT_MAX_BITS = 24

DEFAULT_RATES = (1_000, 1_000_000, 1_000_000_000)

UUIDV4_TABLE_NOTE = (
    "widely circulated risk tables list the UUIDv4 column as ~2.3e-29, ~2.3e-23 "
    "and ~2.3e-17 for rates 1e3, 1e6 and 1e9; those figures do not satisfy "
    "p = 1 - exp(-n(n-1)/(2*2^122)), which yields ~9.4e-32, ~9.4e-26 and "
    "~9.4e-20. This table reports the formula values."
)

FIFTY_PERCENT_THRESHOLD_NOTES = {
    122: (
        "a widely circulated 50% threshold for 122 random bits is ~1.9e18; "
        "sqrt(2 * 2^122 * ln 2) evaluates to ~2.71e18, and the formula value "
        "is reported here."
    ),
    80: (
        "the 50% threshold for 80 random bits is often quoted as ~2^40 "
        "(about 1.1e12); sqrt(2 * 2^80 * ln 2) evaluates to ~1.29e12, and "
        "the formula value is reported here."
    ),
}


class DomainTooLarge(ValueError):
    """The exact product form is limited to small spaces (<= 24 bits)."""


@dataclass(frozen=True)
class CollisionQuery:
    """Inputs of the birthday model: space width in bits, identifiers drawn.

    ``effective_bits`` is the width of the random component that must avoid
    collision within one independence window; the space size is 2**bits.
    """

    effective_bits: int
    count: int

    def __post_init__(self):
        if not MIN_BITS <= self.effective_bits <= MAX_BITS:
            raise ValueError(f"effective_bits must be in [{MIN_BITS}, {MAX_BITS}]")
        if self.count < 0:
            raise ValueError("count must be non-negative")


@dataclass(frozen=True, order=True)
class Probability:
    """A probability in [0, 1] held as its natural logarithm.

    The log is a :class:`~decimal.Decimal` carrying 60 significant digits, so
    tiny probabilities keep full relative precision and the representation
    cannot overflow for any count up to 2^64 and beyond.
    """

    ln_value: Decimal

    def __post_init__(self):
        with localcontext(_CTX):
            ln_value = Decimal(self.ln_value)
            if ln_value.is_nan() or ln_value > 0:
                raise ValueError(f"log-probability must be <= 0, got {ln_value}")
        object.__setattr__(self, "ln_value", ln_value)

    @classmethod
    def certain(cls) -> "Probability":
        return cls(Decimal(0))

    @classmethod
    def impossible(cls) -> "Probability":
        return cls(Decimal("-Infinity"))

    @property
    def value(self) -> Decimal:
        with localcontext(_CTX):
            return self.ln_value.exp()

    def complement(self) -> "Probability":
        """1 - p, computed in log space without catastrophic cancellation."""
        return Probability(_ln_one_minus_exp(self.ln_value))

    def sci(self, digits: int = 2) -> str:
        """Scientific-notation rendering with 1 to 60 significant digits."""
        if not 1 <= digits <= _PRECISION:
            raise ValueError(f"digits must be in [1, {_PRECISION}], got {digits}")
        with localcontext(_CTX):  # format() rounds in the current context
            # Decimal renders a zero's exponent from its digit count ("0.0e+1");
            # a zero scaled by those digits renders as "0.0e+0", like "1.0e+0".
            return format(self.value or Decimal(0).scaleb(1 - digits), f".{digits - 1}e")

    def __float__(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        return f"Probability({self.sci(7)})"


def _ln_one_minus_exp(ln_p: Decimal) -> Decimal:
    """ln(1 - e^x) for x <= 0, accurate for x arbitrarily close to 0."""
    with localcontext(_WIDE):
        if ln_p == 0:
            return Decimal("-Infinity")
        if ln_p.is_infinite():
            return Decimal(0)
        t = -ln_p
        if t < _SERIES_CUTOFF:
            # 1 - e^-t = t(1 - t/2 + t^2/6 - t^3/24 + ...); truncation error
            # below 10^-100 for t < 1e-25.
            poly = 1 - t / 2 + t * t / 6 - t * t * t / 24
            return t.ln() + poly.ln()
        return (1 - (-t).exp()).ln()


def approx_no_collision_prob(query: CollisionQuery) -> Probability:
    """exp(-n(n-1) / (2 * 2^bits)), the standard birthday approximation."""
    n = query.count
    with localcontext(_CTX):
        return Probability(-Decimal(n * (n - 1)) / Decimal(1 << (query.effective_bits + 1)))


def collision_prob(query: CollisionQuery) -> Probability:
    """Probability of at least one duplicate among ``count`` identifiers.

    Certain once the count exceeds the space, as the exact form also says;
    the approximation alone would still leave a small chance of none.
    """
    if query.count > 1 << query.effective_bits:
        return Probability.certain()
    return approx_no_collision_prob(query).complement()


def exact_no_collision_prob(query: CollisionQuery) -> Probability:
    """The exact product prod_{k<n} (1 - k/d), for small spaces only.

    Serves as the oracle the approximation is judged against. When n exceeds
    the space size the pigeonhole answer 0 is returned at any width;
    otherwise ``effective_bits`` above 24 raises :class:`DomainTooLarge`.
    """
    bits, n = query.effective_bits, query.count
    if n > 1 << bits:
        return Probability.impossible()
    if bits > EXACT_MAX_BITS:
        raise DomainTooLarge(f"exact form supports at most {EXACT_MAX_BITS} bits, got {bits}")
    with localcontext(_CTX):
        d_dec = Decimal(1 << bits)
        total = Decimal(0)
        for k in range(1, n):
            total += (1 - Decimal(k) / d_dec).ln()
    return Probability(total)


def count_for_probability(effective_bits: int, p) -> float:
    """How many identifiers drive the collision probability up to ``p``.

    Inverts 1 - exp(-n^2 / (2d)) = p under the n << d simplification, i.e.
    n = sqrt(2 * 2^bits * ln(1/(1-p))). With p = 0.5 this is the familiar
    sqrt(2d ln 2) birthday threshold.
    """
    if not MIN_BITS <= effective_bits <= MAX_BITS:
        raise ValueError(f"effective_bits must be in [{MIN_BITS}, {MAX_BITS}]")
    with localcontext(_CTX):
        p_dec = p if isinstance(p, Decimal) else Decimal(str(p))
        # Decimal raises InvalidOperation when NaN is compared.
        if p_dec.is_nan() or not 0 < p_dec < 1:
            raise ValueError(f"target probability must be in (0, 1), got {p}")
        # -ln(1 - p); below the cutoff 1 - p would round to 1 at 60 digits.
        ln_term = p_dec + p_dec * p_dec / 2 if p_dec < _SERIES_CUTOFF else -(1 - p_dec).ln()
        return float((2 * Decimal(1 << effective_bits) * ln_term).sqrt())


def relative_risk(a: IdScheme, b: IdScheme, count: int) -> float:
    """How much lower scheme ``a``'s collision risk is than scheme ``b``'s.

    Returns 1 - p_a/p_b as a fraction: positive when ``a`` is safer,
    negative when it is riskier.
    """
    if count < 2:
        raise ValueError("relative risk needs at least two identifiers")
    p_a = collision_prob(CollisionQuery(a.effective_random_bits, count))
    p_b = collision_prob(CollisionQuery(b.effective_random_bits, count))
    with localcontext(_CTX):
        return float(1 - (p_a.ln_value - p_b.ln_value).exp())


@dataclass(frozen=True)
class RiskTable:
    """Collision probabilities for a grid of generation rates and schemes."""

    rates: tuple[int, ...]
    schemes: tuple[IdScheme, ...]
    cells: dict[tuple[int, IdScheme], Probability]
    notes: tuple[str, ...] = field(default_factory=tuple)

    def cell(self, rate: int, scheme: IdScheme) -> Probability:
        return self.cells[(rate, scheme)]


def risk_table(rates=None, schemes=None) -> RiskTable:
    """Collision risk per scheme at the given per-window generation rates."""
    rates = tuple(rates) if rates is not None else DEFAULT_RATES
    if not rates:
        raise ValueError("rates must be non-empty")
    schemes = tuple(schemes) if schemes is not None else tuple(IdScheme)
    cells = {
        (rate, scheme): collision_prob(CollisionQuery(scheme.effective_random_bits, rate))
        for rate in rates
        for scheme in schemes
    }
    notes = (UUIDV4_TABLE_NOTE,) if IdScheme.UUID_V4 in schemes else ()
    return RiskTable(rates=rates, schemes=schemes, cells=cells, notes=notes)
