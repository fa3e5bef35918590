import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest

from uidlab import cli
from uidlab import sim as sim_mod
from uidlab.bench import CSV_HEADER, HEADLINE_RATIO_NOTE
from uidlab.collision import UUIDV4_TABLE_NOTE
from uidlab.core import SystemEntropy


def run_cli(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_gen_ulid_lines(capsys):
    status, out, _ = run_cli(capsys, "gen", "--scheme", "ulid", "--count", "3")
    lines = out.splitlines()
    assert status == 0
    assert len(lines) == 3
    assert all(len(line) == 26 for line in lines)


def test_gen_uuidv7_version_position(capsys):
    status, out, _ = run_cli(capsys, "gen", "--scheme", "uuidv7", "--count", "1")
    line = out.strip()
    assert status == 0
    assert len(line) == 36
    assert line[14] == "7"


def test_gen_seed_replays(capsys):
    _, first, _ = run_cli(capsys, "gen", "--scheme", "uuidv4", "--count", "5", "--seed", "42")
    _, second, _ = run_cli(capsys, "gen", "--scheme", "uuidv4", "--count", "5", "--seed", "42")
    assert first == second


def test_gen_seed_replays_only_the_random_part_of_a_ulid(capsys):
    # A ULID's last 16 characters are its 80 random bits; its first 10 read the system clock.
    _, first, _ = run_cli(capsys, "gen", "--scheme", "ulid", "--count", "3", "--seed", "7")
    _, second, _ = run_cli(capsys, "gen", "--scheme", "ulid", "--count", "3", "--seed", "7")
    tails = [line[-16:] for line in first.splitlines()]
    assert len(set(tails)) == 3
    assert tails == [line[-16:] for line in second.splitlines()]


def test_gen_monotonic_requires_ulid(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "--scheme", "uuidv4", "--monotonic"])
    assert exc.value.code == 2


def test_gen_monotonic_sorted_output(capsys):
    status, out, _ = run_cli(
        capsys, "gen", "--scheme", "ulid", "--count", "50", "--seed", "1", "--monotonic"
    )
    lines = out.splitlines()
    assert status == 0
    assert lines == sorted(lines)
    assert len(set(lines)) == 50


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--scheme", "uuidv4"],
        ["gen", "--scheme", "uuidv7"],
        ["gen", "--scheme", "ulid"],
        ["gen", "--scheme", "ulid", "--monotonic"],
        ["bench", "--scheme", "uuidv4", "--samples", "3", "--interval-ms", "0", "--virtual-time"],
    ],
    ids=["gen-uuidv4", "gen-uuidv7", "gen-ulid", "gen-monotonic-ulid", "bench"],
)
def test_unseeded_commands_mint_on_the_inline_os_draw(capsys, monkeypatch, tmp_path, argv):
    # Without --seed no random source is passed, so the generators read
    # os.urandom inline and SystemEntropy.next_bits is never called.
    def unused(self, k):
        raise AssertionError("SystemEntropy.next_bits called")

    monkeypatch.setattr(SystemEntropy, "next_bits", unused)
    out = ["--out", str(tmp_path / "m.csv")] if argv[0] == "bench" else ["--count", "5"]
    status, _, err = run_cli(capsys, *argv, *out)
    assert (status, err) == (0, "")


def _cold_env():
    """Environment for a fresh interpreter that imports this uidlab."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _gen_into_pipe(close_pipe):
    """Run ``gen --scheme uuidv4 --count 100000`` with stdout on a pipe that
    ``close_pipe(stdout)`` reads from and closes; return the exit status and stderr."""
    env = _cold_env()
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered stdout, as from a plain shell
    proc = subprocess.Popen(
        [sys.executable, "-m", "uidlab.cli", "gen", "--scheme", "uuidv4", "--count", "100000"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        close_pipe(proc.stdout)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    return proc.returncode, err.decode()


def test_gen_into_closed_pipe_exits_one_without_traceback():
    def read_one_line(stdout):
        assert len(stdout.readline()) == 37
        stdout.close()

    status, err = _gen_into_pipe(read_one_line)
    assert status == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert "Exception ignored" not in err


def test_gen_into_pipe_closed_mid_write_exits_one_without_traceback():
    # Closing the pipe while the writer is blocked part-way through a write
    # leaves bytes in its stdout buffer. Unless main discards them, the
    # interpreter's flush at exit fails on them again: "Exception ignored"
    # on stderr and exit status 120.
    fcntl = pytest.importorskip("fcntl")
    termios = pytest.importorskip("termios")

    def fill_then_close(stdout):
        fd = stdout.fileno()
        queued, still, deadline = -1, 0, time.monotonic() + 30
        while still < 3 and time.monotonic() < deadline:  # until the pipe is full
            time.sleep(0.05)
            now = struct.unpack("i", fcntl.ioctl(fd, termios.FIONREAD, b"\0" * 4))[0]
            still = still + 1 if now == queued and now > 0 else 0
            queued = now
        os.read(fd, 5000)
        time.sleep(0.2)
        stdout.close()

    status, err = _gen_into_pipe(fill_then_close)
    assert status == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert "Exception ignored" not in err


def test_gen_unknown_scheme_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "--scheme", "uuidv9"])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_encode_decode_round_trip(capsys):
    value = "0123456789abcdef0123456789abcdef"
    status, out, _ = run_cli(capsys, "encode", "--to", "ulid", value)
    assert status == 0
    ulid_text = out.strip()
    status, out, _ = run_cli(capsys, "decode", ulid_text)
    assert status == 0
    assert out.strip() == value


@pytest.mark.parametrize(
    "value, expected",
    [
        ("255", "00000000-0000-0000-0000-0000000000ff"),
        # 32 characters, all hex digits: hex before decimal, as the help says.
        ("0" * 30 + "10", "00000000-0000-0000-0000-000000000010"),
    ],
)
def test_encode_reads_decimal_and_hex_values(capsys, value, expected):
    status, out, _ = run_cli(capsys, "encode", "--to", "uuid", value)
    assert status == 0
    assert out == expected + "\n"


@pytest.mark.parametrize("value", ["\u0661\u0662\u0663", "1_0", "+5", "0x_ff"])
def test_encode_rejects_what_only_int_reads(capsys, value):
    # int() reads non-ASCII decimal digits, digit separators and a sign; the
    # help promises decimal, 0x-prefixed or 32-digit hex values only.
    status, out, err = run_cli(capsys, "encode", "--to", "uuid", value)
    assert status == 1
    assert out == ""
    assert err == f"error: invalid value {value!r}: expected decimal, 0x-prefixed or 32-digit hex\n"


@pytest.mark.parametrize("target", ["ulid", "uuid"])
def test_encode_rejects_value_past_128_bits(capsys, target):
    status, out, err = run_cli(capsys, "encode", "--to", target, "0x1" + "0" * 32)
    assert status == 1
    assert out == ""
    assert "error" in err


def test_decode_uuid_string(capsys):
    status, out, _ = run_cli(capsys, "decode", "00000000-0000-4000-8000-000000000000")
    assert status == 0
    assert out.strip() == "00000000000040008000000000000000"


def test_decode_bad_input_fails(capsys):
    status, _, err = run_cli(capsys, "decode", "not-an-identifier")
    assert status == 1
    assert "error" in err


@pytest.mark.skipif(sys.platform == "win32", reason="argv is text on Windows")
@pytest.mark.parametrize(
    "arg, message",
    [
        (b"\xff" + b"0" * 25, "character '\\udcff' is not in the ULID alphabet"),
        (b"00000000-0000-4000-8000-00000000000\xff", "character '\\udcff' is not a hexadecimal digit"),
    ],
)
def test_decode_non_utf8_argument_exits_one_without_traceback(arg, message):
    # Python reads an argv byte that is not UTF-8 as a lone surrogate, which
    # the decoders' fast paths must leave to the loop that names it.
    env = dict(_cold_env(), PYTHONUTF8="1")
    proc = subprocess.run(
        [sys.executable, "-m", "uidlab.cli", "decode", arg], env=env, capture_output=True, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.decode() == f"error: {message}\n"


def test_model_table_values_and_note(capsys):
    status, out, _ = run_cli(capsys, "model", "--table")
    assert status == 0
    assert "9.4e-32" in out and "2.6e-17" in out and "4.1e-19" in out
    assert f"note: {UUIDV4_TABLE_NOTE}\n" in out and "2.3e-29" in out


def test_model_table_csv_schema(capsys):
    status, out, err = run_cli(capsys, "model", "--table", "--csv")
    lines = out.splitlines()
    assert status == 0
    assert lines[0] == "rate,uuidv4,uuidv7,ulid"
    assert lines[1].startswith("1000,")
    assert len(lines) == 4
    assert err == f"note: {UUIDV4_TABLE_NOTE}\n"


def test_model_single_probability(capsys):
    status, out, _ = run_cli(capsys, "model", "--bits", "74", "--count", "1000")
    assert status == 0
    assert abs(float(out.strip()) - 2.6e-17) / 2.6e-17 < 0.05


@pytest.mark.parametrize(
    "bits, count, expected",
    [("1", "5", "1.0e+0"), ("128", "0", "0.0e+0"), ("128", "1", "0.0e+0")],
)
def test_model_prints_certainty_and_zero_exactly(capsys, bits, count, expected):
    status, out, _ = run_cli(capsys, "model", "--bits", bits, "--count", count)
    assert (status, out) == (0, expected + "\n")


def test_model_solve_threshold(capsys):
    status, out, _ = run_cli(capsys, "model", "--solve-p", "0.5", "--bits", "80")
    assert status == 0
    value = float(out.splitlines()[0])
    assert abs(value - 1.294576e12) / 1.294576e12 < 1e-4
    assert "note:" in out


def test_model_solve_tiny_probability(capsys):
    status, out, _ = run_cli(capsys, "model", "--solve-p", "1e-70", "--bits", "160")
    assert (status, out) == (0, "1.7097e-11\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["model", "--bits", "74", "--count", "1000", "--csv"],
        ["model", "--table", "--bits", "74"],
        ["model", "--table", "--digits", "9"],
        ["model", "--solve-p", "0.5", "--bits", "80", "--digits", "9"],
    ],
    ids=" ".join,
)
def test_model_rejects_a_flag_its_mode_ignores(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "applies only to" in err


def test_model_digits_default_and_explicit(capsys):
    assert run_cli(capsys, "model", "--bits", "74", "--count", "1000") == (0, "2.6e-17\n", "")
    assert run_cli(capsys, "model", "--bits", "74", "--count", "1000", "--digits", "4") == (0, "2.644e-17\n", "")


def test_model_requires_exactly_one_mode(capsys):
    for argv in (
        ["model"],
        ["model", "--table", "--count", "5", "--bits", "4"],
        ["model", "--count", "5"],
        ["model", "--solve-p", "1.5", "--bits", "4"],
        ["model", "--bits", "80"],
        ["model", "--table", "--solve-p", "0.5", "--bits", "80"],
        ["model", "--count", "5", "--solve-p", "0.5", "--bits", "80"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sim", "--scheme", "ulid", "--produce-interval-ms", "-1"],
        ["sim", "--scheme", "ulid", "--produce-interval-ms", "inf"],
        ["sim", "--scheme", "ulid", "--produce-interval-ms", "nan"],
        ["sim", "--scheme", "ulid", "--produce-interval-ms", "1e300"],
        ["bench", "--scheme", "ulid", "--interval-ms", "-5"],
        ["bench", "--scheme", "ulid", "--interval-ms", "nan"],
        ["bench", "--scheme", "ulid", "--interval-ms", "1e300"],
        ["model", "--bits", "80", "--count", "5", "--digits", "0"],
        ["model", "--bits", "80", "--count", "5", "--digits", "61"],
        ["model", "--bits", "200", "--count", "5"],
        ["model", "--bits", "80", "--count", "-1"],
        ["model", "--solve-p", "0.5", "--bits", "0"],
        ["model", "--solve-p", "nan", "--bits", "80"],
        ["sim", "--scheme", "ulid", "--events", "0"],
        ["sim", "--scheme", "ulid", "--deterministic", "--produce-interval-ms", "5"],
        ["bench", "--scheme", "ulid", "--samples", "0"],
        # Every number is ASCII: int() and float() would read these.
        ["gen", "--scheme", "ulid", "--count", "\u0663"],
        ["gen", "--scheme", "ulid", "--count", "\u20033"],  # int() strips non-ASCII whitespace too
        ["gen", "--scheme", "ulid", "--seed", "1_0"],
        ["model", "--bits", "\u0661\u0662\u0662", "--count", "5"],
        ["sim", "--scheme", "ulid", "--producers", "\u0662"],
        ["bench", "--scheme", "ulid", "--bytes-per-char", "\u0661",
         "--samples", "1", "--virtual-time", "--out", os.devnull],
        ["bench", "--scheme", "ulid", "--interval-ms", "\u0661",
         "--samples", "1", "--virtual-time", "--out", os.devnull],
    ],
    ids=" ".join,
)
def test_out_of_range_numbers_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "error" in err
    assert "Traceback" not in err


def test_bench_writes_csv_and_summary(capsys, tmp_path):
    out_path = tmp_path / "metrics_ULID.csv"
    status, out, _ = run_cli(
        capsys,
        "bench",
        "--scheme", "ulid",
        "--samples", "10",
        "--interval-ms", "0",
        "--ids-per-sample", "20",
        "--seed", "3",
        "--out", str(out_path),
    )
    assert status == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 11
    assert "durationMicros" in out and "bandwidthMbps" in out


def test_bench_virtual_time_replays(capsys, tmp_path):
    def run(name):
        path = tmp_path / name
        run_cli(
            capsys,
            "bench",
            "--scheme", "uuidv7",
            "--samples", "8",
            "--interval-ms", "0",
            "--ids-per-sample", "10",
            "--seed", "9",
            "--virtual-time",
            "--out", str(path),
        )
        return path.read_text()

    assert run("a.csv") == run("b.csv")


@pytest.mark.parametrize("virtual", [True, False], ids=["virtual-time", "real-time"])
def test_bench_labels_virtual_time_figures(capsys, tmp_path, virtual):
    mode = ["--virtual-time"] if virtual else []
    argv = ["bench", "--scheme", "ulid", "--samples", "4", "--interval-ms", "0", "--ids-per-sample", "20"]
    status, out, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "m.csv"), *mode)
    assert status == 0
    timed = [line for line in out.splitlines() if line.startswith(("durationMicros", "bandwidthMbps"))]
    assert len(timed) == 2
    assert all(line.endswith(cli._VIRTUAL) == virtual for line in timed)
    assert out.count("(virtual)") == (2 if virtual else 0)


def test_bench_with_a_too_coarse_timer_exits_one_with_an_error_line(capsys, monkeypatch, tmp_path):
    from uidlab import bench

    def coarse(cfg, **kwargs):
        raise bench.TimerResolutionTooCoarse("batch of 10 finished within one timer tick")

    monkeypatch.setattr(bench, "run_generation_bench", coarse)
    status, out, err = run_cli(capsys, "bench", "--scheme", "ulid", "--out", str(tmp_path / "m.csv"))
    assert status == 1
    assert err == "error: batch of 10 finished within one timer tick\n"
    assert out == ""


def test_commands_that_import_on_use_run_from_a_cold_start(tmp_path):
    # model imports collision, and bench and report import bench, only when they run.
    metrics = str(tmp_path / "metrics_ULID.csv")
    for argv in (
        ["model", "--bits", "80", "--count", "1000"],
        ["bench", "--scheme", "ulid", "--virtual-time", "--samples", "2", "--ids-per-sample", "10", "--out", metrics],
        ["report", "--in", metrics],
    ):
        result = subprocess.run(
            [sys.executable, "-m", "uidlab.cli", *argv], env=_cold_env(), capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, (argv, result.stderr)
        assert result.stdout


def test_sim_clean_run_exits_zero(capsys):
    status, out, _ = run_cli(
        capsys,
        "sim",
        "--scheme", "ulid",
        "--producers", "4",
        "--events", "250",
        "--deterministic",
    )
    assert status == 0
    assert "duplicate count     0" in out


@pytest.mark.parametrize("deterministic", [True, False], ids=["deterministic", "threaded"])
def test_sim_labels_virtual_time_only_in_deterministic_mode(capsys, deterministic):
    mode = ["--deterministic"] if deterministic else []
    status, out, _ = run_cli(capsys, "sim", "--scheme", "ulid", "--producers", "2", "--events", "50", *mode)
    assert status == 0
    timed = [line for line in out.splitlines() if line.startswith(("elapsed seconds", "effective mbps"))]
    assert len(timed) == 2
    assert all(line.endswith(" (virtual)") == deterministic for line in timed)
    assert out.count("(virtual)") == (2 if deterministic else 0)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--scheme", "uuidv4", "--monotonic"],
        ["gen", "--scheme", "ulid", "--count", "0"],
        ["model", "--table", "--bits", "3"],
        ["bench", "--scheme", "ulid", "--samples", "0"],
        ["sim", "--scheme", "ulid", "--producers", "0"],
    ],
    ids=" ".join,
)
def test_usage_errors_name_their_subcommand(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.splitlines()[-1].startswith(f"uidlab {argv[0]}: error: ")
    assert err.startswith(f"usage: uidlab {argv[0]} ")


@pytest.mark.parametrize(
    ("seed", "message"),
    [("-5", "must be >= 0, got -5"), ("x", "invalid int value: 'x'")],
    ids=["negative", "not-an-int"],
)
@pytest.mark.parametrize("command", [["gen"], ["bench", "--virtual-time"], ["sim", "--deterministic"]], ids=lambda c: c[0])
def test_seed_must_be_a_non_negative_int(capsys, command, seed, message):
    # random.Random seeds with abs(seed), so -5 would replay the ids of 5.
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--scheme", "ulid", "--seed", seed])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"uidlab {command[0]}: error: argument --seed: {message}"


def test_sim_zero_producers_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sim", "--scheme", "ulid", "--producers", "0"])
    assert exc.value.code == 2


def test_sim_uuidv4_omits_ordering(capsys):
    status, out, _ = run_cli(
        capsys,
        "sim",
        "--scheme", "uuidv4",
        "--producers", "2",
        "--events", "50",
        "--deterministic",
    )
    assert status == 0
    assert "ordering" not in out


def test_sim_that_loses_events_exits_nonzero(capsys, monkeypatch):
    store = sim_mod.Sink.store
    monkeypatch.setattr(sim_mod.Sink, "store", lambda sink, events: store(sink, events[1:]))
    status, out, _ = run_cli(
        capsys, "sim", "--scheme", "ulid", "--deterministic", "--events", "20", "--producers", "2"
    )
    assert "events published    40" in out
    assert "events stored       40" not in out
    assert status == 1


def test_sim_that_loses_an_event_before_the_topic_exits_with_one_error_line(capsys, monkeypatch):
    publish = sim_mod.Topic.publish
    monkeypatch.setattr(
        sim_mod.Topic, "publish", lambda topic, event: publish(topic, event) if event.seq != 3 else (0, 0)
    )
    status, out, err = run_cli(
        capsys, "sim", "--scheme", "ulid", "--deterministic", "--events", "20", "--producers", "2"
    )
    assert (status, out) == (1, "")
    assert err == "error: producers made 40 events, but the topic holds 38\n"


def test_sim_unwritable_persist_path_fails_without_traceback(capsys, tmp_path):
    target = tmp_path / "missing" / "x.txt"
    status, _, err = run_cli(
        capsys, "sim", "--scheme", "ulid", "--deterministic", "--events", "2", "--persist", str(target)
    )
    assert status == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_sim_persist_overwrites_the_file(capsys, tmp_path):
    def persist(path, seed):
        argv = ["sim", "--scheme", "ulid", "--deterministic", "--producers", "1", "--events", "3"]
        status, _, _ = run_cli(capsys, *argv, "--seed", seed, "--persist", str(path))
        assert status == 0
        return path.read_text(encoding="ascii").splitlines()

    shared = tmp_path / "ids.txt"
    first = persist(shared, "1")
    second = persist(shared, "2")
    assert len(first) == len(second) == 3
    assert not set(first) & set(second)
    assert second == persist(tmp_path / "fresh.txt", "2")


def test_sim_crash_outside_run_errors_keeps_its_traceback(monkeypatch):
    def crash(cfg):
        raise sim_mod.TopicClosed("worker crashed")

    monkeypatch.setattr(sim_mod, "run_simulation", crash)
    with pytest.raises(sim_mod.TopicClosed):
        cli.main(["sim", "--scheme", "ulid", "--deterministic"])


def test_sim_csv_output(capsys):
    argv = ["sim", "--scheme", "ulid", "--producers", "1", "--events", "10", "--partitions", "1", "--consumers", "1"]
    status, out, _ = run_cli(capsys, *argv, "--deterministic", "--csv")
    assert status == 0
    header, row = out.splitlines()
    assert header + "\n" == _SIM_HEADER
    assert row.startswith("ulid,1,1,10,10,10,10,0,0,0,")
    assert row.endswith(",virtual")


def test_threaded_sim_csv_row_says_wall(capsys):
    status, out, _ = run_cli(capsys, "sim", "--scheme", "uuidv4", "--producers", "2", "--events", "50", "--csv")
    assert status == 0
    header, row = out.splitlines()
    assert header + "\n" == _SIM_HEADER
    assert row.startswith("uuidv4,2,4,100,100,100,100,0,,0,")
    assert row.endswith(",wall")


def _write_metrics(path, duration, size=52):
    # 1,000 ids of ``size`` bytes per sample: bandwidthMbps x durationMicros / 8 is ``size``.
    rows = [CSV_HEADER] + [f"{i},{duration},{size * 8000},{size * 8 / duration}" for i in range(5)]
    path.write_text("\n".join(rows) + "\n")


def test_report_size_reduction(capsys, tmp_path):
    ulid_csv = tmp_path / "metrics_ULID.csv"
    uuid_csv = tmp_path / "metrics_UUID_V4.csv"
    _write_metrics(ulid_csv, 10.0)
    _write_metrics(uuid_csv, 20.0, size=72)
    status, out, _ = run_cli(capsys, "report", "--in", str(ulid_csv), str(uuid_csv))
    assert status == 0
    assert "size reduction 27.8%" in out
    assert "speedup 2x" in out
    assert "83.7" in out  # headline figures documented as not derivable


def test_report_single_input_no_ratios(capsys, tmp_path):
    path = tmp_path / "metrics_ULID.csv"
    _write_metrics(path, 10.0)
    status, out, _ = run_cli(capsys, "report", "--in", str(path))
    assert status == 0
    assert "vs" not in out


def test_report_labels_an_unknown_scheme_by_its_file_stem(capsys, tmp_path):
    foo_csv = tmp_path / "metrics_FOO.csv"
    ulid_csv = tmp_path / "metrics_ULID.csv"
    _write_metrics(foo_csv, 20.0, size=72)
    _write_metrics(ulid_csv, 10.0)
    status, out, _ = run_cli(capsys, "report", "--in", str(foo_csv), str(ulid_csv))
    assert status == 0
    lines = out.splitlines()
    assert lines[1].startswith("metrics_FOO ")
    # The size comes from the file's rows, not from its name.
    assert lines[1].endswith(" 72")
    assert lines[3:] == [
        "metrics_FOO vs ulid: generation speedup 0.5x, size reduction -38.5%",
        f"note: {HEADLINE_RATIO_NOTE}",
    ]


def _bench_pair(tmp_path, names, *flags):
    """Write one virtual-time ULID and one UUIDv7 bench file under ``names``; return their paths."""
    paths = [str(tmp_path / name) for name in names]
    for scheme, path in zip(("ulid", "uuidv7"), paths):
        bench = ["bench", "--scheme", scheme, "--virtual-time", "--seed", "9", "--interval-ms", "0", *flags]
        assert cli.main([*bench, "--samples", "8", "--ids-per-sample", "10", "--out", path]) == 0
    return paths


def test_report_reads_one_byte_per_char_sizes_from_the_files(capsys, tmp_path):
    paths = _bench_pair(tmp_path, ["metrics_ULID.csv", "metrics_UUID_V7.csv"], "--bytes-per-char", "1")
    capsys.readouterr()
    status, out, err = run_cli(capsys, "report", "--in", *paths)
    assert (status, err) == (0, "")
    lines = out.splitlines()
    assert lines[1].split()[::3] == ["ulid", "26"]
    assert lines[2].split()[::3] == ["uuidv7", "36"]
    assert lines[3] == "ulid vs uuidv7: generation speedup 1x, size reduction 27.8%"


def test_report_gives_a_renamed_file_its_size(capsys, tmp_path):
    paths = _bench_pair(tmp_path, ["first.csv", "second.csv"])
    capsys.readouterr()
    status, out, _ = run_cli(capsys, "report", "--in", *paths)
    assert status == 0
    lines = out.splitlines()
    assert lines[1].split()[::3] == ["first", "52"]
    assert lines[2].split()[::3] == ["second", "72"]
    assert lines[3] == "first vs second: generation speedup 1x, size reduction 27.8%"


@pytest.mark.parametrize(
    "rows, line",
    [
        (["0,10.0,416000,41.6", "1,10.0,576000,57.6"], 3),  # 52 then 72 bytes per id
        (["0,0.01,8,0.01"], 2),  # rounds to 0 bytes per id
        (["0,1e200,8,1e200"], 2),  # the product overflows to inf
    ],
    ids=["rows-disagree", "zero-bytes", "overflow"],
)
def test_report_refuses_rows_without_one_size(capsys, tmp_path, rows, line):
    path = tmp_path / "metrics_ULID.csv"
    path.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
    expected = f"error: {path}:{line}: bytes per id is below 1 or differs from line 2's\n"
    assert run_cli(capsys, "report", "--in", str(path)) == (1, "", expected)


def test_report_has_no_bytes_per_char_flag(capsys, tmp_path):
    path = tmp_path / "metrics_ULID.csv"
    _write_metrics(path, 10.0)
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--in", str(path), "--bytes-per-char", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bytes-per-char 1" in capsys.readouterr().err


def test_report_identical_inputs_neutral_ratios(capsys, tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    a_dir.mkdir()
    b_dir.mkdir()
    _write_metrics(a_dir / "metrics_ULID.csv", 10.0)
    _write_metrics(b_dir / "metrics_ULID.csv", 10.0)
    status, out, _ = run_cli(
        capsys, "report", "--in", str(a_dir / "metrics_ULID.csv"), str(b_dir / "metrics_ULID.csv")
    )
    assert status == 0
    assert "speedup 1x" in out
    assert "size reduction 0.0%" in out


def test_report_malformed_csv(capsys, tmp_path):
    path = tmp_path / "metrics_ULID.csv"
    path.write_text("bogus\n")
    status, _, err = run_cli(capsys, "report", "--in", str(path))
    assert status == 1
    assert "error" in err


def test_report_non_ascii_csv_fails_naming_the_file(capsys, tmp_path):
    path = tmp_path / "metrics_ULID.csv"
    path.write_bytes(b"\xff\n")
    status, out, err = run_cli(capsys, "report", "--in", str(path))
    assert status == 1
    assert err.startswith("error: ")
    assert str(path) in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "row, refused",
    [
        ("1_0,2.5,416,166.4", "int value: '1_0'"),
        ("0,1_0,416,166.4", "float value: '1_0'"),
        ("0,2.5,1_0,166.4", "int value: '1_0'"),
        ("0,2.5,416,1_0", "float value: '1_0'"),
        ("+2,2.5,416,166.4", "int value: '+2'"),
        ("0,2.5,+2,166.4", "int value: '+2'"),
        ("1_0,1_0.5,4_16,+2_0", "int value: '1_0'"),
    ],
)
def test_report_refuses_cells_that_only_int_or_float_reads(capsys, tmp_path, row, refused):
    path = tmp_path / "metrics_ULID.csv"
    path.write_text(f"{CSV_HEADER}\n{row}\n")
    assert run_cli(capsys, "report", "--in", str(path)) == (1, "", f"error: {path}:2: invalid {refused}\n")


@pytest.mark.parametrize("row", ["-1,1.5,416,277.3", "0,1.5,-8,277.3"], ids=["index", "payloadBits"])
def test_report_refuses_negative_counts(capsys, tmp_path, row):
    path = tmp_path / "metrics_ULID.csv"
    path.write_text(f"{CSV_HEADER}\n{row}\n")
    expected = f"error: {path}:2: index and payloadBits must be >= 0\n"
    assert run_cli(capsys, "report", "--in", str(path)) == (1, "", expected)


@pytest.mark.parametrize("text", ["\u0663", "1_0", "+2", "-", "", " 7 ", "1e+16", "0x10"])
@pytest.mark.parametrize(
    "flag, column",
    [
        (["model", "--count", "1", "--bits"], "payloadBits"),
        (["bench", "--scheme", "ulid", "--interval-ms"], "durationMicros"),
    ],
    ids=["int", "float"],
)
def test_number_flags_and_metrics_cells_accept_the_same_text(capsys, tmp_path, flag, column, text):
    try:
        cli._build_parser().parse_args([*flag, text])
        flag_reads = True
    except SystemExit:
        flag_reads = False
    capsys.readouterr()
    row = ["0", "2.5", "416", "166.4"]
    row[CSV_HEADER.split(",").index(column)] = text
    path = tmp_path / "metrics_ULID.csv"
    path.write_text(f"{CSV_HEADER}\n{','.join(row)}\n", encoding="utf-8")
    status, _, err = run_cli(capsys, "report", "--in", str(path))
    assert "Traceback" not in err
    assert (status == 0) == flag_reads


@pytest.mark.parametrize("duration", ["0", "nan", "-1"])
def test_report_refuses_durations_it_cannot_divide_by(capsys, tmp_path, duration):
    path = tmp_path / "metrics_ULID.csv"
    path.write_text(f"{CSV_HEADER}\n0,{duration},416000,41.6\n")
    status, out, err = run_cli(capsys, "report", "--in", str(path), str(path))
    assert status == 1
    assert "error" in err
    assert "Traceback" not in err
    assert out == ""


# --- golden output -------------------------------------------------------------

_SIM = ["sim", "--producers", "3", "--events", "40", "--seed", "5", "--deterministic"]
_SIM_HEADER = (
    "scheme,producers,partitions,events_total,consumed_total,stored_total,unique_ids,"
    "duplicate_count,ordering_violations,overflow_waits,elapsed_seconds,effective_mbps,clock\n"
)


def _sim_text(scheme, partitions, mbps, ordering=True):
    return (
        f"scheme              {scheme}\n"
        "producers           3\n"
        f"partitions          {partitions}\n"
        "events published    120\n"
        "events consumed     120\n"
        "events stored       120\n"
        "unique ids          120\n"
        "duplicate count     0\n"
        + ("ordering violations 0\n" if ordering else "")
        + "overflow waits      0\n"
        "elapsed seconds     0.040000 (virtual)\n"
        f"effective mbps      {mbps} (virtual)\n"
    )


_RISK_NOTE = f"note: {UUIDV4_TABLE_NOTE}\n"
_RISK_TEXT = (
    "        rate    uuidv4    uuidv7      ulid\n"
    "        1000   9.4e-32   2.6e-17   4.1e-19\n"
    "     1000000   9.4e-26   2.6e-11   4.1e-13\n"
    "  1000000000   9.4e-20    2.6e-5    4.1e-7\n"
)
_RISK_CSV = (
    "rate,uuidv4,uuidv7,ulid\n"
    "1000,9.4e-32,2.6e-17,4.1e-19\n"
    "1000000,9.4e-26,2.6e-11,4.1e-13\n"
    "1000000000,9.4e-20,2.6e-5,4.1e-7\n"
)
_REPORT = (
    "scheme         mean durationMicros    mean bandwidthMbps  bytes/id\n"
    "ulid                      0.100000           4160.000000        52\n"
    "uuidv7                    0.100000           5760.000000        72\n"
    "ulid                      0.100000           4160.000000        52\n"
    "ulid vs uuidv7: generation speedup 1x, size reduction 27.8%\n"
    "ulid vs ulid: generation speedup 1x, size reduction 0.0%\n"
    "uuidv7 vs ulid: generation speedup 1x, size reduction -38.5%\n"
    f"note: {HEADLINE_RATIO_NOTE}\n"
)
_UUIDV7 = ["--scheme", "uuidv7", "--partitions", "3", "--consumers", "2"]


@pytest.mark.parametrize(
    "argv, out, err",
    [
        pytest.param([*_SIM, "--scheme", "ulid"], _sim_text("ulid", 4, "1.248000"), "", id="sim-ulid"),
        pytest.param(
            [*_SIM, "--scheme", "ulid", "--csv"],
            _SIM_HEADER + "ulid,3,4,120,120,120,120,0,0,0,0.04,1.248,virtual\n",
            "",
            id="sim-ulid-csv",
        ),
        pytest.param([*_SIM, *_UUIDV7], _sim_text("uuidv7", 3, "1.728000"), "", id="sim-uuidv7"),
        pytest.param(
            [*_SIM, *_UUIDV7, "--csv"],
            _SIM_HEADER + "uuidv7,3,3,120,120,120,120,0,0,0,0.04,1.728,virtual\n",
            "",
            id="sim-uuidv7-csv",
        ),
        pytest.param(
            [*_SIM, "--scheme", "uuidv4"], _sim_text("uuidv4", 4, "1.728000", ordering=False), "", id="sim-uuidv4"
        ),
        pytest.param(
            [*_SIM, "--scheme", "uuidv4", "--csv"],
            _SIM_HEADER + "uuidv4,3,4,120,120,120,120,0,,0,0.04,1.728,virtual\n",
            "",
            id="sim-uuidv4-csv",
        ),
        pytest.param(["model", "--table"], _RISK_TEXT + _RISK_NOTE, "", id="model-table"),
        pytest.param(["model", "--table", "--csv"], _RISK_CSV, _RISK_NOTE, id="model-table-csv"),
        pytest.param(
            ["report", "--in", "metrics_ULID.csv", "metrics_UUID_V7.csv", "metrics_ULID.csv"], _REPORT, "", id="report"
        ),
    ],
)
def test_golden_output(capsys, tmp_path, argv, out, err):
    if argv[0] == "report":  # over virtual-time bench files, one of them given twice
        _bench_pair(tmp_path, ["metrics_ULID.csv", "metrics_UUID_V7.csv"])
        capsys.readouterr()
        argv = [str(tmp_path / arg) if arg.endswith(".csv") else arg for arg in argv]
    assert run_cli(capsys, *argv) == (0, out, err)
