import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest

from uidlab import cli
from uidlab import sim as sim_mod
from uidlab.bench import CSV_HEADER


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


def _gen_into_pipe(close_pipe):
    """Run ``gen --scheme uuidv4 --count 100000`` with stdout on a pipe that
    ``close_pipe(stdout)`` reads from and closes; return the exit status and stderr."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
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


def test_model_table_values_and_note(capsys):
    status, out, _ = run_cli(capsys, "model", "--table")
    assert status == 0
    assert "9.4e-32" in out and "2.6e-17" in out and "4.1e-19" in out
    assert "note:" in out and "2.3e-29" in out


def test_model_table_csv_schema(capsys):
    status, out, err = run_cli(capsys, "model", "--table", "--csv")
    lines = out.splitlines()
    assert status == 0
    assert lines[0] == "rate,uuidv4,uuidv7,ulid"
    assert len(lines) == 4
    assert "note:" in err


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
        ["bench", "--scheme", "ulid", "--samples", "0"],
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


def test_sim_crash_outside_run_errors_keeps_its_traceback(monkeypatch):
    def crash(cfg):
        raise sim_mod.TopicClosed("worker crashed")

    monkeypatch.setattr(sim_mod, "run_simulation", crash)
    with pytest.raises(sim_mod.TopicClosed):
        cli.main(["sim", "--scheme", "ulid", "--deterministic"])


def test_sim_csv_output(capsys):
    status, out, _ = run_cli(
        capsys,
        "sim",
        "--scheme", "ulid",
        "--producers", "2",
        "--events", "50",
        "--deterministic",
        "--csv",
    )
    assert status == 0
    assert out.splitlines()[0].startswith("scheme,producers,partitions,")


def _write_metrics(path, duration):
    rows = [CSV_HEADER] + [f"{i},{duration},416,{100.0}" for i in range(5)]
    path.write_text("\n".join(rows) + "\n")


def test_report_size_reduction(capsys, tmp_path):
    ulid_csv = tmp_path / "metrics_ULID.csv"
    uuid_csv = tmp_path / "metrics_UUID_V4.csv"
    _write_metrics(ulid_csv, 10.0)
    _write_metrics(uuid_csv, 20.0)
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


@pytest.mark.parametrize("duration", ["0", "nan", "-1"])
def test_report_refuses_durations_it_cannot_divide_by(capsys, tmp_path, duration):
    path = tmp_path / "metrics_ULID.csv"
    _write_metrics(path, duration)
    status, out, err = run_cli(capsys, "report", "--in", str(path), str(path))
    assert status == 1
    assert "error" in err
    assert "Traceback" not in err
    assert out == ""
