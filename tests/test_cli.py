"""CLI surface: exit codes, determinism, file formats."""

import json
import os
import subprocess
import sys

import pytest

import longmap
from longmap import FixedLongMap, to_index
import longmap.cli as cli
from longmap.cli import dump_state, main, parse_state
from longmap.conformance import ParseError, read_ascii
from mutants import MUTANTS, applied
from support import DroppedRemoveMap


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fuzz_clean_run(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "--seed", "1", "--ops", "800", "--mask-exp", "4")
    assert code == 0
    assert "result OK" in out
    assert "seed 1" in out


def test_fuzz_deterministic_output(capsys):
    args = ("fuzz", "--seed", "9", "--ops", "500", "--mask-exp", "3")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_fuzz_rejects_mask_exponent_31(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--seed", "1", "--ops", "10", "--mask-exp", "31"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["fuzz", "--mask-exp", "0_3", "--ops", "10"],
        ["fuzz", "--mask-exp", "3", "--ops", "1_0"],
        ["fuzz", "--mask-exp", "3", "--seed", "1_0"],
        ["fuzz", "--mask-exp", "3", "--pool", "1_6"],
        ["fuzz", "--mask-exp", "\u0663"],
        ["bench", "--mask-exp", "4", "--ops-per-level", "1_0"],
        ["fuzz", "--mask-exp", "3", "--ops", "10", "--seed", " 7"],
    ],
)
def test_integer_flags_refuse_what_the_file_formats_refuse(capsys, argv):
    # int() takes digit separators, non-ASCII digits and surrounding
    # whitespace; the flags do not.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert "is not a signed decimal" in err[-1]
    assert sum("error" in line for line in err) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--mask-exp", "4", "--levels", "0.2_5"],
        ["bench", "--mask-exp", "4", "--levels", "\u0660.\u0665"],
        ["bench", "--mask-exp", "4", "--levels", "0.1,,0.5"],
        ["fuzz", "--mask-exp", "3", "--ops", "10", "--sentinel-weight", "0.0_5"],
        ["bench", "--mask-exp", "4", "--levels", " 0.5"],
    ],
)
def test_fractional_flags_refuse_what_the_integer_flags_refuse(capsys, argv):
    # float() takes digit separators, non-ASCII digits and surrounding
    # whitespace; the flags do not, and an empty --levels item is not dropped.
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    err = err.splitlines()
    assert "is not a decimal fraction" in err[-1]
    assert sum("error" in line for line in err) == 1


def test_fuzz_rejects_bad_sentinel_weight(capsys):
    code, _, err = run_cli(capsys, "fuzz", "--mask-exp", "3", "--sentinel-weight", "0.9")
    assert code == 2
    assert "sentinel_weight" in err


def test_fuzz_emit_and_replay_round_trip(tmp_path, capsys):
    trace = tmp_path / "run.trace"
    code, out, _ = run_cli(
        capsys,
        "fuzz", "--seed", "4", "--ops", "600", "--mask-exp", "3",
        "--emit-trace", str(trace),
    )
    assert code == 0
    fuzz_size = [ln for ln in out.splitlines() if ln.startswith("final-size")][0]

    code, out, _ = run_cli(capsys, "replay", str(trace))
    assert code == 0
    assert "result OK" in out
    replay_size = [ln for ln in out.splitlines() if ln.startswith("final-size")][0]
    assert replay_size == fuzz_size


def test_fuzz_growable_mode(capsys):
    code, out, _ = run_cli(
        capsys, "fuzz", "--seed", "2", "--ops", "600", "--mask-exp", "4", "--growable"
    )
    assert code == 0
    assert "mode growable" in out


def test_replay_growable_reproduces_a_growable_divergence(tmp_path, capsys):
    # A map that loses a pair when it grows: fuzz --growable catches it, and
    # only replay --growable reproduces the catch from its traces; on a fixed
    # map at the trace's mask they run clean.
    trace, minimized = tmp_path / "run.trace", tmp_path / "min.trace"
    mutant = next(m for m in MUTANTS if m.name == "growth-drops-a-pair")
    with applied(mutant):
        code, out, _ = run_cli(
            capsys,
            "fuzz", "--seed", "1", "--ops", "300", "--mask-exp", "3", "--growable",
            "--emit-trace", str(trace), "--trace-out", str(minimized),
        )
        assert code == 1
        caught = out.split("result DIVERGENCE at op ")[1].split(":")[0]
        for path in (trace, minimized):
            code, out, _ = run_cli(capsys, "replay", "--growable", str(path))
            assert code == 1
            if path == trace:
                assert f"result VIOLATION at op {caught}:" in out
            code, out, _ = run_cli(capsys, "replay", str(path))
            assert (code, out.splitlines()[-1]) == (0, "result OK")


def test_replay_hand_written_trace(tmp_path, capsys):
    trace = tmp_path / "hand.trace"
    trace.write_text("mask 7\nU 5 50\nG 5\nR 5\n")
    code, out, _ = run_cli(capsys, "replay", str(trace))
    assert code == 0
    assert "final-size 0" in out


def test_replay_rejects_bad_mask(tmp_path, capsys):
    trace = tmp_path / "bad.trace"
    trace.write_text("mask 5\nU 1 1\n")
    code, _, err = run_cli(capsys, "replay", str(trace))
    assert code == 2
    assert "line 1" in err


def test_replay_missing_file(capsys):
    code, _, err = run_cli(capsys, "replay", "/nonexistent/path.trace")
    assert code == 2


def test_replay_non_ascii_byte_is_a_parse_error(tmp_path, capsys):
    trace = tmp_path / "binary.trace"
    trace.write_bytes(b"mask 3\nU 1 2\n\xff\n")
    code, _, err = run_cli(capsys, "replay", str(trace))
    assert code == 2
    assert err == "parse error: line 3: non-ASCII byte 0xff\n"


def test_check_non_ascii_byte_is_a_parse_error(tmp_path, capsys):
    state = tmp_path / "binary.state"
    state.write_bytes(b"mask 3\nextra 0 0 0\nslot 1 5 \xe9\n")
    code, _, err = run_cli(capsys, "check", str(state))
    assert code == 2
    assert err == "parse error: line 3: non-ASCII byte 0xe9\n"


@pytest.mark.parametrize("flag", ["--emit-trace", "--dump-state"])
def test_fuzz_unwritable_output_is_an_error(tmp_path, capsys, monkeypatch, flag):
    # The path is opened before the run, which must not start.
    monkeypatch.setattr(cli, "run_trace", lambda *a, **kw: pytest.fail("fuzzed before opening the output"))
    out = tmp_path / "missing-dir" / "out"
    code, _, err = run_cli(capsys, "fuzz", "--seed", "1", "--ops", "50", "--mask-exp", "2", flag, str(out))
    assert code == 2
    assert err.startswith("error: ") and str(out) in err


def test_fuzz_unwritable_trace_out_is_an_error(tmp_path, capsys, monkeypatch, diverging):
    # The path is opened on divergence, before minimization starts.
    monkeypatch.setattr(cli, "_shrink_trace", lambda *a, **kw: pytest.fail("minimized before opening the output"))
    out = tmp_path / "missing-dir" / "min.trace"
    code, _, err = run_cli(
        capsys, "fuzz", "--seed", "21", "--ops", "500", "--mask-exp", "3", "--trace-out", str(out)
    )
    assert code == 2
    assert err.startswith("error: ") and str(out) in err


def test_bench_unwritable_out_is_an_error(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "bench.json"
    code, _, err = run_cli(
        capsys, "bench", "--mask-exp", "4", "--levels", "0.5", "--ops-per-level", "10", "--out", str(out)
    )
    assert code == 2
    assert err.startswith("error: ") and str(out) in err


def _fuzz_dump_and_check(tmp_path, capsys, *extra):
    state = tmp_path / "map.state"
    argv = ["fuzz", "--seed", "11", "--ops", "700", "--mask-exp", "4", "--dump-state", str(state), *extra]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    mask_line = state.read_text().splitlines()[0]
    code, out, _ = run_cli(capsys, "check", str(state))
    assert code == 0
    assert "valid true" in out
    return mask_line


def test_check_accepts_fuzz_built_state(tmp_path, capsys):
    assert _fuzz_dump_and_check(tmp_path, capsys) == "mask 15"


def test_check_accepts_growable_fuzz_built_state(tmp_path, capsys, monkeypatch):
    grown = []
    factory = cli._growable_factory
    monkeypatch.setattr(cli, "_growable_factory", lambda *a: grown.append(factory(*a)) or grown[-1])
    mask_line = _fuzz_dump_and_check(tmp_path, capsys, "--growable")
    # A growable map is dumped at the capacity it grew to, not the trace's.
    mask = grown[0].capacity - 1
    assert mask > 15
    assert mask_line == f"mask {mask}"


def test_check_detects_duplicate_key(tmp_path, capsys):
    state = tmp_path / "dup.state"
    state.write_text("mask 15\nextra 0 0 0\nslot 3 77 1\nslot 9 77 2\n")
    code, out, _ = run_cli(capsys, "check", str(state))
    assert code == 1
    assert "no_duplicates false" in out


def test_check_detects_unseekable_key(tmp_path, capsys):
    k = 987654321
    displaced = (to_index(k, 15) + 1) & 15
    state = tmp_path / "displaced.state"
    state.write_text(f"mask 15\nextra 0 0 0\nslot {displaced} {k} 5\n")
    code, out, _ = run_cli(capsys, "check", str(state))
    assert code == 1
    assert "all_keys_seekable false" in out


def test_check_malformed_state(tmp_path, capsys):
    state = tmp_path / "garbage.state"
    state.write_text("mask 15\nextra 0 0\n")
    code, _, err = run_cli(capsys, "check", str(state))
    assert code == 2
    assert "line 2" in err


def test_state_round_trip(tmp_path):
    m = FixedLongMap(15)
    m.update(5, 50)
    m.update(-9, 90)
    m.update(0, 7)
    m.remove(-9)  # leaves a tombstone slot in the dump
    path = tmp_path / "rt.state"
    path.write_text(dump_state(m))
    m2 = parse_state(read_ascii(path))
    assert list(m2.keys) == list(m.keys)
    assert list(m2.values) == list(m.values)
    assert m2.extra_keys == m.extra_keys
    assert m2.zero_value == m.zero_value
    assert m2.array_size == m.array_size


def test_parse_state_rejects_duplicate_slot():
    with pytest.raises(ParseError):
        parse_state("mask 3\nextra 0 0 0\nslot 1 5 5\nslot 1 6 6\n")


@pytest.mark.parametrize("slot", ["slot 1 1_1 5", "slot 1 11 5_0", "slot 0_1 11 5", "slot 1 \u0661 5"])
def test_parse_state_rejects_non_decimal_numbers(slot):
    # int() accepts digit separators and non-ASCII digits; the format does not.
    with pytest.raises(ParseError) as exc:
        parse_state(f"mask 3\nextra 0 0 0\n{slot}\n")
    assert exc.value.line_number == 3


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\r"])
def test_parse_state_lines_end_at_newline_only(sep):
    # str.splitlines would end line 3 at sep and blame line 4's slot 9.
    with pytest.raises(ParseError) as exc:
        parse_state(f"mask 3\nextra 0 0 0\nslot 0 5 1{sep}slot 9 1 1\n")
    assert exc.value.line_number == 3


def test_parse_state_crlf_and_header_errors():
    m = parse_state("mask 3\r\nextra 1 7 0\r\nslot 2 5 1\r\n")
    assert (list(m.keys), m.extra_keys, m.zero_value) == ([0, 0, 5, 0], 1, 7)
    for text in ("", "mask 3\n"):
        with pytest.raises(ParseError, match="line 1: expected 'mask' and 'extra' header lines"):
            parse_state(text)
    with pytest.raises(ParseError, match="line 1: expected 'mask <decimal>'"):
        parse_state("mosk 3\nextra 0 0 0\n")
    assert list(parse_state("mask 1\nextra 0 0 0\n\nslot 1 5 6\n").keys) == [0, 5]


def test_parse_state_rejects_out_of_range_slot():
    with pytest.raises(ParseError):
        parse_state("mask 3\nextra 0 0 0\nslot 9 5 5\n")


def test_check_reports_invalid_mask_state(tmp_path, capsys):
    state = tmp_path / "mask5.state"
    state.write_text("mask 5\nextra 0 0 0\n")
    code, out, _ = run_cli(capsys, "check", str(state))
    assert code == 1
    assert "simple_valid false" in out


def test_bench_small_run(tmp_path, capsys):
    out_path = tmp_path / "bench.json"
    code, out, _ = run_cli(
        capsys,
        "bench", "--mask-exp", "8", "--levels", "0.1,0.5,0.9",
        "--ops-per-level", "300", "--seed", "3", "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["capacity"] == 256
    assert doc["mode"] == "fixed"
    means = [lv["mean_probe_length"] for lv in doc["levels"]]
    assert means == sorted(means)
    for lv in doc["levels"]:
        assert sum(lv["probe_histogram"].values()) == lv["measured_ops"]


def test_bench_empty_level_probes_once():
    from longmap.bench import run_bench

    report = run_bench(6, [0.0], 50, seed=1)
    level = report.levels[0]
    assert level.achieved_occupancy == 0.0
    assert set(level.probe_histogram) == {1}
    assert level.mean_probe_length == 1.0


def test_bench_full_table_level_keeps_its_keys():
    from longmap.bench import run_bench

    # round(0.97 * 16) == 16 fills the fixed table: no 0 slot is left, and
    # a miss inspects all 16 slots.
    report = run_bench(4, [0.5, 0.97], 200)
    assert report.levels[-1].achieved_occupancy == 1.0
    assert max(report.levels[-1].probe_histogram) == 16


def test_bench_unreachable_level_is_an_error(capsys):
    # 2^12 slots outrun the 2048-probe budget: the fixed map refuses a fill
    # insert before round(0.9999 * 4096) keys, a legal refusal.
    code, out, err = run_cli(capsys, "bench", "--mask-exp", "12", "--levels", "0.9999")
    assert (code, out) == (2, "")
    assert err.splitlines() == [err.strip()] and err.startswith("error: occupancy level 0.9999 is out of reach")


@pytest.mark.parametrize("mode", [[], ["--growable"]], ids=["fixed", "growable"])
def test_bench_output_is_deterministic(tmp_path, capsys, mode):
    out_path = tmp_path / "bench.json"
    argv = [
        "bench", "--mask-exp", "7", "--levels", "0.2,0.45,0.8",
        "--ops-per-level", "150", "--seed", "4", "--out", str(out_path), *mode,
    ]
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        runs.append((out, out_path.read_bytes()))
    assert runs[0] == runs[1]


def test_bench_rejects_bad_levels(capsys):
    code, _, err = run_cli(capsys, "bench", "--mask-exp", "4", "--levels", "0.5,0.2")
    assert code == 2
    code, _, err = run_cli(capsys, "bench", "--mask-exp", "4", "--levels", "x,y")
    assert code == 2
    code, _, err = run_cli(capsys, "bench", "--mask-exp", "4", "--levels", "1.5")
    assert code == 2
    code, _, err = run_cli(capsys, "bench", "--mask-exp", "4", "--ops-per-level", "0")
    assert code == 2
    # The flag parsers refuse these first; run_bench refuses them too.
    from longmap.bench import run_bench

    with pytest.raises(ValueError, match="at least one occupancy level"):
        run_bench(4, [], 10)
    with pytest.raises(ValueError, match="mask_exponent outside"):
        run_bench(31, [0.5], 10)


def test_bench_growable_stays_under_threshold(capsys):
    code, out, _ = run_cli(
        capsys,
        "bench", "--mask-exp", "6", "--levels", "0.25,0.7,0.9",
        "--ops-per-level", "100", "--growable",
    )
    assert code == 0
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] in ("0.250", "0.700", "0.900"):
            assert float(parts[1]) <= 0.5


@pytest.fixture
def diverging(monkeypatch):
    monkeypatch.setattr("longmap.conformance.FixedLongMap", DroppedRemoveMap)


def test_fuzz_divergence_writes_minimized_trace(tmp_path, capsys, diverging):
    trace_out = tmp_path / "min.trace"
    code, out, _ = run_cli(
        capsys,
        "fuzz", "--seed", "21", "--ops", "500", "--mask-exp", "3",
        "--trace-out", str(trace_out),
    )
    assert code == 1
    assert "DIVERGENCE" in out
    assert trace_out.exists()
    assert trace_out.read_text().startswith("mask 7\n")


class RaisingRemoveMap(FixedLongMap):
    """Raises on a remove of a stored key, as a map with a defect might."""

    def remove(self, key):
        if self.contains(key):
            raise RuntimeError("seeded failure")
        return super().remove(key)


def test_a_map_op_that_raises_is_a_divergence(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("longmap.conformance.FixedLongMap", RaisingRemoveMap)
    trace_out = tmp_path / "min.trace"
    code, out, _ = run_cli(
        capsys,
        "fuzz", "--seed", "21", "--ops", "500", "--mask-exp", "3",
        "--trace-out", str(trace_out),
    )
    assert code == 1
    assert "raised RuntimeError: seeded failure" in out.splitlines()[-2]
    assert out.splitlines()[-1] == f"minimized 2 ops -> {trace_out}"
    code, out, _ = run_cli(capsys, "replay", str(trace_out))
    assert code == 1
    last = out.splitlines()[-1]
    assert last.startswith("result VIOLATION at op 1: remove(")
    assert last.endswith(") raised RuntimeError: seeded failure")


def test_module_entry_point():
    # The child imports the same package as this process, installed or not.
    src = os.path.dirname(os.path.dirname(longmap.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "longmap", "fuzz", "--seed", "1", "--ops", "50", "--mask-exp", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "result OK" in proc.stdout


def test_dump_state_lossless_for_zero_key_value():
    m = FixedLongMap(3)
    text = dump_state(m)
    assert text.splitlines() == ["mask 3", "extra 0 0 0"]
