"""Tests of the benchmark itself, on small versions of its workloads.

Run with ``python3 -m pytest perfbench/tests``; the repository's own suite
(``testpaths = tests``) does not collect them.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Census, FExact, MonteCarlo, Output  # noqa: E402

CENSUS5 = Census("census5", n=5, classes=34, out_sha256=(
    "bb4816d3f81ff43e9db8b83d06ed5a100dab8be57ce540f26ea2f6e381582121"))
CENSUS6 = Census("census6", n=6, classes=156, out_sha256=(
    "2a82e23662a5e726dccc9b473dc627592ee82f4acab921453401fdef19e87cd9"))
FEXACT4 = FExact("fexact4", n=4, classes=11, stdout_sha256=(
    "cb14fe82cbe5af1ca474699a3e566e4627854c0087d45e8189cc5cea5c73a8b2"))
# Payloads are pinned only at the default seed; the tests use another one.
MONTECARLO_TINY = MonteCarlo("montecarlo-tiny", host_g6="Gyh|^k", trials=300,
                             traces=12, L=0.5, threads=2, default_sha256=("", ""))
SEED = 7

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# Metrics that are counts, or ratios of counts, and so must repeat exactly.
COUNT_METRICS = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"] + [
    "canon.cache_hit_ratio", "census.dedup_ratio", "embedding.count_embeddings.zero_ratio",
    "embedding.count_embeddings.early_exit_ratio", "embedding.unique_ratio"]


def _cli(argv: list[str]) -> bytes:
    from uniquesub import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue().encode()


def _output(argv: list[str], stdout: bytes) -> Output:
    return Output(tuple(argv), 0, stdout, b"", 0.0)


def _judged(outputs: list[Output], check) -> run.Bench:
    bench = run.Bench()
    bench.judge(outputs, check)
    return bench


def test_corrupted_census_line_is_a_failure(tmp_path):
    argv = list(CENSUS5.argvs(SEED, tmp_path)[0])
    outputs = [_output(argv, _cli(argv))]
    check = lambda outs: CENSUS5.check(SEED, tmp_path, outs)  # noqa: E731
    assert _judged(outputs, check).failed == 0

    path = tmp_path / "census5.g6"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[3] = lines[3][:1] + bytes([lines[3][1] ^ 1]) + lines[3][2:]
    path.write_bytes(b"".join(lines))
    bench = _judged(outputs, check)
    assert (bench.attempted, bench.failed) == (1, 1)
    assert "differs from the recorded table" in bench.failures[0]


def test_missing_or_stale_census_file_is_a_failure(tmp_path):
    """An exit-0 run that prints the right count but writes no file, or writes
    it elsewhere, fails even when a correct file from an earlier run is there."""
    argv = list(CENSUS5.argvs(SEED, tmp_path)[0])
    stdout = _cli(argv)
    check = lambda outs: CENSUS5.check(SEED, tmp_path, outs)  # noqa: E731
    CENSUS5.clear(tmp_path)
    bench = _judged([_output(argv, stdout)], check)
    assert (bench.attempted, bench.failed) == (1, 1)
    assert "wrote no census file" in bench.failures[0]

    _cli(argv)  # a correct file left by an earlier invocation
    elsewhere = argv[:-1] + [str(tmp_path / "elsewhere.g6")]
    bench = _judged([_output(argv, _cli(elsewhere))], check)
    assert (bench.attempted, bench.failed) == (1, 1)
    assert "summary line is wrong" in bench.failures[0]


def test_run_loop_clears_the_census_file(tmp_path, monkeypatch):
    """The closed loop removes the last run's census file before each run, so a
    CLI that stops writing it fails although its summary line is right."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, CENSUS5.name, CENSUS5)
    argv = CENSUS5.argvs(SEED, tmp_path)[0]
    stdout = _cli(list(argv))  # leaves a correct file behind
    real_invoke = run.Bench.invoke

    def invoke(self, args):
        if args == argv:  # prints the summary, writes nothing
            return Output(args, 0, stdout, b"", 0.01)
        return real_invoke(self, args)

    monkeypatch.setattr(run.Bench, "invoke", invoke)
    _, record, tally = run.run(CENSUS5, SEED, 0, trace=False)
    assert tally["failed"] == CENSUS5.warmup_runs + CENSUS5.min_samples
    assert all("wrote no census file" in f for f in record["failures"])


def test_corrupted_f_entry_is_a_failure(tmp_path):
    argv = list(FEXACT4.argvs(SEED, tmp_path)[0])
    stdout = _cli(argv)
    check = lambda outs: FEXACT4.check(SEED, tmp_path, outs)  # noqa: E731
    assert _judged([_output(argv, stdout)], check).failed == 0

    payload = json.loads(stdout)
    payload["table"][2]["count"] += 1
    corrupted = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    bench = _judged([_output(argv, corrupted)], check)
    assert (bench.attempted, bench.failed) == (1, 1)

    truncated = stdout[: len(stdout) // 2]
    assert _judged([_output(argv, truncated)], check).failed == 1


def test_bad_exit_and_traceback_are_failures():
    ok = _output(["x"], b"")
    bench = _judged([Output(("x",), 1, b"", b"", 0.0),
                     Output(("x",), 0, b"", b"Traceback (most recent call last)", 0.0), ok],
                    lambda outs: [None] * len(outs))
    assert (bench.attempted, bench.failed) == (3, 2)


@pytest.fixture
def tiny_workload(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, MONTECARLO_TINY.name, MONTECARLO_TINY)
    return MONTECARLO_TINY.name


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(tiny_workload, trace, section, capsys):
    code = run.main(["--workload", tiny_workload, "--seed", str(SEED), "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    record = json.loads(next(ln for ln in lines if ln.startswith("record "))[7:])
    assert len(record["wall_samples_s"]) == (1 if trace else MONTECARLO_TINY.min_samples)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(ln.startswith(f"{name} = ") and f" {unit}" in ln for ln in lines), name
    assert any(ln.startswith("fail_ratio = ") for ln in lines)
    for key in ("commit", "nproc", "cpu_model", "python", "numpy", "scipy", "mpmath",
                "seed", "loadavg_before", "loadavg_after", "calibration_s_before",
                "calibration_s_after"):
        assert key in record


def _traced(spec, tmp_path, monkeypatch) -> dict:
    monkeypatch.setattr(run, "OUT", tmp_path)
    bench = run.Bench()
    first = [bench.invoke(argv) for argv in spec.argvs(SEED, tmp_path)]
    metrics, _ = run.traced_metrics(spec, SEED, bench, first)
    assert bench.failed == 0, bench.failures
    return metrics


@pytest.mark.parametrize("spec", [CENSUS6, FEXACT4, MONTECARLO_TINY], ids=lambda s: s.name)
def test_counts_repeat_between_traced_runs(spec, tmp_path, monkeypatch):
    first = _traced(spec, tmp_path, monkeypatch)
    second = _traced(spec, tmp_path, monkeypatch)
    counts = {k: first[k] for k in COUNT_METRICS}
    assert counts == {k: second[k] for k in COUNT_METRICS}
    if spec is CENSUS6:
        # Every class of order k-1 is augmented in all 2^(k-1) ways, k = 2..6.
        assert counts["census.augmentations"] == 1 * 2 + 2 * 4 + 4 * 8 + 11 * 16 + 34 * 32
    if spec is MONTECARLO_TINY:
        assert counts["canon.canonicalize.calls"] == 0
        assert counts["embedding.count_embeddings.calls"] > spec.trials
