"""Benchmark of the uniquesub CLI: closed-loop workloads of fresh-interpreter
invocations, with a traced in-process run for per-layer numbers.

    python3 perfbench/run.py --workload census8 --seed 1 --seconds 20 --trace 0

The program is imported from ``src`` of the source checkout that holds this
directory, whatever the working directory.  One benchmark process runs the
workload's invocations back to back (a closed loop) for ``--seconds`` and
checks every output; a workload run is timed at least ``min_samples`` times
(once in a traced run), after ``warmup_runs`` untimed ones.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` also runs the
same inputs in-process, once plain and once with spans around each layer's
public functions, and reports the per-layer metrics.  The last line of
stdout is the result object; the line before it is the run record (machine,
versions, seed, load).  Spans and records are written under ``.bench_out``.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import (DEFAULT_SEED, SETUP_ARGV, UNIQUESUB, WORKLOADS, Output, check_setup,
                       sha256)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
INVOCATION_TIMEOUT_S = 150
CALIBRATION_REPEATS = 3

E2E_UNITS = {"wall_s": "s", "work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "graphs.emit_graph6.us": "us", "graphs.parse_graph6.us": "us", "graphs.Graph.us": "us",
    "canon.canonicalize.calls": "count", "canon.canonicalize.self_s": "s",
    "canon.canonicalize.us_mean": "us", "canon.canonicalize.max_ms": "ms",
    "canon.cache_hit_ratio": "ratio",
    "canon.sym_K8_ms": "ms", "canon.sym_empty8_ms": "ms", "canon.sym_petersen_ms": "ms",
    "canon.sym_C32_ms": "ms", "canon.random8_us": "us",
    "census.level8_s": "s", "census.self_s": "s", "census.augmentations": "count",
    "census.dedup_ratio": "ratio",
    "embedding.count_embeddings.calls": "count", "embedding.count_embeddings.self_s": "s",
    "embedding.count_embeddings.us_mean": "us",
    "embedding.count_embeddings.zero_ratio": "ratio",
    "embedding.count_embeddings.early_exit_ratio": "ratio",
    "embedding.f_of_h.ms_mean": "ms", "embedding.f_max_exact.s": "s",
    "embedding.unique_ratio": "ratio",
    "process.uniqueness_interval.ms_mean": "ms", "process.counts_per_trace": "count",
    "process.sample_trace.us": "us",
    "sampling.gnp_half.us": "us", "sampling.derive_rng.us": "us",
    "cli.import.scipy_s": "s", "cli.import.numpy_s": "s", "cli.import.mpmath_s": "s",
    "cli.import.uniquesub_s": "s", "cli.parallel_eff": "ratio",
    "trace.overhead_ratio": "ratio",
}


class Bench:
    """Runs commands with the checkout's package and keeps the failure tally."""

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, cmd: list[str]) -> tuple[int, bytes, bytes, float]:
        # A new session lets a timeout kill the CLI together with its pool workers.
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=INVOCATION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            err += b"\ntimed out"
        return proc.returncode, out, err, time.perf_counter() - t0

    def invoke(self, argv: tuple[str, ...]) -> Output:
        code, out, err, seconds = self.run([sys.executable, "-c", UNIQUESUB, *argv])
        return Output(argv, code, out, err, seconds)

    def tally(self, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.failures.append(f"{label}: {reason}")

    def attempt(self, label: str, operation) -> None:
        """Count one in-process operation that returns ``None`` or a failure reason."""
        try:
            reason = operation()
        except Exception as exc:  # a crash of the program under test is a failed operation
            reason = f"raised {exc!r}"
        self.tally(label, reason)

    def judge(self, outputs: list[Output], check) -> None:
        """Count each invocation; a bad exit, a traceback or a failed check fails it."""
        reasons: list[str | None] = [
            f"exit {o.returncode}" if o.returncode else
            "traceback on stderr" if b"Traceback" in o.stderr else None for o in outputs]
        if not any(reasons):
            try:
                reasons = check(outputs)
            except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
                reasons = [f"output check raised {exc!r}"] * len(outputs)
        for o, reason in zip(outputs, reasons):
            self.tally(" ".join(o.argv), reason)


def import_times(bench: Bench) -> dict[str, float]:
    """Self import time per top-level package, from ``python -X importtime``."""
    code, _, err, _ = bench.run([sys.executable, "-X", "importtime", "-c", "import uniquesub.cli"])
    bench.tally("import uniquesub.cli", f"exit {code}" if code else None)
    totals = {"scipy": 0, "numpy": 0, "mpmath": 0, "uniquesub": 0}
    for line in err.decode(errors="replace").splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            top = fields[2].strip().split(".")[0]
            if top in totals:
                totals[top] += int(fields[0])
    return {f"cli.import.{k}_s": v / 1e6 for k, v in totals.items()}


def traced_metrics(spec, seed: int, bench: Bench, first: list[Output]) -> tuple[dict, float]:
    """Run the workload in-process plain and traced; return layer metrics and the plain time."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {m: importlib.import_module(f"uniquesub.{m}")
               for m in ("cli", "census", "canon", "embedding", "process", "sampling")}
    census, canon = modules["census"], modules["canon"]

    def forget() -> None:
        """Drop the package's memo tables so that each pass redoes all the work."""
        census._census.cache_clear()
        canon.canonicalize.cache_clear()

    forget()
    t0 = time.perf_counter()
    bench.attempt("in-process pass",
                  lambda: spec.run_in_process(seed, OUT, census.census_entries, first))
    plain = time.perf_counter() - t0

    forget()
    tracer = tracing.Tracer(spec.name)
    tracer.install(modules)
    try:
        t0 = time.perf_counter()
        level = tracer.wrap("census.level", census.census_entries, len)
        bench.attempt("traced in-process pass",
                      lambda: spec.run_in_process(seed, OUT, level, first))
        traced = time.perf_counter() - t0
    finally:
        tracer.restore()
    tracer.write(OUT / f"spans-{spec.name}.tsv")
    stats = tracing.SpanStats(tracer)
    metrics = tracing.layer_metrics(stats, canon.canonicalize.cache_info().hits,
                                    getattr(spec, "traces", 0))
    metrics.update(tracing.canon_probes(seed))
    metrics["trace.overhead_ratio"] = traced / plain
    return metrics, plain


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: how fast the machine runs now.

    Kept in the run record, not as a metric, for comparing paired runs.  It
    did not follow the slow spells of the machine that slowed the workloads.
    """
    times = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_commit() -> str | None:
    """The checkout's commit, or ``None`` when it is not a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_facts() -> dict[str, object]:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    source = b"".join(p.read_bytes() for p in sorted((SRC / "uniquesub").glob("*.py")))
    facts: dict[str, object] = {"commit": git_commit(), "source_sha256": sha256(source),
                                "nproc": os.cpu_count(), "cpu_model": cpu,
                                "python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy", "mpmath"):
        facts[pkg] = importlib.metadata.version(pkg)
    return facts


def run(spec, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, dict]:
    """One benchmark run; returns (metrics, record, failure tally)."""
    OUT.mkdir(exist_ok=True)
    load_before = os.getloadavg()
    calibration_before = calibration_s()
    bench = Bench()

    def workload_run() -> list[Output]:
        spec.clear(OUT)
        outs = [bench.invoke(argv) for argv in spec.argvs(seed, OUT)]
        bench.judge(outs, lambda outs: spec.check(seed, OUT, outs))
        return outs

    # A traced run reports no end-to-end metric; one workload run gives its inputs.
    min_samples, seconds = (1, 0.0) if trace else (spec.min_samples, seconds)
    for _ in range(0 if trace else spec.warmup_runs):  # checked, not timed
        workload_run()
    walls: list[float] = []
    first: list[Output] = []
    start = time.perf_counter()
    while len(walls) < min_samples or time.perf_counter() - start < seconds:
        outs = workload_run()
        walls.append(sum(o.seconds for o in outs))
        first = first or outs

    if spec.threads > 1:  # seeded replays are byte-identical across thread counts
        replay = [bench.invoke(argv) for argv in spec.argvs(seed, OUT, threads=1)]
        bench.judge(replay, lambda outs: [
            None if o.stdout == f.stdout else "differs from the threaded run"
            for o, f in zip(outs, first)])

    # After the workload runs, so that the interpreter's files are in the page cache.
    setup = []
    for _ in range(SETUP_REPEATS):
        out = bench.invoke(SETUP_ARGV)
        bench.judge([out], lambda outs: [check_setup(outs[0])])
        setup.append(out.seconds)

    wall = statistics.median(walls)
    setup_s = statistics.median(setup)
    metrics = {
        "wall_s": wall,
        "work_per_s": spec.units / wall,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    if trace:
        layer, plain = traced_metrics(spec, seed, bench, first)
        layer.update(import_times(bench))
        layer["cli.parallel_eff"] = plain / (spec.threads * (wall - len(first) * setup_s))
        metrics = layer

    record = {"workload": spec.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              **machine_facts(), "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
              "calibration_s_before": calibration_before, "calibration_s_after": calibration_s(),
              "wall_samples_s": walls, "setup_samples_s": setup, "failures": bench.failures}
    tally = {"attempted": bench.attempted, "failed": bench.failed}
    return metrics, record, tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "uniquesub" / "cli.py").is_file():
        print(f"no uniquesub package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    metrics, record, tally = run(spec, args.seed, args.seconds, bool(args.trace))
    units = LAYER_UNITS if args.trace else E2E_UNITS
    result = {"correct": tally["failed"] == 0, **tally,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}

    name = f"{spec.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"record-{name}.json").write_text(json.dumps({**record, "result": result}) + "\n")
    samples = len(record["wall_samples_s"])
    for k, u in units.items():
        note = f" (median of {samples} runs)" if k == "wall_s" else ""
        print(f"{k} = {metrics[k]:.6g} {u}{note}")
    ratio = tally["failed"] / tally["attempted"]
    print(f"fail_ratio = {ratio:.6g} ratio ({tally['failed']} of {tally['attempted']} invocations)")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
