"""Golden CLI surface: exit code, stdout, stderr, written files and the
``--record`` line of a fixed list of invocations, each run in-process with
and without ``--record``, against ``tests/golden/cli.json``.

Timestamps in records are zeroed and the temporary directory reads
``{tmp}``.  After a deliberate change to the CLI surface, rewrite the file
with ``PYTHONPATH=src python tests/test_cli_golden.py`` and review its diff.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

from uniquesub.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

# Files each case may read, written into its temporary directory first.
INPUTS = {"good.g6": "@\nA_\nBw\n", "bad.g6": "Bw\nB\nBw\n"}

CASES: dict[str, list[str]] = {
    "enumerate-3": ["enumerate", "--n", "3"],
    "enumerate-out": ["enumerate", "--n", "4", "--out", "{tmp}/g4.g6"],
    "enumerate-10": ["enumerate", "--n", "10"],
    "enumerate-too-large": ["enumerate", "--n", "11"],
    "polya-4": ["polya", "--n", "4"],
    "polya-0": ["polya", "--n", "0"],
    "f-exact-3": ["f-exact", "--n", "3"],
    "f-exact-3-spanning": ["f-exact", "--n", "3", "--spanning"],
    "f-exact-9": ["f-exact", "--n", "9"],
    "f-of-h": ["f-of-h", "--g6", "Bw"],
    "f-of-h-spanning": ["f-of-h", "--g6", "DK[", "--spanning"],
    "f-of-h-8": ["f-of-h", "--g6", "G?????"],
    "f-of-h-10": ["f-of-h", "--g6", "I????????"],
    "f-of-h-allow-large": ["f-of-h", "--g6", "Bw", "--allow-large"],
    "f-of-h-bad-g6": ["f-of-h", "--g6", "B"],
    "estimate": ["estimate", "--g6", "Bw", "--trials", "30", "--seed", "99"],
    "estimate-pool": ["--threads", "2", "estimate", "--g6", "D?{", "--trials", "16",
                      "--seed", "5"],
    "estimate-trials-0": ["estimate", "--g6", "Bw", "--trials", "0", "--seed", "1"],
    "estimate-bad-g6": ["estimate", "--g6", "B", "--trials", "3", "--seed", "1"],
    "estimate-seed-negative": ["estimate", "--g6", "Bw", "--trials", "3", "--seed", "-5"],
    "estimate-threads-0": ["--threads", "0", "estimate", "--g6", "Bw", "--trials", "3",
                           "--seed", "1"],
    "estimate-threads-negative": ["--threads", "-3", "estimate", "--g6", "Bw", "--trials",
                                  "3", "--seed", "1"],
    "process-L": ["process", "--g6", "D?{", "--traces", "3", "--seed", "7", "--L", "1.0"],
    "process-interval": ["process", "--g6", "D?{", "--traces", "2", "--seed", "7"],
    "process-scan-all": ["process", "--g6", "C~", "--traces", "1", "--seed", "3",
                         "--scan-all"],
    "process-L-0": ["process", "--g6", "D?{", "--traces", "1", "--seed", "1", "--L", "0"],
    "process-L-nan": ["process", "--g6", "D?{", "--traces", "1", "--seed", "1",
                      "--L", "nan"],
    "process-L-inf": ["process", "--g6", "Gyh|^k", "--traces", "1", "--seed", "1",
                      "--L", "inf"],
    "process-L-inf-pool": ["--threads", "2", "process", "--g6", "Gyh|^k", "--traces", "16",
                           "--seed", "1", "--L", "inf"],
    "process-seed-negative": ["process", "--g6", "D?{", "--traces", "1", "--seed", "-5"],
    "switch": ["switch", "--hc", "C`", "--g", "C~", "--pi", "0,1,2,3"],
    "switch-pairs": ["switch", "--hc", "C`", "--g", "C~", "--pi", "0,1,2,3",
                     "--pairs", "2,3"],
    "switch-pairs-empty": ["switch", "--hc", "C`", "--g", "C~", "--pi", "0,1,2,3",
                           "--pairs", ""],
    "switch-not-embedding": ["switch", "--hc", "C~", "--g", "C`", "--pi", "0,1,2,3"],
    "switch-bad-perm": ["switch", "--hc", "C`", "--g", "C~", "--pi", "a,b,c,d"],
    "switch-not-bijection": ["switch", "--hc", "C`", "--g", "C~", "--pi", "0,0,1,2"],
    "refine-t-schedule": ["refine-t", "--hc", "C`", "--c", "1", "--schedule", "1.0"],
    "refine-t-schedule-empty": ["refine-t", "--hc", "C`", "--c", "1", "--schedule", ""],
    "refine-t-default": ["refine-t", "--hc", "C`", "--c", "1"],
    "refine-t-c-negative": ["refine-t", "--hc", "C`", "--c", "-1"],
    "refine-t-c-nan": ["refine-t", "--hc", "C`", "--c", "nan"],
    "refine-t-c-inf": ["refine-t", "--hc", "C`", "--c", "inf"],
    "refine-t-c-huge": ["refine-t", "--hc", "C`", "--c", "1e300"],
    "refine-t-schedule-inf": ["refine-t", "--hc", "C`", "--c", "1", "--schedule", "inf"],
    "bounds-binom-point-mass": ["bounds", "binom-point-mass", "--n-pairs", "6"],
    "bounds-binom-point-mass-0": ["bounds", "binom-point-mass", "--n-pairs", "0"],
    "bounds-binom-point-mass-digits": ["bounds", "binom-point-mass", "--n-pairs", "20000"],
    "bounds-chernoff-l": ["bounds", "chernoff-l", "--delta", "0.5", "--n", "6"],
    "bounds-chernoff-l-nan": ["bounds", "chernoff-l", "--delta", "nan", "--n", "6"],
    "bounds-chernoff-l-too-large": ["bounds", "chernoff-l", "--delta", "0.5", "--n", "651"],
    "bounds-chernoff-l-digits": ["bounds", "chernoff-l", "--delta", "0.5", "--n", "170"],
    "bounds-azuma": ["bounds", "azuma", "--t", "1", "--b", "1,1"],
    "bounds-azuma-nan": ["bounds", "azuma", "--t", "nan", "--b", "1"],
    "bounds-azuma-b-inf": ["bounds", "azuma", "--t", "1", "--b", "1,inf"],
    "bounds-expected-embeddings": ["bounds", "expected-embeddings", "--n", "3",
                                   "--e-h", "3"],
    "bounds-expected-embeddings-overflow": ["bounds", "expected-embeddings", "--n", "200",
                                            "--e-h", "19900"],
    "bounds-expected-embeddings-digits": ["bounds", "expected-embeddings", "--n", "200",
                                          "--e-h", "0"],
    "bounds-expected-embeddings-n-0": ["bounds", "expected-embeddings", "--n", "0",
                                       "--e-h", "0"],
    "bounds-expected-embeddings-n-negative": ["bounds", "expected-embeddings", "--n", "-3",
                                              "--e-h", "0"],
    "bounds-density-decay": ["bounds", "density-decay", "--e-h", "4", "--n-pairs", "6",
                             "--steps", "2", "--m-star", "2"],
    "bounds-density-decay-digits": ["bounds", "density-decay", "--e-h", "4", "--n-pairs", "6",
                                    "--steps", "10000"],
    "bounds-dense-case": ["bounds", "dense-case", "--delta", "0.5", "--c", "100",
                          "--n", "8"],
    "bounds-dense-case-c-nan": ["bounds", "dense-case", "--delta", "0.5", "--c", "nan",
                                "--n", "8"],
    "bounds-dense-case-too-large": ["bounds", "dense-case", "--delta", "0.5", "--c", "100",
                                    "--n", "651"],
    "bounds-union-budget": ["bounds", "union-budget", "--n", "10"],
    "bounds-union-budget-digits": ["bounds", "union-budget", "--n", "2000"],
    "bounds-union-budget-log": ["bounds", "union-budget", "--n", "10", "--log-base", "2"],
    "bounds-union-budget-nan": ["bounds", "union-budget", "--n", "3", "--log-base", "nan"],
    "bounds-missing-name": ["bounds"],
    "ingest-check": ["ingest-check", "{tmp}/good.g6"],
    "ingest-check-strict": ["ingest-check", "{tmp}/bad.g6"],
    "ingest-check-skip-bad": ["ingest-check", "{tmp}/bad.g6", "--skip-bad"],
    "ingest-check-missing": ["ingest-check", "{tmp}/missing.g6"],
    "record-unwritable": ["--record", "{tmp}/no-dir/runs.jsonl", "polya", "--n", "3"],
    "unknown-command": ["no-such-command"],
    "no-command": [],
}

_STAMP = re.compile(r'"(started_at|finished_at)":[-+.0-9eE]+')


def run_case(argv: list[str], record: bool) -> dict[str, object]:
    """One in-process invocation; what it printed, returned and wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in INPUTS.items():
            Path(tmp, name).write_text(text)
        args = [arg.replace("{tmp}", tmp) for arg in argv]
        if record:
            args = ["--record", f"{tmp}/runs.jsonl", *args]
        out, err = io.StringIO(), io.StringIO()
        result: dict[str, object] = {}
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result["exit"] = main(args)
            except SystemExit as exc:
                result["exit"] = exc.code
            except Exception as exc:  # an escaped exception is a traceback and exit 1
                result["exit"], result["raised"] = 1, type(exc).__name__
        result["stdout"], result["stderr"] = out.getvalue(), err.getvalue()
        for path in sorted(Path(tmp).iterdir()):
            if path.name not in INPUTS:
                result[f"file:{path.name}"] = _STAMP.sub(r'"\1":0', path.read_text())
        return json.loads(json.dumps(result).replace(tmp, "{tmp}"))


def capture() -> dict[str, dict[str, object]]:
    return {case: {"argv": argv, "plain": run_case(argv, False),
                   "recorded": run_case(argv, True)}
            for case, argv in CASES.items()}


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, object]]:
    return json.loads(GOLDEN.read_text())


def test_golden_lists_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("record", [False, True], ids=["plain", "recorded"])
@pytest.mark.parametrize("case", list(CASES))
def test_cli_matches_golden(golden, case, record):
    assert golden[case]["argv"] == CASES[case]
    assert run_case(CASES[case], record) == golden[case]["recorded" if record else "plain"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
