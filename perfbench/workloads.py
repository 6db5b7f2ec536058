"""The benchmark's workloads: the CLI invocations of one workload run, the
checks on their outputs, and the same work run in-process for the traced run.

Every check returns ``None`` for a correct output or a one-line reason.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, ClassVar

# What the installed ``uniquesub`` console script runs.
UNIQUESUB = "from uniquesub.cli import main; raise SystemExit(main())"
SETUP_ARGV = ("bounds", "union-budget", "--n", "2")
SETUP_STDOUT = (b'{"bound":0.5,"exact":{"den":2,"num":1},'
                b'"inputs":{"log_base":null,"n":2},"name":"union-budget"}\n')
# Montecarlo payloads are pinned to the seed commit's bytes at this seed.
DEFAULT_SEED = 1


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Output:
    """What one CLI invocation produced."""

    argv: tuple[str, ...]
    returncode: int
    stdout: bytes
    stderr: bytes
    seconds: float


def check_setup(out: Output) -> str | None:
    return None if out.stdout == SETUP_STDOUT else "setup probe payload differs"


def _json_line(data: bytes) -> Any:
    try:
        return json.loads(data)
    except ValueError:
        return None


def _cli_in_process(argv: list[str]) -> tuple[int, bytes]:
    from uniquesub import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().encode()


def _census_then_cli(n: int, level: Callable[[int], Any], argv: list[str]) -> tuple[int, bytes]:
    """Build census levels 1..n through ``level``, each on the warm one below, then
    run the command, which finds the census already built."""
    for k in range(1, n + 1):
        level(k)
    return _cli_in_process(argv)


@dataclass(frozen=True)
class Census:
    """``uniquesub enumerate --n N --out FILE``: one line per isomorphism class."""

    name: str
    n: int
    classes: int
    out_sha256: str
    threads: ClassVar[int] = 1
    # Workload runs timed at least per benchmark run.  One takes 16-33 s, so a
    # 20 s run times one or two; a floor of two or more would not fit the
    # time a full set of benchmark runs may take.
    min_samples: ClassVar[int] = 1
    warmup_runs: ClassVar[int] = 0

    @property
    def units(self) -> int:
        return self.classes

    def _out(self, out_dir: Path) -> Path:
        return out_dir / f"{self.name}.g6"

    def clear(self, out_dir: Path) -> None:
        """Remove the file an earlier invocation wrote, so no check reads it."""
        self._out(out_dir).unlink(missing_ok=True)

    def argvs(self, seed: int, out_dir: Path, threads: int | None = None) -> list[tuple[str, ...]]:
        return [("enumerate", "--n", str(self.n), "--out", str(self._out(out_dir)))]

    def check_file(self, data: bytes) -> str | None:
        lines = data.count(b"\n")
        if lines != self.classes:
            return f"census has {lines} lines, expected {self.classes}"
        if sha256(data) != self.out_sha256:
            return "census file differs from the recorded table"
        return None

    def check(self, seed: int, out_dir: Path, outputs: list[Output]) -> list[str | None]:
        path = self._out(out_dir)
        head = _json_line(outputs[0].stdout)
        if (not isinstance(head, dict) or head.get("count") != self.classes
                or head.get("out") != str(path)):
            return ["enumerate summary line is wrong"]
        if not path.is_file():
            return ["enumerate wrote no census file"]
        return [self.check_file(path.read_bytes())]

    def run_in_process(self, seed: int, out_dir: Path, level: Callable[[int], Any],
                       cli_outputs: list[Output]) -> str | None:
        path = self._out(out_dir).with_suffix(".inproc.g6")
        path.unlink(missing_ok=True)
        code, _ = _census_then_cli(self.n, level,
                                   ["enumerate", "--n", str(self.n), "--out", str(path)])
        if code:
            return f"exit {code}"
        return self.check_file(path.read_bytes()) if path.is_file() else "no census file"


@dataclass(frozen=True)
class FExact:
    """``uniquesub f-exact --n N``: the f table over every host class, and its max."""

    name: str
    n: int
    classes: int
    stdout_sha256: str
    threads: ClassVar[int] = 1
    # One takes 3.5-7 s; the median of three or more leaves out a sample taken
    # in one of the machine's short slow spells.  The first run after the
    # benchmark starts was often the slowest, so one goes untimed.
    min_samples: ClassVar[int] = 3
    warmup_runs: ClassVar[int] = 1

    @property
    def units(self) -> int:
        return self.classes

    def argvs(self, seed: int, out_dir: Path, threads: int | None = None) -> list[tuple[str, ...]]:
        return [("f-exact", "--n", str(self.n))]

    def clear(self, out_dir: Path) -> None:
        """Nothing to remove: the payload is stdout."""

    def check_stdout(self, data: bytes) -> str | None:
        payload = _json_line(data)
        if not isinstance(payload, dict) or len(payload.get("table", ())) != self.classes:
            return f"f table does not have {self.classes} entries"
        if sha256(data) != self.stdout_sha256:
            return "f payload differs from the recorded table"
        return None

    def check(self, seed: int, out_dir: Path, outputs: list[Output]) -> list[str | None]:
        return [self.check_stdout(outputs[0].stdout)]

    def run_in_process(self, seed: int, out_dir: Path, level: Callable[[int], Any],
                       cli_outputs: list[Output]) -> str | None:
        code, stdout = _census_then_cli(self.n, level, ["f-exact", "--n", str(self.n)])
        return f"exit {code}" if code else self.check_stdout(stdout)


@dataclass(frozen=True)
class MonteCarlo:
    """``uniquesub estimate`` then ``uniquesub process --L`` on one host.

    The program seed is drawn from the workload seed; ``default_sha256``
    pins both payloads at ``DEFAULT_SEED``.
    """

    name: str
    host_g6: str
    trials: int
    traces: int
    L: float
    threads: int
    default_sha256: tuple[str, str]
    min_samples: ClassVar[int] = 3
    warmup_runs: ClassVar[int] = 1

    @property
    def units(self) -> int:
        return self.trials + self.traces

    def clear(self, out_dir: Path) -> None:
        """Nothing to remove: the payloads are stdout."""

    def program_seed(self, seed: int) -> int:
        return random.Random(seed).getrandbits(31)

    def argvs(self, seed: int, out_dir: Path, threads: int | None = None) -> list[tuple[str, ...]]:
        common = ("--threads", str(threads or self.threads))
        s = str(self.program_seed(seed))
        return [common + ("estimate", "--g6", self.host_g6, "--trials", str(self.trials),
                          "--seed", s),
                common + ("process", "--g6", self.host_g6, "--traces", str(self.traces),
                          "--seed", s, "--L", str(self.L))]

    def _check_estimate(self, seed: int, data: bytes) -> str | None:
        p = _json_line(data)
        if not isinstance(p, dict):
            return "estimate payload is not JSON"
        count = p.get("count")
        if (p.get("seed") != self.program_seed(seed) or p.get("denominator") != self.trials
                or not isinstance(count, int) or not 0 <= count <= self.trials
                or p.get("f") != count / self.trials):
            return "estimate payload is inconsistent"
        lo, hi = p["ci"]
        if not lo <= p["f"] <= hi:
            return "estimate lies outside its confidence interval"
        return None

    def _check_process(self, seed: int, data: bytes) -> str | None:
        lines = data.splitlines()
        if len(lines) != self.traces:
            return f"process printed {len(lines)} traces, expected {self.traces}"
        n = ord(self.host_g6[0]) - 63  # graph6 header byte, n <= 62
        total = n * (n - 1) // 2
        for i, line in enumerate(lines):
            rec = _json_line(line)
            if not isinstance(rec, dict) or rec.get("trace_index") != i:
                return f"trace {i} record is malformed"
            interval = rec["interval"]
            if interval is not None and not 0 <= interval[0] <= interval[1] <= total:
                return f"trace {i} interval is out of range"
            lo, hi = rec["window"]
            if not 0 <= rec["x"] <= max(0, hi - lo + 1) or (interval is None and rec["x"]):
                return f"trace {i} x statistic is inconsistent"
        return None

    def check(self, seed: int, out_dir: Path, outputs: list[Output]) -> list[str | None]:
        errors = [self._check_estimate(seed, outputs[0].stdout),
                  self._check_process(seed, outputs[1].stdout)]
        if seed == DEFAULT_SEED:
            for i, (out, want) in enumerate(zip(outputs, self.default_sha256)):
                if errors[i] is None and sha256(out.stdout) != want:
                    errors[i] = "payload differs from the seed commit's at the default seed"
        return errors

    def run_in_process(self, seed: int, out_dir: Path, level: Callable[[int], Any],
                       cli_outputs: list[Output]) -> str | None:
        """Run each trial and trace through the worker functions of the CLI pool."""
        from uniquesub import cli
        s = self.program_seed(seed)
        wins = sum(bool(cli._estimate_trial((self.host_g6, s, i))) for i in range(self.trials))
        records = [cli.dumps(cli._process_one((self.host_g6, s, i, self.L, False)))
                   for i in range(self.traces)]
        if wins != json.loads(cli_outputs[0].stdout)["count"]:
            return "in-process trial count differs from the CLI's"
        if "\n".join(records).encode() + b"\n" != cli_outputs[1].stdout:
            return "in-process traces differ from the CLI's"
        return None


WORKLOADS: dict[str, Census | FExact | MonteCarlo] = {
    # canon and census do nearly all the work; embedding, process and sampling none.
    "census8": Census("census8", n=8, classes=12346, out_sha256=(
        "cb8f7a3f9e37e055c4555501c61cb2487ff4e2d1f5287b8510c5a2435c942d28")),
    # embedding does the work; the n<=6 census is cheap, so canon is nearly bypassed.
    "fexact6": FExact("fexact6", n=6, classes=156, stdout_sha256=(
        "085c74761d2013ec3006237d55a5f99f2e72256d23e5f0e62c04362c324d9cc2")),
    # Dense host (20 edges, |Aut| = 1), so trials hit all three outcomes and
    # traces have non-empty uniqueness intervals; canon does no work.
    "montecarlo8": MonteCarlo("montecarlo8", host_g6="Gyh|^k", trials=6000,
                              traces=150, L=0.5, threads=2, default_sha256=(
        "e656dfd94960e19122ab749b49c7bb896e43574f0e1bd7c2e90f3cd61604fa0d",
        "07da66f9f7bc09ed6136a7ea4cf412d18385944e3085b2a9efcdf9f2d1441a4e")),
}
