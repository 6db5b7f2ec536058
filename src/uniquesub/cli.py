"""Single command-line harness exposing every module.

Each subcommand returns its payload and ``main`` alone writes it: JSON on
stdout (graph6 lines for ``enumerate``) and exit 0.  Usage and precondition
problems, and payloads holding NaN, infinities or values beyond the float
range, exit 2 with a structured error object on stderr.  ``--record``
appends one JSON line per run with the full parameter set, seed, timestamps
and payload, before the payload is printed, so a run whose record cannot be
written prints nothing and exits 2.  Replaying a recorded stochastic command
with its seed reproduces the payload byte for byte.

A module that only some commands use (``bounds``, ``switching``, and
``secrets``, which loads OpenSSL) is imported inside those commands, so
the others do not pay for loading it.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Sequence

from . import __version__
from .canon import canon_graph6
from .census import MAX_ENUMERATION_N, census_entries, nontrivial_aut_fraction, polya_report
from .embedding import (ALL_SIZES, SPANNING_ONLY, estimate_unique_prob, f_max, f_of_h, f_table,
                        unique_trial)
from .errors import DomainError, UniquesubError
from .graphs import VertexMap, emit_graph6, ingest_corpus, parse_graph6
from .process import run_traces, trace_record
# Not called here; the benchmark's traced run (perfbench/tracing.py) wraps these names.
from .embedding import count_embeddings, f_max_exact  # noqa: F401
from .process import sample_trace, uniqueness_interval, x_statistic  # noqa: F401
from .sampling import derive_rng, gnp_half  # noqa: F401

if TYPE_CHECKING:
    from .bounds import BoundReport


def jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    mpmath = sys.modules.get("mpmath")  # only a bound built with mpmath loads it
    if mpmath is not None and isinstance(value, mpmath.mpf):
        return float(value)
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def dumps(payload: Any) -> str:
    return json.dumps(jsonable(payload), sort_keys=True, separators=(",", ":"), allow_nan=False)


def _universe(args: argparse.Namespace) -> str:
    return SPANNING_ONLY if args.spanning else ALL_SIZES


def _need_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    import secrets  # deferred: it loads OpenSSL, and a seeded run needs none
    return secrets.randbits(63)


def _tokens(text: str) -> list[str]:
    """The items of a comma-separated option; an empty option has none."""
    return text.split(",") if text else []


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _cmd_enumerate(args: argparse.Namespace) -> dict[str, Any]:
    lines = [canon_graph6(canon_bytes) for canon_bytes, _ in census_entries(args.n, args.threads)]
    payload = {"n": args.n, "count": len(lines), "graphs": lines}
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        payload["out"] = args.out
    return payload


def _render_enumerate(payload: dict[str, Any]) -> str:
    """The graph6 lines, or with ``--out`` a summary of the file written."""
    if "out" in payload:
        return dumps({k: payload[k] for k in ("n", "count", "out")})
    return "\n".join(payload["graphs"])


def _cmd_polya(args: argparse.Namespace) -> dict[str, Any]:
    census_entries(args.n, args.threads)  # builds the census on --threads workers
    rep = polya_report(args.n)
    frac = nontrivial_aut_fraction(args.n)
    return {
        "n": rep.n,
        "unlabelled_count": rep.unlabelled_count,
        "polya_estimate": rep.polya_estimate,
        "ratio": float(rep.ratio),
        "ratio_exact": rep.ratio,
        "nontrivial_aut_fraction": float(frac),
    }


def _f_entry(fv) -> dict[str, Any]:
    return {
        "h_g6": emit_graph6(fv.h).decode(),
        "universe": fv.universe,
        "count": fv.unique_count,
        "denominator": fv.denominator,
        "f": float(fv.f),
        "f_exact": fv.f,
    }


def _cmd_f_exact(args: argparse.Namespace) -> dict[str, Any]:
    universe = _universe(args)
    table = f_table(args.n, universe)
    best = _f_entry(f_max(table))
    return {"n": args.n, "universe": universe, "table": [_f_entry(fv) for fv in table],
            "max": best, "argmax_g6": best["h_g6"]}


def _cmd_f_of_h(args: argparse.Namespace) -> dict[str, Any]:
    h = parse_graph6(args.g6)
    census_entries(h.n, args.threads)  # builds the census on --threads workers
    return _f_entry(f_of_h(h, _universe(args)))


# The benchmark's in-process pass (perfbench/workloads.py) runs one trial or
# trace at a time through these two names.
def _estimate_trial(work: tuple[str, int, int]) -> bool:
    h_g6, seed, index = work
    return unique_trial(parse_graph6(h_g6), seed, index)


def _process_one(work: tuple[str, int, int, float | None, bool]) -> dict[str, Any]:
    h_g6, seed, index, L, scan_all = work
    return trace_record(parse_graph6(h_g6), seed, L, scan_all, index)


def _cmd_estimate(args: argparse.Namespace) -> dict[str, Any]:
    h = parse_graph6(args.g6)
    rep = estimate_unique_prob(h, args.trials, _need_seed(args), args.threads)
    return {
        "h_g6": args.g6,
        "universe": "labelled-gnp-half",
        "count": rep.successes,
        "denominator": rep.trials,
        "f": rep.estimate,
        "seed": rep.seed,
        "ci": [rep.ci_low, rep.ci_high],
    }


def _cmd_process(args: argparse.Namespace) -> dict[str, Any]:
    h = parse_graph6(args.g6)
    seed = _need_seed(args)
    records = run_traces(h, args.traces, seed, args.L, args.scan_all, args.threads)
    return {"h_g6": args.g6, "seed": seed, "traces": records}


def _render_process(payload: dict[str, Any]) -> str:
    return "\n".join(dumps(rec) for rec in payload["traces"])


def _cmd_switch(args: argparse.Namespace) -> dict[str, Any]:
    from .switching import (SwitchContext, apply_switch, find_switch, is_embedding,
                            required_pairs, switch_probability)
    hc = parse_graph6(args.hc)
    g = parse_graph6(args.g)
    pi = VertexMap(hc.n, hc.n, tuple(int(tok) for tok in args.pi.split(",")))
    ctx = SwitchContext(hc, g, pi)
    members = None if args.pairs is None else [int(tok) for tok in _tokens(args.pairs)]
    found = find_switch(ctx, members)
    payload: dict[str, Any] = {
        "hc_g6": args.hc,
        "g_g6": args.g,
        "pi": list(pi.image),
        "pi_is_embedding": is_embedding(ctx),
        "switch": list(found) if found else None,
    }
    if found:
        payload["required_pairs"] = sorted(required_pairs(hc, pi, *found))
        payload["probability"] = switch_probability(hc, pi, *found)
        if payload["pi_is_embedding"]:
            payload["switched_pi"] = list(apply_switch(ctx, *found).image)
    return payload


def _cmd_refine_t(args: argparse.Namespace) -> dict[str, Any]:
    from .switching import classify_degrees, default_schedule, refine_t
    hc = parse_graph6(args.hc)
    dc = classify_degrees(hc, args.c)
    if args.schedule is not None:
        schedule = [float(tok) for tok in _tokens(args.schedule)]
    else:
        schedule = default_schedule(len(dc.b_prime), args.c)
    result = refine_t(hc, dc.b_prime, schedule)
    return {
        "hc_g6": args.hc,
        "c": args.c,
        "a": list(dc.a),
        "b_prime": list(dc.b_prime),
        "schedule": schedule,
        "t": list(result.t),
        "steps": [[v, thr] for v, thr in result.steps],
        "depth": result.depth,
        "final_threshold": result.final_threshold,
        "depth_exceeded": result.depth_exceeded,
    }


def _report_payload(report: BoundReport) -> dict[str, Any]:
    """Payload of the bounds that return a ``BoundReport``."""
    return {"name": report.name, "inputs": report.inputs, "exact": report.exact_value,
            "bound": report.bound_value, "slack": report.slack}


def _too_many_digits(option: str, given: int, limit: int) -> DomainError:
    return DomainError(f"{option} {given}: the exact value has more than {limit} digits, "
                       f"past Python's limit on printing integers")


def _check_printable(value: Fraction, option: str, given: int) -> None:
    """Refuse an exact value whose numerator or denominator Python will not print."""
    limit = sys.get_int_max_str_digits()
    if limit and max(abs(value.numerator), value.denominator) >= 10 ** limit:
        raise _too_many_digits(option, given, limit)


def _refuse_oversize(log10_low: Callable[[], float], option: str, given: int) -> None:
    """Refuse before evaluating when ``log10_low``, a lower bound on log10 of
    the exact value's numerator or denominator, passes Python's limit on
    printing integers by a whole digit; nearer the limit the value is built
    and ``_check_printable`` decides.  A bound past the float range
    (OverflowError) passes every limit."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    try:
        low = log10_low()
    except OverflowError:
        low = math.inf
    if low >= limit + 1:
        raise _too_many_digits(option, given, limit)


def _cmd_binom_point_mass(args: argparse.Namespace) -> dict[str, Any]:
    from . import bounds as bounds_mod
    _refuse_oversize(lambda: bounds_mod.binomial_point_mass_log10(args.n_pairs),
                     "--n-pairs", args.n_pairs)
    report = bounds_mod.binomial_point_mass_max(args.n_pairs)
    _check_printable(report.exact_value, "--n-pairs", args.n_pairs)
    return _report_payload(report)


def _cmd_chernoff_l(args: argparse.Namespace) -> dict[str, Any]:
    from . import bounds as bounds_mod
    level, tail = bounds_mod.chernoff_l(args.delta, args.n)
    _check_printable(tail, "--n", args.n)
    return {"name": "chernoff-l", "inputs": {"delta": args.delta, "n": args.n},
            "L": level, "exact_tail": tail, "bound": float(args.delta) / 4}


def _cmd_azuma(args: argparse.Namespace) -> dict[str, Any]:
    from . import bounds as bounds_mod
    influences = [float(tok) for tok in args.b.split(",")]
    return {"name": "azuma", "inputs": {"t": args.t, "b": influences},
            "bound": bounds_mod.azuma_tail(args.t, influences)}


def _cmd_expected_embeddings(args: argparse.Namespace) -> dict[str, Any]:
    from . import bounds as bounds_mod
    _refuse_oversize(lambda: bounds_mod.expected_embeddings_log10(args.n, args.e_h),
                     "--n", args.n)
    value = bounds_mod.expected_embeddings(args.n, args.e_h)
    _check_printable(value, "--n", args.n)
    return {"name": "expected-embeddings", "inputs": {"n": args.n, "e_h": args.e_h},
            "exact": value, "bound": float(value)}


def _cmd_density_decay(args: argparse.Namespace) -> dict[str, Any]:
    from . import bounds as bounds_mod
    _refuse_oversize(lambda: bounds_mod.density_decay_log10(args.e_h, args.n_pairs, args.steps,
                                                            args.m_star),
                     "--steps", args.steps)
    loose, sharp = bounds_mod.density_decay_bound(args.e_h, args.n_pairs, args.steps,
                                                  args.m_star)
    for value in (loose, sharp):
        _check_printable(value, "--steps", args.steps)
    return {"name": "density-decay",
            "inputs": {"e_h": args.e_h, "n_pairs": args.n_pairs, "steps": args.steps,
                       "m_star": args.m_star},
            "bound": float(loose), "loose": loose, "sharp": sharp}


def _cmd_dense_case(args: argparse.Namespace) -> dict[str, Any]:
    from . import bounds as bounds_mod
    payload = _report_payload(bounds_mod.dense_case_inequality(args.delta, args.c, args.n))
    payload["holds"] = payload["slack"] > 0
    return payload


def _cmd_union_budget(args: argparse.Namespace) -> dict[str, Any]:
    from . import bounds as bounds_mod
    if args.log_base is None:
        _refuse_oversize(lambda: bounds_mod.union_budget_log10(args.n), "--n", args.n)
    value = bounds_mod.union_budget(args.n, args.log_base)
    if args.log_base is None:
        _check_printable(value, "--n", args.n)
    return {"name": "union-budget", "inputs": {"n": args.n, "log_base": args.log_base},
            "bound": float(value), "exact": value if args.log_base is None else None}


def _cmd_ingest_check(args: argparse.Namespace) -> dict[str, Any]:
    graphs = 0
    bad: list[list[Any]] = []
    for lineno, g, err in ingest_corpus(args.path, skip_bad=args.skip_bad):
        if g is not None:
            graphs += 1
        else:
            bad.append([lineno, err])
    return {"path": args.path, "graphs": graphs, "bad_lines": bad, "skip_bad": args.skip_bad}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uniquesub",
        description="Exact and Monte-Carlo laboratory for unique-subgraph densities.")
    parser.add_argument("--record", metavar="PATH",
                        help="append an experiment record as one JSON line")
    parser.add_argument("--threads", type=_positive_int, default=None,
                        help="worker count, at most the core count (default: all cores)")
    parser.set_defaults(render=dumps)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream unlabelled graphs as graph6 lines")
    p.add_argument("--n", type=int, required=True, metavar=f"1..{MAX_ENUMERATION_N}")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(fn=_cmd_enumerate, render=_render_enumerate)

    p = sub.add_parser("polya", help="unlabelled count against the 2^N/n! estimate")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_polya)

    p = sub.add_parser("f-exact", help="exhaustive f table and maximum at order n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spanning", action="store_true")
    p.set_defaults(fn=_cmd_f_exact)

    p = sub.add_parser("f-of-h", help="unique-subgraph density of one host")
    p.add_argument("--g6", required=True)
    p.add_argument("--spanning", action="store_true")
    p.set_defaults(fn=_cmd_f_of_h)

    p = sub.add_parser("estimate", help="Monte-Carlo unique-embedding probability")
    p.add_argument("--g6", required=True)
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=_non_negative_int)
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("process", help="random graph process traces against a host")
    p.add_argument("--g6", required=True)
    p.add_argument("--traces", type=_positive_int, required=True)
    p.add_argument("--seed", type=_non_negative_int)
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--scan-all", action="store_true")
    p.set_defaults(fn=_cmd_process, render=_render_process)

    p = sub.add_parser("switch", help="find and verify a vertex switch")
    p.add_argument("--hc", required=True, metavar="G6")
    p.add_argument("--g", required=True, metavar="G6")
    p.add_argument("--pi", required=True, metavar="IMG,IMG,...")
    p.add_argument("--pairs", metavar="V,V,...",
                   help="restrict the scan to pairs within this vertex set")
    p.set_defaults(fn=_cmd_switch)

    p = sub.add_parser("refine-t", help="iterative neighbourhood refinement")
    p.add_argument("--hc", required=True, metavar="G6")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--schedule", metavar="T1,T2,...")
    p.set_defaults(fn=_cmd_refine_t)

    p = sub.add_parser("bounds", help="closed-form bound evaluators")
    bsub = p.add_subparsers(dest="bound_name", required=True)
    b = bsub.add_parser("binom-point-mass")
    b.add_argument("--n-pairs", type=int, required=True)
    b.set_defaults(fn=_cmd_binom_point_mass)
    b = bsub.add_parser("chernoff-l")
    b.add_argument("--delta", type=float, required=True)
    b.add_argument("--n", type=int, required=True)
    b.set_defaults(fn=_cmd_chernoff_l)
    b = bsub.add_parser("azuma")
    b.add_argument("--t", type=float, required=True)
    b.add_argument("--b", required=True, metavar="B1,B2,...")
    b.set_defaults(fn=_cmd_azuma)
    b = bsub.add_parser("expected-embeddings")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--e-h", type=int, required=True)
    b.set_defaults(fn=_cmd_expected_embeddings)
    b = bsub.add_parser("density-decay")
    b.add_argument("--e-h", type=int, required=True)
    b.add_argument("--n-pairs", type=int, required=True)
    b.add_argument("--steps", type=int, required=True)
    b.add_argument("--m-star", type=int, default=0)
    b.set_defaults(fn=_cmd_density_decay)
    b = bsub.add_parser("dense-case")
    b.add_argument("--delta", type=float, required=True)
    b.add_argument("--c", type=float, required=True)
    b.add_argument("--n", type=int, required=True)
    b.set_defaults(fn=_cmd_dense_case)
    b = bsub.add_parser("union-budget")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--log-base", type=float, default=None)
    b.set_defaults(fn=_cmd_union_budget)

    p = sub.add_parser("ingest-check", help="validate a graph6 corpus file")
    p.add_argument("path")
    p.add_argument("--skip-bad", action="store_true")
    p.set_defaults(fn=_cmd_ingest_check)

    return parser


def _record_run(args: argparse.Namespace, payload: dict[str, Any], started: float) -> None:
    """Append the run to ``--record``; a generated seed is read from the payload."""
    params = {k: v for k, v in vars(args).items()
              if k not in {"fn", "render", "record", "command"} and v is not None}
    record = {
        "command": args.command,
        "params": params,
        "seed": payload.get("seed"),
        "started_at": started,
        "finished_at": time.time(),
        "payload": payload,
        "version": __version__,
    }
    with open(args.record, "a") as fh:
        fh.write(dumps(record) + "\n")


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        payload = args.fn(args)
        text = args.render(payload)
        if args.record:
            _record_run(args, payload, started)
        print(text)
    except (UniquesubError, OSError, ValueError, OverflowError) as exc:
        err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(dumps(err), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
