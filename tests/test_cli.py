"""cli-harness: subcommand surfaces, records, determinism, corpus ingestion."""
from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from uniquesub import census, cli, embedding, ingest_corpus, parallel, process
from uniquesub.cli import main
from uniquesub.errors import Graph6Error
from uniquesub.switching import RefinementResult


# sha256 of ``enumerate --n 8 --out``, as perfbench/workloads.py pins it.
CENSUS8_SHA256 = "cb8f7a3f9e37e055c4555501c61cb2487ff4e2d1f5287b8510c5a2435c942d28"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerateCommand:
    def test_eleven_lines_at_four(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "4")
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 11

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "g5.g6"
        code, out, _ = run_cli(capsys, "enumerate", "--n", "5", "--out", str(target))
        assert code == 0
        assert json.loads(out)["count"] == 34
        assert len(target.read_text().strip().splitlines()) == 34

    def test_out_of_range_exits_two(self, capsys):
        for n in ("10", "11"):
            code, _, err = run_cli(capsys, "enumerate", "--n", n)
            assert code == 2
            assert json.loads(err)["error"] == {
                "type": "DomainError", "message": f"enumeration supports 1..9 vertices, got {n}"}


class TestPolyaCommand:
    def test_ratio_fields(self, capsys):
        code, out, _ = run_cli(capsys, "polya", "--n", "4")
        payload = json.loads(out)
        assert code == 0
        assert payload["unlabelled_count"] == 11
        assert payload["ratio"] == 4.125
        assert payload["ratio_exact"] == {"num": 33, "den": 8}

    def test_order_ten_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "polya", "--n", "10")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "DomainError"


class TestFCommands:
    def test_f_exact_table_contains_triangle_value(self, capsys):
        code, out, _ = run_cli(capsys, "f-exact", "--n", "3")
        payload = json.loads(out)
        assert code == 0
        triangle = [row for row in payload["table"] if row["h_g6"] == "Bw"]
        assert triangle and triangle[0]["f"] == 1.5
        assert payload["max"]["f"] == 2.25

    def test_f_of_h(self, capsys):
        code, out, _ = run_cli(capsys, "f-of-h", "--g6", "Bw")
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 2
        assert payload["f_exact"] == {"num": 3, "den": 2}

    def test_spanning_flag(self, capsys):
        _, out, _ = run_cli(capsys, "f-of-h", "--g6", "Bw", "--spanning")
        assert json.loads(out)["universe"] == "spanning"

    def test_guard_exits_two(self, capsys):
        for spanning in ([], ["--spanning"]):
            code, out, err = run_cli(capsys, "f-of-h", "--g6", "I????????", *spanning)
            assert code == 2 and out == ""
            assert json.loads(err)["error"] == {
                "type": "DomainError", "message": "enumeration supports 1..9 vertices, got 10"}

    def test_order_eight_needs_no_override(self, capsys):
        code, out, _ = run_cli(capsys, "f-of-h", "--g6", "G?????")
        assert code == 0 and json.loads(out)["count"] == 1
        with pytest.raises(SystemExit) as exc:
            main(["f-of-h", "--g6", "G?????", "--allow-large"])
        assert exc.value.code == 2


class TestStochasticCommands:
    def test_estimate_reports_seed_when_omitted(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--g6", "Bw", "--trials", "20")
        payload = json.loads(out)
        assert code == 0 and isinstance(payload["seed"], int)

    def test_estimate_replay_identical(self, capsys):
        _, first, _ = run_cli(capsys, "estimate", "--g6", "Bw", "--trials", "30",
                              "--seed", "99")
        _, second, _ = run_cli(capsys, "estimate", "--g6", "Bw", "--trials", "30",
                               "--seed", "99")
        assert first == second

    def test_estimate_thread_count_does_not_change_payload(self, capsys):
        _, serial, _ = run_cli(capsys, "--threads", "1", "estimate", "--g6", "D?{",
                               "--trials", "64", "--seed", "5")
        _, parallel, _ = run_cli(capsys, "--threads", "2", "estimate", "--g6", "D?{",
                                 "--trials", "64", "--seed", "5")
        assert serial == parallel

    def test_process_lines(self, capsys):
        code, out, _ = run_cli(capsys, "process", "--g6", "D?{", "--traces", "3",
                               "--seed", "7", "--L", "1.0")
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 0 and len(lines) == 3
        assert all(line["seed"] == 7 for line in lines)
        assert [line["trace_index"] for line in lines] == [0, 1, 2]

    def test_process_scan_contains_full_trajectory(self, capsys):
        _, out, _ = run_cli(capsys, "process", "--g6", "C~", "--traces", "1",
                            "--seed", "3", "--scan-all")
        line = json.loads(out.strip().splitlines()[0])
        assert [m for m, _ in line["probes"]] == list(range(7))
        assert line["probes"][0][1] == 24  # empty pattern embeds every way
        assert line["probes"][6][1] == 24  # complete pattern into complete host

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_process_scan_refuses_ten_vertices_before_any_search(self, capsys, monkeypatch,
                                                                 pools, threads):
        def refuse(*args, **kwargs):
            raise AssertionError("a search ran")

        monkeypatch.setattr(process, "count_embeddings", refuse)
        code, out, err = run_cli(capsys, "--threads", threads, "process", "--g6", "I~~~~~~~w",
                                 "--traces", "2", "--seed", "1", "--scan-all")
        assert code == 2 and out == "" and pools == []
        assert json.loads(err)["error"] == {
            "type": "DomainError",
            "message": "--scan-all supports hosts of 1..9 vertices, got 10: "
                       "step 0 alone has n! embeddings to count"}

    def test_record_replay_bit_identical(self, capsys, tmp_path):
        record = tmp_path / "runs.jsonl"
        run_cli(capsys, "--record", str(record), "estimate", "--g6", "Bw",
                "--trials", "25", "--seed", "123")
        run_cli(capsys, "--record", str(record), "estimate", "--g6", "Bw",
                "--trials", "25", "--seed", "123")
        rows = [json.loads(line) for line in record.read_text().splitlines()]
        assert len(rows) == 2
        assert rows[0]["payload"] == rows[1]["payload"]
        assert rows[0]["seed"] == 123
        assert rows[0]["version"]
        assert rows[0]["params"] == {"g6": "Bw", "trials": 25, "seed": 123}

    def test_record_captures_generated_seed(self, capsys, tmp_path):
        record = tmp_path / "auto.jsonl"
        _, out, _ = run_cli(capsys, "--record", str(record), "estimate", "--g6", "Bw",
                            "--trials", "5")
        row = json.loads(record.read_text())
        assert row["seed"] == json.loads(out)["seed"]


def count_calls(monkeypatch, name, *modules):
    """Wrap ``name`` in each module with one shared call counter."""
    calls = []
    for mod in modules:
        def counted(*args, _fn=getattr(mod, name), **kwargs):
            calls.append(name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    return calls


class TestOnePathPerCommand:
    def test_work_units_parse_their_host_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "parse_graph6", cli)
        cli._host.cache_clear()
        wins = sum(cli._estimate_trial(("Gyh|^k", 1, i)) for i in range(6000))
        cli._process_one(("Gyh|^k", 1, 0, 0.5, False))
        assert calls == ["parse_graph6"]
        assert wins == 109  # as when every trial parsed the host

    def test_f_exact_guard_runs_before_any_f_value(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "f_of_h", cli, embedding)
        code, _, err = run_cli(capsys, "f-exact", "--n", "8")
        assert code == 2 and json.loads(err)["error"]["type"] == "DomainError"
        assert calls == []

    def test_f_exact_computes_each_f_value_once(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "f_of_h", cli, embedding)
        code, out, _ = run_cli(capsys, "f-exact", "--n", "4")
        assert code == 0 and len(json.loads(out)["table"]) == 11
        assert len(calls) == 11

    def test_process_locates_each_interval_once(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "uniqueness_interval", cli, process)
        code, _, _ = run_cli(capsys, "--threads", "1", "process", "--g6", "D?{",
                             "--traces", "3", "--seed", "7", "--L", "1.0")
        assert code == 0 and len(calls) == 3

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("argv", [
        ("estimate", "--g6", "C~", "--trials", "0", "--seed", "1"),
        ("process", "--g6", "C~", "--traces", "-3", "--seed", "1"),
    ], ids=["trials-0", "traces-minus-3"])
    def test_counts_must_be_positive(self, capsys, threads, argv):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", threads, *argv])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "positive integer" in err and "Traceback" not in err

    @pytest.mark.parametrize("cores, trials, workers", [(3, 64, 3), (64, 20, 5)])
    def test_pool_is_capped_by_cores_and_items(self, capsys, monkeypatch, pools, cores,
                                               trials, workers):
        """``--threads 64`` gets no more workers than cores, nor than a quarter
        of the items."""
        argv = ("estimate", "--g6", "D?{", "--trials", str(trials), "--seed", "5")
        _, serial, _ = run_cli(capsys, "--threads", "1", *argv)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: cores)
        _, pooled, _ = run_cli(capsys, "--threads", "64", *argv)
        assert pools == [workers]
        assert pooled == serial

    def test_pool_defaults_to_all_cores(self, capsys, monkeypatch, pools):
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 3)
        code, _, _ = run_cli(capsys, "estimate", "--g6", "D?{", "--trials", "64", "--seed", "5")
        assert code == 0 and pools == [3]

    def test_enumerate_pool_defaults_to_all_cores(self, capsys, monkeypatch, pools,
                                                  fresh_census):
        # Level 6 goes on the map here so that the test need not build level 8;
        # its 34 parents allow 8 workers, so the 3 cores cap the pool.
        _, serial, _ = run_cli(capsys, "enumerate", "--n", "6")
        census._census.cache_clear()
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(census, "POOL_MIN_N", 6)
        code, pooled, _ = run_cli(capsys, "enumerate", "--n", "6")
        assert code == 0 and pools == [3]
        assert pooled == serial

    def test_census_below_eight_starts_no_pool(self, capsys, monkeypatch, pools, fresh_census):
        # On two cores level 7 took 313-339 ms in one process against 296 ms
        # on two workers: too close to pay for the pool.
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 3)
        code, out, _ = run_cli(capsys, "enumerate", "--n", "7")
        assert code == 0 and len(out.splitlines()) == 1044
        assert pools == []

    def test_enumerate_file_is_thread_invariant(self, capsys, tmp_path):
        """The n=8 census written at one thread and at two is the same file:
        the one the benchmark's census8 workload pins.  The memo is left
        holding the levels built last."""
        digests = set()
        for threads in ("1", "2"):
            census._census.cache_clear()
            target = tmp_path / f"g8-{threads}.g6"
            code, _, _ = run_cli(capsys, "--threads", threads, "enumerate", "--n", "8",
                                 "--out", str(target))
            assert code == 0
            digests.add(hashlib.sha256(target.read_bytes()).hexdigest())
        assert digests == {CENSUS8_SHA256}


class TestSwitchCommands:
    def test_switch_payload(self, capsys):
        code, out, _ = run_cli(capsys, "switch", "--hc", "C`", "--g", "C~",
                               "--pi", "0,1,2,3")
        payload = json.loads(out)
        assert code == 0
        assert payload["pi_is_embedding"] is True
        assert payload["switch"] == [0, 1]
        assert payload["switched_pi"] == [1, 0, 2, 3]

    def test_switch_restricted_pairs(self, capsys):
        _, out, _ = run_cli(capsys, "switch", "--hc", "C`", "--g", "C~",
                            "--pi", "0,1,2,3", "--pairs", "2,3")
        assert json.loads(out)["switch"] == [2, 3]

    @pytest.mark.parametrize("pairs", ["", "2"])
    def test_pair_free_vertex_set_has_no_switch(self, capsys, pairs):
        # the empty set restricts the scan like any other, to no pair at all
        code, out, _ = run_cli(capsys, "switch", "--hc", "C`", "--g", "C~",
                               "--pi", "0,1,2,3", "--pairs", pairs)
        payload = json.loads(out)
        assert code == 0 and payload["switch"] is None and "switched_pi" not in payload

    @pytest.mark.parametrize("pairs, vertex", [("0,1,5", 5), ("0,1,-1", -1), ("1,5", 5)])
    def test_out_of_range_pair_member_exits_two(self, capsys, pairs, vertex):
        # (0, 1) is a switch on A_, found before the scan reached the bad pair
        code, out, err = run_cli(capsys, "switch", "--hc", "A_", "--g", "A_",
                                 "--pi", "0,1", "--pairs", pairs)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError" and f"vertex {vertex} " in error["message"]

    def test_refine_t(self, capsys):
        code, out, _ = run_cli(capsys, "refine-t", "--hc", "C`", "--c", "1",
                               "--schedule", "1.0")
        payload = json.loads(out)
        assert code == 0
        assert payload["b_prime"] == [0, 2]
        assert payload["depth"] in (0, 1)

    def test_empty_schedule_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "refine-t", "--hc", "C`", "--c", "1",
                                 "--schedule", "")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {"message": "threshold schedule must be non-empty",
                                            "type": "DomainError"}


class TestBoundsCommand:
    def test_azuma_payload(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "azuma", "--t", "1", "--b", "1,1")
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["bound"] - 0.36787944117144233) < 1e-15

    def test_chernoff(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "chernoff-l", "--delta", "0.5", "--n", "6")
        payload = json.loads(out)
        assert payload["L"] == 1
        assert payload["exact_tail"] == {"num": 1, "den": 1024}

    def test_density_decay(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "density-decay", "--e-h", "4",
                            "--n-pairs", "6", "--steps", "2", "--m-star", "2")
        payload = json.loads(out)
        assert payload["loose"] == {"num": 4, "den": 9}
        assert payload["sharp"] == {"num": 1, "den": 4}

    def test_digit_limit_is_exact(self, capsys):
        # the tail's denominator has 4,273 digits at n = 169 and 4,322 at n = 170
        code, out, _ = run_cli(capsys, "bounds", "chernoff-l", "--delta", "0.5", "--n", "169")
        assert code == 0
        assert len(str(json.loads(out)["exact_tail"]["den"])) <= 4300
        code, _, err = run_cli(capsys, "bounds", "chernoff-l", "--delta", "0.5", "--n", "170")
        assert code == 2
        assert json.loads(err)["error"]["message"].startswith("--n 170:")


    # Each value here is far past the 4,300-digit limit: the command refuses it
    # from a closed-form digit bound and never builds it.
    @pytest.mark.parametrize("evaluator, argv, option", [
        ("expected_embeddings", ["expected-embeddings", "--n", "10000", "--e-h", "0"],
         "--n 10000"),
        ("expected_embeddings", ["expected-embeddings", "--n", "40000", "--e-h", "0"],
         "--n 40000"),
        ("expected_embeddings", ["expected-embeddings", "--n", "1000000", "--e-h", "0"],
         "--n 1000000"),
        ("union_budget", ["union-budget", "--n", "300000"], "--n 300000"),
        ("binomial_point_mass_max", ["binom-point-mass", "--n-pairs", "10000000"],
         "--n-pairs 10000000"),
        ("density_decay_bound", ["density-decay", "--e-h", "1", "--n-pairs", "3", "--steps",
                                 "10000000"], "--steps 10000000"),
        # past the float range, where the digit bound itself overflows
        ("binomial_point_mass_max", ["binom-point-mass", "--n-pairs", str(10 ** 400)],
         f"--n-pairs {10 ** 400}"),
    ])
    def test_oversize_value_is_refused_unbuilt(self, capsys, monkeypatch, evaluator, argv,
                                               option):
        def unbuilt(*args):
            raise AssertionError(f"{evaluator} ran")

        monkeypatch.setattr(cli.bounds_mod, evaluator, unbuilt)
        code, out, err = run_cli(capsys, "bounds", *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {
            "type": "DomainError",
            "message": f"{option}: the exact value has more than "
                       f"{sys.get_int_max_str_digits()} digits, past Python's limit on "
                       f"printing integers"}

    def test_unit_base_is_printable_at_any_step_count(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "density-decay", "--e-h", "3", "--n-pairs", "3",
                               "--steps", str(10 ** 400))
        assert code == 0 and json.loads(out)["loose"] == {"num": 1, "den": 1}

    def test_no_digit_limit_refuses_nothing(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        monkeypatch.setattr(cli.bounds_mod, "union_budget", lambda n, log_base: 1 / n)
        code, out, _ = run_cli(capsys, "bounds", "union-budget", "--n", "300000")
        assert code == 0 and json.loads(out)["exact"] == 1 / 300000

    @pytest.mark.parametrize("argv, message", [
        (["expected-embeddings", "--n", "100000", "--e-h", "-1"],
         "edge count -1 outside 0..4999950000"),
        (["density-decay", "--e-h", "4", "--n-pairs", "3", "--steps", "10000000"],
         "edge count outside 0..total"),
        (["density-decay", "--e-h", "1", "--n-pairs", "3", "--steps", "10000000",
          "--m-star", "2"], "m_star must lie in 0..e_h"),
    ])
    def test_invalid_input_keeps_its_error(self, capsys, argv, message):
        code, _, err = run_cli(capsys, "bounds", *argv)
        assert code == 2 and json.loads(err)["error"]["message"] == message

    def test_values_near_the_limit_are_built(self, capsys):
        # the largest printable sizes: 14,294 trials and 1,716 vertices
        for argv in (["binom-point-mass", "--n-pairs", "14294"], ["union-budget", "--n", "1716"]):
            code, _, _ = run_cli(capsys, "bounds", *argv)
            assert code == 0
        code, _, err = run_cli(capsys, "bounds", "binom-point-mass", "--n-pairs", "14295")
        assert code == 2 and "more than" in json.loads(err)["error"]["message"]


class TestIngest:
    def test_round_trip_through_enumerate(self, capsys, tmp_path):
        corpus = tmp_path / "n5.g6"
        run_cli(capsys, "enumerate", "--n", "5", "--out", str(corpus))
        code, out, _ = run_cli(capsys, "ingest-check", str(corpus))
        assert code == 0 and json.loads(out)["graphs"] == 34

    def test_bad_line_strict(self, capsys, tmp_path):
        corpus = tmp_path / "bad.g6"
        corpus.write_text("Bw\nB\nBw\n")
        code, _, err = run_cli(capsys, "ingest-check", str(corpus))
        assert code == 2
        message = json.loads(err)["error"]["message"]
        assert message == "line 2: body needs 1 bytes, found 0 (byte offset 1)"
        assert message.count("(byte offset") == 1

    def test_bad_line_skipped(self, capsys, tmp_path):
        corpus = tmp_path / "bad.g6"
        corpus.write_text("Bw\nB\nBw\n")
        code, out, _ = run_cli(capsys, "ingest-check", str(corpus), "--skip-bad")
        payload = json.loads(out)
        assert code == 0
        assert payload["graphs"] == 2
        assert payload["bad_lines"] == [[2, "body needs 1 bytes, found 0 (byte offset 1)"]]

    def test_ingest_corpus_api(self, tmp_path):
        corpus = tmp_path / "ok.g6"
        corpus.write_text("@\nA_\n")
        rows = list(ingest_corpus(str(corpus)))
        assert [lineno for lineno, _, _ in rows] == [1, 2]
        with pytest.raises(Graph6Error):
            corpus.write_text("@\nZZZZ~~\n")
            list(ingest_corpus(str(corpus)))


@pytest.mark.parametrize("argv", [
    ("process", "--g6", "Gyh|^k", "--traces", "1", "--seed", "1", "--L", "inf"),
    ("--threads", "2", "process", "--g6", "Gyh|^k", "--traces", "16", "--seed", "1",
     "--L", "inf"),
    ("process", "--g6", "D?{", "--traces", "1", "--seed", "1", "--L", "nan"),
    ("refine-t", "--hc", "C`", "--c", "inf"),
    ("refine-t", "--hc", "C`", "--c", "nan"),
    ("refine-t", "--hc", "C`", "--c", "1", "--schedule", "inf"),
    ("bounds", "azuma", "--t", "nan", "--b", "1"),
    ("bounds", "union-budget", "--n", "3", "--log-base", "nan"),
], ids=["L-inf", "L-inf-pool", "L-nan", "c-inf", "c-nan", "schedule-inf", "azuma-nan",
        "union-budget-nan"])
def test_non_finite_input_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "DomainError" and "finite" in error["message"]


def _nan_refinement(hc, b_prime, schedule):
    return RefinementResult(t=(), steps=(), depth=0, final_threshold=float("inf"),
                            depth_exceeded=False)


# The library now refuses non-finite inputs itself, so each case stubs the function
# behind a command to return a non-finite value and reach the guard in ``dumps``.
@pytest.mark.parametrize("target, stub, argv", [
    ("azuma_tail", lambda t, influences: float("nan"),
     ("bounds", "azuma", "--t", "1", "--b", "1")),
    ("union_budget", lambda n, log_base: float("nan"),
     ("bounds", "union-budget", "--n", "3", "--log-base", "2")),
    ("refine_t", _nan_refinement, ("refine-t", "--hc", "C`", "--c", "1", "--schedule", "1")),
], ids=["azuma-nan", "union-budget-nan", "schedule-inf"])
def test_non_json_payload_exits_two_and_prints_nothing(capsys, tmp_path, monkeypatch,
                                                       target, stub, argv):
    monkeypatch.setattr(cli.bounds_mod if target != "refine_t" else cli, target, stub)
    record = tmp_path / "runs.jsonl"
    code, out, err = run_cli(capsys, "--record", str(record), *argv)
    assert code == 2 and out == "" and not record.exists()
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_missing_corpus_file_exits_two(capsys):
    code, _, err = run_cli(capsys, "ingest-check", "/nonexistent/corpus.g6")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "FileNotFoundError"


def test_malformed_permutation_exits_two(capsys):
    code, _, err = run_cli(capsys, "switch", "--hc", "C`", "--g", "C~", "--pi", "a,b,c,d")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_replay_identical_across_processes():
    import subprocess
    import sys
    argv = [sys.executable, "-m", "uniquesub.cli", "estimate", "--g6", "D?{",
            "--trials", "50", "--seed", "31415"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout and first.stdout


def test_cli_import_leaves_scipy_unloaded():
    # Each command imports only what it runs: numpy (about 0.15 s) only where it
    # samples, for estimate's interval scipy.special, never the 1 s scipy.stats,
    # mpmath (about 40 ms) only where a bound builds an mpmath value, and the
    # process pool (about 27 ms) only where a map starts one.
    # Each check runs in a fresh interpreter.
    import subprocess
    import sys
    report = ("print(sorted(m for m in ('mpmath', 'numpy', 'scipy', 'scipy.special',"
              " 'scipy.stats', 'multiprocessing', 'concurrent.futures.process')"
              " if m in sys.modules))")
    cases = [
        (None, []),
        (["bounds", "union-budget", "--n", "2"], []),
        (["bounds", "union-budget", "--n", "2", "--log-base", "2"], ["mpmath"]),
        (["enumerate", "--n", "4"], []),
        (["f-exact", "--n", "3"], []),
        (["--threads", "1", "estimate", "--g6", "Bw", "--trials", "30", "--seed", "1"],
         ["numpy", "scipy", "scipy.special"]),
    ]
    for argv, loaded in cases:
        run_main = "" if argv is None else f"main({argv!r}); "
        code = f"import sys; from uniquesub.cli import main; {run_main}{report}"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                             text=True)
        assert run.stdout.splitlines()[-1] == repr(loaded), argv


_PREFORK_SCRIPT = """
import sys

from uniquesub.cli import _sampling_map
from uniquesub.parallel import parallel_map


def numpy_loaded(_):
    return "numpy" in sys.modules


if __name__ == "__main__":
    print(list(parallel_map(numpy_loaded, range(16), threads=2)))
    print(list(_sampling_map(numpy_loaded, range(16), threads=2)))
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="the pool needs two cores")
def test_pool_workers_inherit_numpy(tmp_path):
    # The sampling work units' map loads numpy before the pool forks, so no
    # worker imports it again; the library map alone loads nothing.
    import subprocess
    import sys
    script = tmp_path / "prefork.py"
    script.write_text(_PREFORK_SCRIPT)
    run = subprocess.run([sys.executable, str(script)], capture_output=True, check=True,
                         text=True, timeout=120)
    assert run.stdout.splitlines() == [repr([False] * 16), repr([True] * 16)]


_POOLED_CENSUS_SCRIPT = """
import os
import sys

from uniquesub import census
from uniquesub.cli import main

children = census._children


def reporting_children(work):
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()} {'numpy' in sys.modules}\\n")
    return children(work)


if __name__ == "__main__":
    census._children = reporting_children
    census.POOL_MIN_N = 6  # level 6 on the map, as level 8 would be
    main(["--threads", "2", "enumerate", "--n", "6"])
    print(os.getpid(), "numpy" in sys.modules)
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="the pool needs two cores")
def test_pooled_census_loads_no_numpy(tmp_path):
    # numpy costs about 0.19 s and 14 MB of RSS per process: a census worker
    # inherits the parent's modules and must find numpy in neither.
    import subprocess
    import sys
    script = tmp_path / "census_pool.py"
    script.write_text(_POOLED_CENSUS_SCRIPT)
    log = tmp_path / "units.txt"
    run = subprocess.run([sys.executable, str(script), str(log)], capture_output=True,
                         check=True, text=True, timeout=120)
    lines = run.stdout.splitlines()
    assert len(lines) == 157  # 156 graph6 lines, then the parent's report
    parent, parent_numpy = lines[-1].split()
    units = [line.split() for line in log.read_text().splitlines()]
    # Levels 2-5 run their 1 + 2 + 4 + 11 units here, level 6 its 34 in workers.
    assert [pid == parent for pid, _ in units] == [True] * 18 + [False] * 34
    assert parent_numpy == "False" and {numpy for _, numpy in units} == {"False"}
