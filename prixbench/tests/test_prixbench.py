"""Self-tests of the benchmark harness (``python -m pytest prixbench/tests``).

Not part of the repository's tier-1 ``testpaths``: they test the
benchmark, not the program.  Everything runs at ``--scale tiny``.
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys
import types

import pytest

from prixbench import BENCH_DIR, REPO_ROOT, cli, compare, corpora, runner
from prixbench import twigs, workloads
from prixbench.trace import Tracer

SPEC = runner.benchmark_spec()
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def tiny(name, **options):
    options.setdefault("rounds", 1)
    return runner.run_workload(name, options.pop("seed", 2004),
                               scale="tiny", **options)


def leftovers():
    """Work directories a run failed to remove."""
    if not os.path.isdir(runner.OUT_DIR):
        return []
    return [entry for entry in os.listdir(runner.OUT_DIR)
            if os.path.isdir(os.path.join(runner.OUT_DIR, entry))]


# ------------------------------------------------------------ declaration

def test_benchmark_json_names_the_workloads_and_units():
    assert [row["name"] for row in SPEC["workloads"]] == \
        list(workloads.WORKLOADS) == list(cli.WORKLOAD_NAMES)
    assert SPEC["paths"] == ["prixbench"]
    names = [row["name"] for row in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert len(SPEC["per_layer"]) <= 128
    setup = [row for row in SPEC["end_to_end"] if row["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(row["bound"]
                                   for row in SPEC["end_to_end"])}]


@pytest.mark.parametrize("name", cli.WORKLOAD_NAMES)
def test_smoke_emits_every_declared_metric(name):
    """Both modes of every workload: all declared names, right units,
    nothing failed, nothing left behind."""
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        report = tiny(name, trace=trace)
        line = runner.contract_line(report)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
        declared = {row["name"]: row["unit"] for row in SPEC[section]}
        assert {metric: row["unit"]
                for metric, row in line["metrics"].items()} == declared
        if not trace:
            assert all(row["value"] > 0 for row in line["metrics"].values())
    assert leftovers() == []


# ------------------------------------------------------------ determinism

def op_list(name, seed):
    workload = workloads.WORKLOADS[name]("tiny", seed, workdir="unused")
    workload.prepare()
    return json.dumps([vars(op) for op in workload.ops], sort_keys=True)


@pytest.mark.parametrize("name", cli.WORKLOAD_NAMES)
def test_same_seed_same_ops_other_seed_other_mix(name):
    assert op_list(name, 7) == op_list(name, 7)
    assert op_list(name, 7) != op_list(name, 8)


def test_other_seed_picks_other_sampled_twigs():
    corpus = corpora.load("dblp", "tiny")
    pool = twigs.pool_for(corpus)
    picks = [{twig["xpath"] for twig, _ in
              twigs.pick(pool, random.Random(seed))} for seed in (7, 8)]
    assert picks[0] != picks[1]


COUNTS = ("pages_per_query", "filtering.range_queries",
          "filtering.nodes_visited", "storage.pool.logical_reads",
          "storage.pool.physical_reads", "storage.pool.evictions",
          "storage.pool.hit_ratio", "refinement.refine.calls")


@pytest.mark.parametrize("name", ("trie_warm", "auto_smallpool"))
def test_count_metrics_repeat_exactly(name):
    first, second = (tiny(name, trace=True)["per_layer"] for _ in range(2))
    for metric in COUNTS:
        assert first[metric]["value"] == second[metric]["value"], metric
    sizes = [tiny(name)["end_to_end"]["index_bytes_per_input_byte"]
             for _ in range(2)]
    assert sizes[0]["median"] == sizes[1]["median"]


# ----------------------------------------------------------------- tracer

def test_tracer_self_times_add_up_to_the_traced_time():
    for name in ("trie_warm", "churn_mixed"):
        coverage = tiny(name, trace=True)["per_layer"][
            "trace.self_time_coverage"]["value"]
        assert 0.95 <= coverage <= 1.05, (name, coverage)


def test_tracer_nests_calls_and_generators(monkeypatch):
    toy = types.ModuleType("prixbench_toy")

    def leaf():
        return sum(range(2000))

    def numbers():
        for _ in range(3):
            yield toy.leaf()

    def parent():
        return sum(toy.numbers()) + toy.leaf()

    toy.leaf, toy.numbers, toy.parent = leaf, numbers, parent
    monkeypatch.setitem(sys.modules, "prixbench_toy", toy)
    monkeypatch.setattr("prixbench.trace.TARGETS", (
        ("prixbench_toy", "leaf", "toy.leaf", "call"),
        ("prixbench_toy", "numbers", "toy.numbers", "gen"),
        ("prixbench_toy", "parent", "toy.parent", "call")))

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root(0):
            toy.parent()
    finally:
        tracer.remove()
    assert toy.leaf is leaf                     # originals are back
    totals = tracer.totals()
    assert totals["toy.leaf"]["calls"] == 4
    assert totals["toy.numbers"]["yielded"] == 3
    # Self times partition the root span: nothing lost, nothing twice.
    assert sum(row["self_s"] for row in totals.values()) == \
        pytest.approx(totals["bench.op"]["busy_s"], rel=1e-6)
    assert totals["toy.parent"]["self_s"] < totals["toy.parent"]["busy_s"]
    by_name = {span[0]: span for span in tracer.spans}
    assert tracer.spans[0][0] == "bench.op"
    assert by_name["toy.parent"][3] == 0        # child of the root span
    assert by_name["toy.parent"][4] == 0        # tagged with the op id


# ------------------------------------------------------- correctness gate

def test_wrong_answer_is_counted_listed_and_fails_the_run(monkeypatch):
    genuine = twigs.pool_for

    def poisoned(corpus):
        pool = json.loads(json.dumps(genuine(corpus)))
        pool["twigs"][0]["ordered"]["digest"] = "0" * 20
        pool["twigs"][0]["unordered"]["digest"] = "0" * 20
        pool["twigs"][1]["ordered"]["digest"] = "0" * 20
        pool["twigs"][1]["unordered"]["digest"] = "0" * 20
        return pool

    monkeypatch.setattr(twigs, "pool_for", poisoned)
    report = tiny("trie_warm")
    assert report["failed"] >= 1
    assert report["failures"][0]["reason"].startswith("digest mismatch")
    line = runner.contract_line(report)
    assert line["correct"] is False and line["failed"] == report["failed"]
    assert line["metrics"]["success_ratio"]["value"] < 1.0
    assert cli.main(["--workload", "trie_warm", "--scale", "tiny",
                     "--rounds", "1"]) == 1


def test_corpus_drift_fails_before_timing(monkeypatch):
    monkeypatch.setitem(corpora.SIZES["full"], "treebank", 30)
    corpus = corpora.load("treebank", "full")
    with pytest.raises(corpora.CorpusDriftError):
        corpora.check_pinned(corpus)
    with pytest.raises(corpora.CorpusDriftError):
        twigs.load_pool(corpus)


def test_pinned_answers_are_the_oracles():
    corpus = corpora.load("treebank", "full")
    corpora.check_pinned(corpus)
    pool = twigs.load_pool(corpus)
    oracle = twigs.Oracle(corpus.documents)
    from repro.query.xpath import parse_xpath
    for twig in pool["twigs"][::9]:
        pattern = parse_xpath(twig["xpath"])
        for name, ordered in (("ordered", True), ("unordered", False)):
            rows = oracle.rows(pattern, ordered=ordered)
            assert twigs.answer_digest(rows) == twig[name]["digest"]
            assert len(rows) == twig[name]["n"]
    assert pool["table3"] == twigs.table3_answers(corpus, oracle)


# --------------------------------------------------------------- clean-up

def test_server_child_is_reaped_and_files_removed_on_failure(monkeypatch):
    seen = {}

    def broken_round(self, tracer=None, probe=None):
        seen["process"] = self.process
        raise RuntimeError("round blew up")

    monkeypatch.setattr(workloads.ServeC2, "run_round", broken_round)
    with pytest.raises(RuntimeError, match="round blew up"):
        tiny("serve_c2")
    assert seen["process"].poll() is not None       # exited and waited for
    assert leftovers() == []


# ---------------------------------------------------------------- compare

def test_compare_verdicts():
    lower = {"name": "m", "better": "lower", "bound": 0.10}
    higher = {"name": "m", "better": "higher", "bound": 0.10}

    def row(median, iqr=0.0):
        return {"median": median, "iqr": iqr}

    assert compare.verdict(lower, row(10), row(10.5)) == "same"
    assert compare.verdict(lower, row(10), row(11.5)) == "worse"
    assert compare.verdict(lower, row(10), row(8.0)) == "better"
    assert compare.verdict(higher, row(10), row(8.0)) == "worse"
    assert compare.verdict(higher, row(10), row(12.0)) == "better"
    # A spread wider than the bound is never "same".
    assert compare.verdict(lower, row(10, 2.0), row(10.2)) == "unresolved"
    assert compare.verdict(lower, row(10), row(10.2, 1.5)) == "unresolved"
    assert compare.verdict(lower, row(10, 2.0), row(13.0)) == "worse"


def test_compare_reads_two_reports_and_flags_worse(tmp_path, capsys):
    report = tiny("churn_mixed")
    document = {"reports": [report]}
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    path_a.write_text(json.dumps(document))
    slower = json.loads(json.dumps(document))
    slower["reports"][0]["end_to_end"]["query_p50_ms"]["median"] *= 2
    path_b.write_text(json.dumps(slower))
    assert compare.main(str(path_a), str(path_a)) == 0
    assert compare.main(str(path_a), str(path_b)) == 1
    assert "worse" in capsys.readouterr().out


# -------------------------------------------------------------------- CLI

def test_cli_refuses_more_clients_than_cores(capsys):
    assert cli.main(["--workload", "serve_c2", "--scale", "tiny",
                     "--clients", "3"]) == 2
    assert "exceeds" in capsys.readouterr().err


def test_contract_invocation_prints_the_result_last():
    done = subprocess.run(
        [sys.executable, "-m", "prixbench", "--workload", "shard4_scatter",
         "--seed", "11", "--seconds", "1", "--trace", "0", "--scale",
         "tiny"], cwd=REPO_ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {row["name"]
                                    for row in SPEC["end_to_end"]}


def test_exits_nonzero_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "prixbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    environment = {key: value for key, value in os.environ.items()
                   if key != "PYTHONPATH"}
    done = subprocess.run(
        SPEC["command"] + ["--workload", "trie_warm", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=environment, capture_output=True, text=True,
        timeout=120)
    assert done.returncode != 0
    assert "{" not in done.stdout
