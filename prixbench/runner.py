"""Runs one workload: set-up, warm-up, measured rounds, checks, metrics.

Two modes, never mixed in one run:

- **end to end** (``trace=False``): set-up is repeated (:data:`SETUPS`
  times, ``setup_s`` is their median), one warm-up round is discarded,
  then identical rounds run for the measured time.  Every metric is the
  median over rounds.
- **traced** (``trace=True``): one traced set-up, a warm-up and two
  untraced rounds (the base of ``trace.overhead_ratio`` and of the
  latency-derived layer numbers), then traced rounds.  Only per-layer
  metrics are reported.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import tempfile
from time import perf_counter

from prixbench import (BENCH_DIR, REPO_ROOT, hostspeed, layers, stats,
                       twigs)
from prixbench.trace import Tracer
from prixbench.workloads import WORKLOADS

OUT_DIR = os.path.join(BENCH_DIR, "out")

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 2

#: Fewest measured rounds, however short the measured time.
MIN_ROUNDS = 3

#: Untraced rounds a traced run takes first.
BASE_ROUNDS = 2

#: Failures listed by operation id in a report (all are counted).
LISTED_FAILURES = 20


def benchmark_spec():
    """The root ``BENCHMARK.json``: names, units, directions, bounds."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def failures_of(outcomes, round_no):
    """Operations that raised, were refused, came back approximate or
    whose answer digest differs from the oracle's."""
    failed = []
    for outcome in outcomes:
        reason = outcome.error
        if not reason and outcome.op.kind == "query":
            if outcome.stats.get("approximate") or outcome.rows is None:
                reason = "approximate answer"
            elif twigs.answer_digest(outcome.rows) != outcome.expect:
                reason = (f"digest mismatch ({len(outcome.rows)} rows) for "
                          f"{outcome.op.xpath} ordered={outcome.op.ordered}")
        if reason:
            failed.append({"op_id": outcome.op.op_id, "round": round_no,
                           "kind": outcome.op.kind, "reason": reason})
    return failed


def score_round(outcomes, busy, factor=1.0):
    """The per-round end-to-end timing metrics.

    ``factor`` is the host's slowness during the round
    (:mod:`prixbench.hostspeed`); dividing by it turns measured time
    into reference time.
    """
    query_ms = [outcome.seconds * 1e3 for outcome in outcomes
                if outcome.op.kind == "query" and not outcome.error]
    return {"query_p50_ms": stats.percentile(query_ms, 50) / factor,
            "query_p95_ms": stats.percentile(query_ms, 95) / factor,
            "throughput_qps": len(outcomes) / busy * factor,
            "host_factor": factor}


def peak_rss_mib():
    """Peak resident set of this process plus its largest reaped child
    (the server on ``serve_c2``, build workers on ``shard4_scatter``)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class _Rounds:
    """Runs rounds of one workload and keeps what reports need."""

    def __init__(self, workload, probe=None):
        self.workload = workload
        self.probe = probe       # end-to-end rounds only
        self.scores = []
        self.outcomes = []       # per measured round
        self.busy = []
        self.failed = []
        self.attempted = 0

    def run(self, tracer=None, keep=True):
        # Every round starts from a collected heap, and answers are
        # dropped once checked, so the garbage collector's share of a
        # round does not drift with how many rounds came before.
        gc.collect()
        outcomes, busy = self.workload.run_round(tracer, self.probe)
        factor = self.probe.factor() if self.probe else 1.0
        failed = failures_of(outcomes, self.workload.round_no)
        for outcome in outcomes:
            outcome.rows = None
        if keep:
            self.scores.append(score_round(outcomes, busy, factor))
            self.outcomes.append(outcomes)
            self.busy.append(busy)
            self.failed.extend(failed)
            self.attempted += len(outcomes)
        return failed

    def run_for(self, seconds, rounds, tracer=None, at_least=MIN_ROUNDS):
        """Run ``rounds`` rounds, or rounds for ``seconds`` when None."""
        started = perf_counter()
        done = 0
        while (done < rounds if rounds is not None else
               done < at_least or perf_counter() - started < seconds):
            self.run(tracer)
            if tracer is not None:
                tracer.end_round()
            done += 1


def run_workload(name, seed, *, seconds=10.0, rounds=None, trace=False,
                 scale="full", clients=None):
    """Run one workload in one mode; returns the report dict."""
    spec = benchmark_spec()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    started = perf_counter()
    try:
        workload = WORKLOADS[name](scale, seed, workdir, clients=clients)
        workload.prepare()
        # The harness's own long-lived inputs (corpora, pools, operation
        # list) leave the collector's sight: the program's allocations
        # must not pay for scanning them on every full collection.
        gc.collect()
        gc.freeze()
        if trace:
            report = _run_traced(workload, spec, seconds, rounds)
        else:
            report = _run_end_to_end(workload, spec, seconds, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.update(workload=name, why=workload.why, seed=seed, scale=scale,
                  trace=bool(trace), ops_per_round=len(workload.ops),
                  wall_s=perf_counter() - started)
    return report


def _run_end_to_end(workload, spec, seconds, rounds):
    setup_samples = []
    for _ in range(SETUPS):
        if setup_samples:
            workload.teardown()
        workload.facts = {}
        gc.collect()
        began = perf_counter()
        workload.setup()
        setup_samples.append(perf_counter() - began)
    try:
        measured = _Rounds(workload, hostspeed.Probe())
        warm_failed = measured.run(keep=False)
        measured.run_for(seconds, rounds)
    finally:
        workload.teardown()

    columns = {key: [score[key] for score in measured.scores]
               for key in measured.scores[0]}
    failed = len(measured.failed)
    values = {key: stats.summary(column) for key, column in columns.items()}
    values["setup_s"] = stats.summary(setup_samples)
    single = {
        "peak_rss_mib": peak_rss_mib(),
        "index_bytes_per_input_byte":
            workload.facts["index_bytes"] / workload.xml_bytes,
        "success_ratio": 1.0 - failed / measured.attempted,
    }
    values.update({key: {"median": value, "iqr": 0.0, "n": 1}
                   for key, value in single.items()})
    end_to_end = {}
    for metric in spec["end_to_end"]:
        row = dict(values[metric["name"]])
        row["unit"] = metric["unit"]
        end_to_end[metric["name"]] = row
    factors = columns["host_factor"]
    as_measured = {
        key: stats.median([value / factor if key == "throughput_qps"
                           else value * factor
                           for value, factor in zip(columns[key], factors)])
        for key in ("query_p50_ms", "query_p95_ms", "throughput_qps")}
    return {"rounds": len(measured.scores), "attempted": measured.attempted,
            "failed": failed,
            "failures": (warm_failed + measured.failed)[:LISTED_FAILURES],
            "end_to_end": end_to_end, "per_layer": None,
            "host_factor": stats.summary(factors),
            "as_measured": as_measured}


def _run_traced(workload, spec, seconds, rounds):
    tracer = Tracer()
    workload.in_process = True    # serve_c2: wrappers must see the server
    tracer.install()
    try:
        workload.facts = {}
        workload.setup()
    finally:
        tracer.remove()
    try:
        setup_totals = tracer.totals()
        base = _Rounds(workload)
        warm_failed = base.run(keep=False)
        base.run_for(None, BASE_ROUNDS)

        traced = _Rounds(workload)
        io_before = [io.snapshot() for io in workload.io_stats()]
        tracer.install()
        try:
            traced.run_for(seconds, rounds, tracer, at_least=1)
        finally:
            tracer.remove()
        io_delta = [io.snapshot().delta(before) for io, before
                    in zip(workload.io_stats(), io_before)]
        extras = workload.extras()
    finally:
        workload.teardown()

    tracer.write(os.path.join(OUT_DIR, f"trace-{workload.name}.jsonl"))
    values = layers.compute(
        workload, base=base, traced=traced, tracer=tracer,
        setup_totals=setup_totals, io_delta=io_delta, extras=extras)
    per_layer = {}
    for metric in spec["per_layer"]:
        per_layer[metric["name"]] = {
            "value": float(values.get(metric["name"], 0.0)),
            "unit": metric["unit"]}
    failed = base.failed + traced.failed
    return {"rounds": len(traced.scores),
            "attempted": base.attempted + traced.attempted,
            "failed": len(failed),
            "failures": (warm_failed + failed)[:LISTED_FAILURES],
            "end_to_end": None, "per_layer": per_layer,
            "spans_recorded": sum(span is not None
                                  for span in tracer.spans),
            "spans_dropped": tracer.dropped}


def contract_line(report):
    """The benchmark contract's result object for one run."""
    if report["trace"]:
        metrics = {name: {"value": row["value"], "unit": row["unit"]}
                   for name, row in report["per_layer"].items()}
    else:
        metrics = {name: {"value": row["median"], "unit": row["unit"]}
                   for name, row in report["end_to_end"].items()}
    return {"correct": report["failed"] == 0,
            "attempted": report["attempted"], "failed": report["failed"],
            "metrics": metrics}
