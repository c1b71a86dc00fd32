"""Threaded stress harness: prix queries are thread-safe to the byte.

The oracle is exact, not statistical.  A file-backed index is built
once per seed; a single-threaded reference pass over a freshly opened
handle records, per query, the matches and the I/O the pool performed.
Then ``T`` threads (released together through a barrier) each run the
full query list against another freshly opened handle, and the run must
be *conserved*:

- every thread's matches are byte-identical to the reference (the
  latch protocol never lets a torn frame or half-decoded node reach the
  matcher);
- ``physical_reads`` equals the reference count exactly -- not "at
  most": the pool's single-flight loading means N threads missing on
  the same page perform one disk read, and the latched counters mean
  none of the increments are lost;
- ``logical_reads`` equals ``T x`` the reference count (every thread
  did all the work, none of it was lost);
- ``evictions`` stays zero (the pool is sized above the working set,
  so any eviction would mean frames leaked or thrashed).

Runs under ``PRIX_SANITIZE=1`` unchanged -- the CI threaded-stress job
does exactly that, with the guarded-field descriptors and latch-order
hooks active throughout.

Environment knobs (the CI matrix sets these):

- ``PRIX_STRESS_SEEDS``: comma-separated corpus seeds (default 11,23,47)
- ``PRIX_STRESS_THREADS``: comma-separated thread counts (default 2,8)
- ``PRIX_STRESS_ARTIFACT``: path; on oracle failure the full per-thread
  evidence is dumped there as JSON before the assertion fires.
"""

import json
import os
import sys
import threading

import pytest

from repro.bench.workloads import queries_for
from repro.datasets.dblp import dblp
from repro.prix.index import IndexOptions, PrixIndex

SEEDS = [int(s) for s in
         os.environ.get("PRIX_STRESS_SEEDS", "11,23,47").split(",")]
THREAD_COUNTS = [int(t) for t in
                 os.environ.get("PRIX_STRESS_THREADS", "2,8").split(",")]
QUERIES = [(spec.qid, spec.xpath, None) for spec in queries_for("dblp")]
#: Two queries over the *same* documents that make every thread build
#: the lazily published fields of the shared, memoised ``DocView``\ s: a
#: wildcard leaf below a descendant edge walks ``children_of``, and any
#: EPIndex answer maps its images through ``original_number``.
SHARED_VIEW_QUERIES = [("star-leaf", "//inproceedings//*", "rp"),
                       ("extended", "//inproceedings/author", "ep")]

#: Far above the working set of an 80-record corpus: the oracle demands
#: zero evictions, so the pool must never face eviction pressure.
POOL_PAGES = 512


def build_corpus_index(tmp_path, seed):
    """Build, save and close a small file-backed index; return its path."""
    path = str(tmp_path / f"stress-{seed}.prix")
    documents = dblp(n_records=80, seed=seed)
    index = PrixIndex.build(documents,
                            IndexOptions(path=path,
                                         pool_pages=POOL_PAGES))
    try:
        index.save()
    finally:
        index.close()
    return path


def run_query_list(index, queries=QUERIES):
    """Run every query; return {qid: (repr(matches), match_count)}."""
    results = {}
    for qid, xpath, variant in queries:
        matches, _stats = index.query_with_stats(xpath, variant=variant)
        results[qid] = (repr(matches), len(matches))
    return results


def io_totals(index, base=None):
    """Current counters, minus ``base`` (the cost of opening the index)
    so the oracle sees the query phase alone."""
    snap = index.io_stats.snapshot()
    if base is not None:
        snap = snap.delta(base)
    return {"physical_reads": snap.physical_reads,
            "logical_reads": snap.logical_reads,
            "evictions": snap.evictions}


def reference_pass(path, queries=QUERIES):
    """Single-threaded cold-open run: the ground truth."""
    with PrixIndex.open(path, pool_pages=POOL_PAGES) as index:
        base = index.io_stats.snapshot()
        results = run_query_list(index, queries)
        totals = io_totals(index, base)
    return results, totals


def dump_artifact(payload):
    artifact = os.environ.get("PRIX_STRESS_ARTIFACT")
    if not artifact:
        return
    with open(artifact, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=repr)


@pytest.mark.parametrize("threads", THREAD_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_threaded_queries_are_exactly_conserved(tmp_path, seed, threads):
    assert_exactly_conserved(tmp_path, seed, threads, QUERIES)


@pytest.mark.parametrize("threads", THREAD_COUNTS)
def test_threads_share_decoded_views(tmp_path, threads):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # interleave inside the lazy builds
    try:
        index_path = assert_exactly_conserved(tmp_path, SEEDS[0], threads,
                                              SHARED_VIEW_QUERIES)
    finally:
        sys.setswitchinterval(interval)
    # The oracle above is only about shared views if the lazy fields
    # really were built on views that outlive one query.
    with PrixIndex.open(index_path, pool_pages=POOL_PAGES) as index:
        run_query_list(index, SHARED_VIEW_QUERIES)
        plain, extended = ([index._view_loader(index._variants[name])(doc)
                            for doc in index._doc_ids]
                           for name in ("rp", "ep"))
        assert any(view._children is not None for view in plain)
        assert any(view._orig_numbers is not None for view in extended)
        assert any(view._lps_positions is not None for view in plain)


def assert_exactly_conserved(tmp_path, seed, threads, queries):
    """The oracle of the module docstring; returns the index path."""
    path = build_corpus_index(tmp_path, seed)
    reference, ref_totals = reference_pass(path, queries)
    assert ref_totals["evictions"] == 0
    assert ref_totals["physical_reads"] > 0  # the oracle is non-trivial

    with PrixIndex.open(path, pool_pages=POOL_PAGES) as index:
        base = index.io_stats.snapshot()
        barrier = threading.Barrier(threads)
        outcomes = [None] * threads

        def worker(slot):
            try:
                barrier.wait()
                outcomes[slot] = ("ok", run_query_list(index, queries))
            except Exception as error:  # noqa: BLE001 - relayed below
                outcomes[slot] = ("err", repr(error))

        pool = [threading.Thread(target=worker, args=(slot,),
                                 name=f"stress-{seed}-{slot}")
                for slot in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        totals = io_totals(index, base)

    evidence = {"seed": seed, "threads": threads,
                "reference": reference, "reference_io": ref_totals,
                "threaded_io": totals, "outcomes": outcomes}

    errors = [o for o in outcomes if o[0] == "err"]
    if errors:
        dump_artifact(evidence)
    assert errors == []

    divergent = {slot: outcome[1] for slot, outcome in enumerate(outcomes)
                 if outcome[1] != reference}
    if divergent:
        dump_artifact(evidence)
    assert divergent == {}, "threaded results diverge from reference"

    expected = {"physical_reads": ref_totals["physical_reads"],
                "logical_reads": threads * ref_totals["logical_reads"],
                "evictions": 0}
    if totals != expected:
        dump_artifact(evidence)
    assert totals == expected
    return path


def test_sanity_reference_is_deterministic(tmp_path):
    # The oracle itself must be stable: two cold opens of the same file
    # agree byte-for-byte before any threading enters the picture.
    path = build_corpus_index(tmp_path, SEEDS[0])
    first = reference_pass(path)
    second = reference_pass(path)
    assert first == second
