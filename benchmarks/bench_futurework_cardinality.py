"""Future work (Section 7): query time vs result-set cardinality.

The paper closes with "as part of future work, we would like to explore
the behavior of the PRIX system for different query characteristics such
as the cardinality of result sets".  This benchmark does exactly that:
it samples ~120 twig queries from the DBLP-like corpus's own structure
(so cardinalities spread from 1 to thousands), buckets them by result
count, and reports mean elapsed time per bucket for PRIX and TwigStack.

Expected shape: both systems' cost grows with output size (TwigStack is
provably linear in input+output); PRIX's per-match overhead stays in the
same order, i.e. no cardinality regime where PRIX collapses.
"""

import random

from repro.baselines.region import StreamSet
from repro.baselines.twigstack import twig_stack
from repro.bench.generator import sample_twig
from repro.bench.harness import environment
from repro.bench.reporting import render_table
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager

BUCKETS = ((1, 3), (4, 15), (16, 63), (64, 255), (256, 1 << 30))
N_QUERIES = 120


def bucket_of(count):
    for low, high in BUCKETS:
        if low <= count <= high:
            return (low, high)
    return None


def test_futurework_cardinality():
    env = environment("dblp")
    documents = env.corpus.documents
    rng = random.Random(20040301)

    stream_pool = BufferPool(Pager.in_memory(page_size=env.page_size))
    streams = StreamSet.build(documents, stream_pool)

    samples = {pair: [] for pair in BUCKETS}
    generated = 0
    while generated < N_QUERIES:
        pattern = sample_twig(documents, rng)
        try:
            matches, stats = env.prix.query_with_stats(pattern, cold=True)
        except NotImplementedError:
            continue
        generated += 1
        pair = bucket_of(len(matches))
        if pair is None:
            continue
        ts_matches, _ = twig_stack(pattern, streams)
        samples[pair].append((len(matches), stats.elapsed_seconds,
                              len(ts_matches)))

    rows = []
    per_match = []
    for pair in BUCKETS:
        bucket = samples[pair]
        if not bucket:
            rows.append([f"{pair[0]}-{pair[1]}", 0, "-", "-"])
            continue
        mean_count = sum(c for c, _, _ in bucket) / len(bucket)
        mean_time = sum(t for _, t, _ in bucket) / len(bucket)
        rows.append([
            f"{pair[0]}-{pair[1]}", len(bucket),
            f"{mean_count:.0f}", f"{mean_time * 1000:.2f} ms"])
        per_match.append(mean_time / max(mean_count, 1))

    render_table(
        "Future work: PRIX elapsed time vs result cardinality "
        f"({N_QUERIES} sampled DBLP twigs)",
        ["cardinality", "queries", "mean matches", "mean elapsed"],
        rows)

    # Sanity: every PRIX occurrence is an XPath occurrence, so the
    # TwigStack count (XPath semantics: branches may nest or share
    # nodes) bounds PRIX's from above on every sampled query.
    for bucket in samples.values():
        for count, _, ts_count in bucket:
            assert ts_count >= count

    # No cardinality collapse: time per match in the largest populated
    # bucket is not orders of magnitude above the smallest's.
    populated = [value for value in per_match if value > 0]
    if len(populated) >= 2:
        assert populated[-1] <= populated[0] * 50
