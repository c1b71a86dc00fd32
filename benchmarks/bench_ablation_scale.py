"""Ablation A5: how the PRIX-vs-ViST gap grows with corpus scale.

The paper's factors (10x-1900x) come from 100 MB corpora; ours are
laptop-scale.  This sweep doubles the corpus repeatedly and shows the
elapsed-time factor on a recursive-wildcard query (the paper's strongest
case) growing with scale -- evidence that the muted factors in Tables
4-9 are a scale effect, not a modeling error.
"""

import time

from repro.baselines.vist import VistIndex
from repro.bench.reporting import render_table
from repro.datasets import treebank
from repro.prix.index import PrixIndex
from repro.query.xpath import parse_xpath
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager

SIZES = (100, 200, 400, 800)
QUERY = "//S//NP/SYM"


def measure(n_sentences):
    corpus = treebank(n_sentences=n_sentences)
    docs = corpus.documents
    prix = PrixIndex.build(docs)
    vist_pool = BufferPool(Pager.in_memory())
    vist = VistIndex.build(docs, vist_pool)
    pattern = parse_xpath(QUERY)

    _, prix_stats = prix.query_with_stats(pattern, cold=True)
    vist_pool.flush_and_clear()
    started = time.perf_counter()
    vist.query(pattern)
    vist_elapsed = time.perf_counter() - started
    return prix_stats.elapsed_seconds, vist_elapsed


def test_ablation_scale_growth():
    rows = []
    factors = []
    for n_sentences in SIZES:
        prix_elapsed, vist_elapsed = measure(n_sentences)
        factor = vist_elapsed / max(prix_elapsed, 1e-9)
        factors.append(factor)
        rows.append([n_sentences, f"{prix_elapsed:.4f}",
                     f"{vist_elapsed:.4f}", f"{factor:.1f}x"])

    render_table(
        f"Ablation A5: PRIX vs ViST elapsed time vs scale ({QUERY})",
        ["sentences", "PRIX (s)", "ViST (s)", "ViST/PRIX"],
        rows)

    # The gap must widen as the corpus grows (allowing noise at the
    # smallest sizes): the largest scale beats the smallest clearly.
    assert factors[-1] > factors[0], (
        f"factor did not grow with scale: {factors}")
    assert factors[-1] > 10, (
        f"at the largest scale PRIX should win by an order of magnitude, "
        f"got {factors[-1]:.1f}x")
