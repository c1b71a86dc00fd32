"""Supplemental: index construction cost and size, all four systems.

Not a paper table.  What it shows at these (shallow, laptop-scale)
corpora: PRIX's footprint is linear in tree nodes and covers *two*
sequence variants plus per-document records; ViST's single trie is
smaller here because shallow documents keep its prefixes short -- the
quadratic regime the paper criticizes only bites with depth (measured
directly in bench_ablation_space.py).  The stream
stores pay per-tag page padding: every distinct value string owns a
stream, so small pages multiply.
"""

import time

from repro.baselines.region import StreamSet, build_stream_entries
from repro.baselines.twigstackxb import XBForest
from repro.baselines.vist import VistIndex
from repro.bench.harness import BENCH_PAGE_SIZE, DEFAULT_SCALE
from repro.bench.reporting import render_table
from repro.datasets import get_corpus
from repro.prix.index import IndexOptions, PrixIndex
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager


def build_all(corpus_name):
    corpus = get_corpus(corpus_name, DEFAULT_SCALE)
    docs = corpus.documents
    total_nodes = sum(doc.size for doc in docs)
    results = {}

    started = time.perf_counter()
    prix = PrixIndex.build(docs, IndexOptions(page_size=BENCH_PAGE_SIZE))
    results["PRIX (rp+ep)"] = (time.perf_counter() - started,
                               prix._pool.num_pages)

    pool = BufferPool(Pager.in_memory(page_size=BENCH_PAGE_SIZE))
    started = time.perf_counter()
    VistIndex.build(docs, pool)
    results["ViST"] = (time.perf_counter() - started,
                       pool._pager.num_pages)

    pool = BufferPool(Pager.in_memory(page_size=BENCH_PAGE_SIZE))
    started = time.perf_counter()
    StreamSet.build(docs, pool)
    results["Streams (TwigStack)"] = (time.perf_counter() - started,
                                      pool._pager.num_pages)

    pool = BufferPool(Pager.in_memory(page_size=BENCH_PAGE_SIZE))
    started = time.perf_counter()
    XBForest.build(build_stream_entries(docs), pool)
    results["XB-trees"] = (time.perf_counter() - started,
                           pool._pager.num_pages)
    return total_nodes, results


def test_build_costs():
    rows = []
    prix_pages = {}
    vist_pages = {}
    for corpus_name in ("dblp", "swissprot", "treebank"):
        total_nodes, results = build_all(corpus_name)
        for system, (elapsed, pages) in results.items():
            rows.append([corpus_name, system, total_nodes,
                         f"{elapsed:.2f} s", pages,
                         f"{pages * BENCH_PAGE_SIZE / 1024:.0f} KiB"])
        prix_pages[corpus_name] = results["PRIX (rp+ep)"][1]
        vist_pages[corpus_name] = results["ViST"][1]

    render_table(
        f"Index construction (scale={DEFAULT_SCALE}, "
        f"{BENCH_PAGE_SIZE}B pages)",
        ["Corpus", "System", "Tree nodes", "Build time", "Pages", "Size"],
        rows)

    # PRIX's two variants + records stay within a small constant of the
    # single-trie ViST build at every corpus (linear-vs-linear at these
    # depths; the quadratic separation is measured in A4).
    for corpus_name in prix_pages:
        assert prix_pages[corpus_name] <= 6 * vist_pages[corpus_name]
