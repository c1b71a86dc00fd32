"""Measurement harness shared by every benchmark.

A :class:`BenchEnvironment` builds, once per (corpus, scale), all four
systems over their own storage stacks:

- the PRIX index (RPIndex + EPIndex),
- the region-encoded streams for TwigStack,
- the XB-tree forest for TwigStackXB,
- the ViST index.

Every measurement runs cold: the relevant buffer pool is flushed and
cleared first, so the reported page counts correspond to the paper's
direct-I/O methodology.  Environments are cached at module level, so
the bench scripts of one pytest run share each corpus's build.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.baselines.region import StreamSet, build_stream_entries
from repro.baselines.twigstack import TwigJoinStats, twig_stack
from repro.baselines.twigstackxb import XBForest, twig_stack_xb
from repro.baselines.vist import VistIndex, VistStats
from repro.bench.workloads import query_by_id
from repro.datasets import get_corpus
from repro.prix.index import PrixIndex
from repro.query.xpath import parse_xpath
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager

#: Scale used by the benchmark suite; override with REPRO_SCALE=tiny|small|
#: medium|large.
DEFAULT_SCALE = os.environ.get("REPRO_SCALE", "medium")

#: Page size for every system's storage stack.  The paper uses 8 KiB pages
#: against ~100 MB datasets; our corpora are ~100x smaller, so 1 KiB pages
#: keep the pages-per-dataset ratio (and therefore the I/O behaviour the
#: tables measure) in the same regime.  Override with REPRO_PAGE_SIZE.
BENCH_PAGE_SIZE = int(os.environ.get("REPRO_PAGE_SIZE", "1024"))


@dataclass
class SystemResult:
    """One (system, query) measurement."""

    system: str
    qid: str
    matches: int
    elapsed: float
    pages: int
    extra: dict = field(default_factory=dict)


class BenchEnvironment:
    """All four systems built over one corpus."""

    def __init__(self, corpus_name, scale=None, page_size=None):
        self.corpus_name = corpus_name
        self.scale = scale or DEFAULT_SCALE
        self.page_size = page_size or BENCH_PAGE_SIZE
        self.corpus = get_corpus(corpus_name, self.scale)
        documents = self.corpus.documents

        from repro.prix.index import IndexOptions
        self.prix = PrixIndex.build(
            documents, IndexOptions(page_size=self.page_size))

        self._stream_pool = BufferPool(
            Pager.in_memory(page_size=self.page_size))
        self.streams = StreamSet.build(documents, self._stream_pool)

        self._xb_pool = BufferPool(
            Pager.in_memory(page_size=self.page_size))
        self.xb_forest = XBForest.build(build_stream_entries(documents),
                                        self._xb_pool)

        self._vist_pool = BufferPool(
            Pager.in_memory(page_size=self.page_size))
        self.vist = VistIndex.build(documents, self._vist_pool)

        self._patterns = {}

    def pattern(self, qid):
        """Parsed (and cached) pattern for a Table 3 query id."""
        if qid not in self._patterns:
            self._patterns[qid] = parse_xpath(query_by_id(qid).xpath)
        return self._patterns[qid]

    # ------------------------------------------------------------------
    # Cold measurements, one per system
    # ------------------------------------------------------------------

    def run_prix(self, qid, variant=None, use_maxgap=True,
                 strategy="auto"):
        """Cold PRIX measurement for one query."""
        pattern = self.pattern(qid)
        matches, stats = self.prix.query_with_stats(
            pattern, variant=variant, use_maxgap=use_maxgap,
            strategy=strategy, cold=True)
        return SystemResult(
            system="PRIX", qid=qid, matches=len(matches),
            elapsed=stats.elapsed_seconds, pages=stats.physical_reads,
            extra={"variant": stats.variant,
                   "strategy": stats.strategy,
                   "range_queries": stats.filter.range_queries,
                   "nodes_visited": stats.filter.nodes_visited,
                   "pruned": stats.filter.pruned_by_maxgap,
                   "candidates": stats.filter.candidates})

    def run_twigstack(self, qid):
        """Cold TwigStack measurement for one query."""
        pattern = self.pattern(qid)
        self._stream_pool.flush_and_clear()
        before = self._stream_pool.stats.physical_reads
        started = time.perf_counter()
        matches, stats = twig_stack(pattern, self.streams)
        elapsed = time.perf_counter() - started
        return SystemResult(
            system="TwigStack", qid=qid, matches=len(matches),
            elapsed=elapsed,
            pages=self._stream_pool.stats.physical_reads - before,
            extra={"scanned": stats.elements_scanned,
                   "path_solutions": stats.path_solutions})

    def run_twigstack_xb(self, qid):
        """Cold TwigStackXB measurement for one query."""
        pattern = self.pattern(qid)
        self._xb_pool.flush_and_clear()
        before = self._xb_pool.stats.physical_reads
        started = time.perf_counter()
        matches, stats = twig_stack_xb(pattern, self.xb_forest)
        elapsed = time.perf_counter() - started
        return SystemResult(
            system="TwigStackXB", qid=qid, matches=len(matches),
            elapsed=elapsed,
            pages=self._xb_pool.stats.physical_reads - before,
            extra={"scanned": stats.elements_scanned,
                   "drilldowns": stats.drilldowns,
                   "coarse_advances": stats.coarse_advances})

    def run_vist(self, qid):
        """Cold ViST measurement for one query."""
        pattern = self.pattern(qid)
        self._vist_pool.flush_and_clear()
        before = self._vist_pool.stats.physical_reads
        started = time.perf_counter()
        docs, stats = self.vist.query(pattern)
        elapsed = time.perf_counter() - started
        return SystemResult(
            system="ViST", qid=qid, matches=len(docs),
            elapsed=elapsed,
            pages=self._vist_pool.stats.physical_reads - before,
            extra={"range_queries": stats.range_queries,
                   "keys_scanned": stats.keys_scanned,
                   "candidate_docs": stats.candidate_docs})


_ENVIRONMENTS = {}


def environment(corpus_name, scale=None):
    """Shared, lazily built environment for (corpus, scale)."""
    key = (corpus_name, scale or DEFAULT_SCALE)
    if key not in _ENVIRONMENTS:
        _ENVIRONMENTS[key] = BenchEnvironment(corpus_name, scale)
    return _ENVIRONMENTS[key]
