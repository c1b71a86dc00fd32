"""ShardedIndex: the query surface of :class:`PrixIndex` over a shard set.

Scatter-gather (docs/SHARDING.md): a query runs against every shard's
independent PRIX index and the per-shard answers are unioned.  The
decomposition is sound because shards partition the corpus by doc id --
every document lives in exactly one shard, so a twig occurrence in doc
``d`` is found by ``d``'s shard iff the monolithic index would find it
(the per-shard index *is* a complete PRIX index over its documents, so
Theorems 1-2 apply shard-locally), and the union over disjoint doc
ranges neither duplicates nor drops matches.

A caller :class:`QueryBudget` is metered once per query: one
:class:`~repro.prix.budget.BudgetMeter`, reading the set's summed page
counters, is handed to every shard in turn, so the caps and the deadline
bound the whole scatter exactly as they bound one monolithic query.  The
merge surfaces ``approximate=True`` iff any shard degraded:

- **Refinement**-phase exhaustion in a shard yields that shard's sound
  candidate-document superset; the merged answer collapses to doc-level
  matches -- the union of exact shards' matched documents and degraded
  shards' candidate documents -- which is again a guaranteed superset
  of the exact answer's documents.  Never a silent wrong answer.
- **Filter**-phase exhaustion in any shard propagates as
  :class:`~repro.prix.budget.BudgetExceededError`: that shard's filter
  pass is incomplete, no sound superset exists for its doc range, so
  none exists for the whole corpus either.  Each shard's query starts
  in the filter phase, so a cap already spent by an earlier shard's
  refinement stops the next shard's filter with this error.

Matches are returned in canonical ``(doc_id, images)`` order, so the
answer is byte-stable across shard counts -- the oracle property the
sharding tests check against a monolithic index.
"""

from __future__ import annotations

import time

from repro.prix.budget import QueryBudget
from repro.prix.incremental import RebuildRequiredError
from repro.prix.index import PrixIndex
from repro.prix.matcher import (QueryResult, QueryStats, TwigMatch,
                                prepare)
from repro.query.xpath import parse_xpath
from repro.shard.catalog import (ShardCatalog, ShardError,
                                 is_shard_directory)
from repro.storage import IOStats, Latch, guarded

class ShardSetIOStats:
    """Read-only aggregate over every shard's pool counters.

    Quacks like :class:`~repro.storage.stats.IOStats` for readers
    (``read(name)``, ``snapshot()``), delegating to the per-shard stats
    objects --
    each of which does its own latching, so this wrapper holds no lock
    of its own and supports no mutation.
    """

    def __init__(self, rows):
        self._rows = rows   # callable -> iterable[(entry, PrixIndex)]

    def read(self, name):
        """One counter summed over every shard (what a scatter's budget
        meter reads)."""
        return sum(index.io_stats.read(name) for _, index in self._rows())

    def parts(self):
        """Each shard's own counters, in shard order (see
        :meth:`IOStats.parts`)."""
        return tuple(index.io_stats for _, index in self._rows())

    def snapshot(self):
        total = IOStats()
        for _, index in self._rows():
            snap = index.io_stats.snapshot()
            total.add(**{name: getattr(snap, name)
                         for name in IOStats._GUARDED})
        return total


@guarded
class ShardedIndex:
    """The shard set behind one directory, queryable as one index.

    Concurrency: the shard table and catalog are guarded by the
    ``shard-catalog`` latch (mutations -- insert/delete routing -- hold
    it; queries snapshot the table under it and then run unlatched, the
    same read pattern the registry uses for mounts).  Cumulative query
    counters live behind the separate ``shard-stats`` latch so metrics
    scrapes never contend with routing.
    """

    #: Field -> guarding latch; the runtime sanitizer
    #: (PRIX_SANITIZE=1) enforces this mapping.
    _GUARDED = {"_shards": "_latch", "_catalog": "_latch",
                "_totals": "_stats_latch"}

    def __init__(self, catalog, shards):
        self._latch = Latch("shard-catalog")
        self._stats_latch = Latch("shard-stats")
        with self._latch:
            self._shards = dict(shards)
            self._catalog = catalog
        with self._stats_latch:
            # Queries served / degraded, in total and per shard.
            self._totals = {
                "queries": 0, "approximate_queries": 0,
                "per_shard": {entry.name: 0
                              for entry in catalog.entries}}
        self._closed = False
        self.io_stats = ShardSetIOStats(self._snapshot)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, directory, pool_pages=None, backend="file"):
        """Open every shard listed in ``directory``'s manifest.

        ``backend``/``pool_pages`` apply per shard, exactly as they
        would to a monolithic :meth:`PrixIndex.open`.  WAL and checksum
        sidecars auto-detect per shard file.
        """
        catalog = ShardCatalog.load(directory)
        if not catalog.entries:
            raise ShardError(f"{directory}: manifest lists no shards")
        shards = {}
        try:
            for entry in catalog.entries:
                shards[entry.name] = PrixIndex.open(
                    catalog.path_for(entry), pool_pages=pool_pages,
                    backend=backend)
        except BaseException:
            for index in shards.values():
                index.close()
            raise
        return cls(catalog, shards)

    def close(self):
        """Close every shard (idempotent)."""
        if self._closed:
            return
        self._closed = True
        with self._latch:
            shards = list(self._shards.values())
            self._shards = {}
        for index in shards:
            index.close()

    def save(self):
        """Republish the manifest.

        Mutations (:meth:`insert_document`/:meth:`delete_document`)
        already save the touched shard and the manifest as one unit;
        this exists so callers holding either index kind can ``save()``
        polymorphically -- for a shard set it is an idempotent
        manifest rewrite.
        """
        with self._latch:
            self._catalog.save()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _snapshot(self):
        """(entry, index) rows in catalog (doc-id) order."""
        with self._latch:
            return [(entry, self._shards[entry.name])
                    for entry in self._catalog.entries]

    @property
    def catalog(self):
        with self._latch:
            return self._catalog

    @property
    def doc_count(self):
        return sum(index.doc_count for _, index in self._snapshot())

    def export_documents(self):
        """Every stored document, in doc-id order across shards."""
        for _, index in self._snapshot():
            yield from index.export_documents()

    def shard_stats(self):
        """Per-shard rows for ``prix stats`` and the serving metrics."""
        with self._stats_latch:
            queries = dict(self._totals["per_shard"])
        rows = []
        for entry, index in self._snapshot():
            snap = index.io_stats.snapshot()
            rows.append({
                "shard": entry.name,
                "file": entry.file,
                "low": entry.low,
                "high": entry.high,
                "doc_count": index.doc_count,
                "queries": queries.get(entry.name, 0),
                "physical_reads": snap.physical_reads,
                "logical_reads": snap.logical_reads,
                "evictions": snap.evictions,
            })
        return rows

    def scatter_stats(self):
        """Cumulative scatter-gather counters (metrics endpoint)."""
        with self._stats_latch:
            return {"queries": self._totals["queries"],
                    "approximate_queries":
                        self._totals["approximate_queries"]}

    def query_counts(self):
        """A copy of the cumulative query counters the two methods above
        report: ``queries``, ``approximate_queries`` and ``per_shard``
        (shard name -> queries)."""
        with self._stats_latch:
            return {"queries": self._totals["queries"],
                    "approximate_queries":
                        self._totals["approximate_queries"],
                    "per_shard": dict(self._totals["per_shard"])}

    def query_counts_since(self, earlier):
        """The increments of :meth:`query_counts` since ``earlier``, one
        of its results: what a ``prix serve`` engine process reports
        back for the front end's :meth:`add_query_counts`."""
        now = self.query_counts()
        before = earlier["per_shard"]
        return {"queries": now["queries"] - earlier["queries"],
                "approximate_queries": (now["approximate_queries"]
                                        - earlier["approximate_queries"]),
                "per_shard": {name: count - before.get(name, 0)
                              for name, count in now["per_shard"].items()
                              if count != before.get(name, 0)}}

    def add_query_counts(self, delta):
        """Add a :meth:`query_counts_since` delta measured elsewhere."""
        with self._stats_latch:
            totals = self._totals
            totals["queries"] += delta["queries"]
            totals["approximate_queries"] += delta["approximate_queries"]
            per_shard = totals["per_shard"]
            for name, count in delta["per_shard"].items():
                per_shard[name] = per_shard.get(name, 0) + count

    def summary(self):
        """JSON-ready description (see :meth:`PrixIndex.summary`)."""
        catalog = self.catalog
        return {"documents": self.doc_count,
                "generation": catalog.generation,
                "shard_count": len(catalog.entries),
                "shards": self.shard_stats(),
                "scatter": self.scatter_stats()}

    def next_doc_id(self):
        """The smallest doc id above every shard's range."""
        return self.catalog.entries[-1].high + 1

    def explain(self, pattern, variant=None):
        """Each shard's plan under a ``shard-NNNN:`` heading (label
        frequencies, hence variant and strategy, are per shard)."""
        if isinstance(pattern, str):
            pattern = parse_xpath(pattern)
        query = prepare(pattern)
        return "".join(f"{entry.name}:\n{index.explain(query, variant)}"
                       for entry, index in self._snapshot())

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------

    def query(self, pattern, **options):
        """Scatter-gather twig query; same contract and options as
        :meth:`PrixIndex.query` (see module docstring for the merge)."""
        return self.query_with_stats(pattern, **options)[0]

    def query_with_stats(self, pattern, *, ordered=False, variant=None,
                         use_maxgap=True, strategy="auto",
                         maxgap_granularity="label", cold=False,
                         budget=None):
        """Like :meth:`query` but also return an aggregate ``QueryStats``.

        The stats sum the per-shard work counters (physical reads,
        candidates, matches); ``stats.shards`` carries the shard count
        and ``stats.per_shard`` the per-shard breakdown the shard bench
        and the oracle test's evidence JSON scrape.
        """
        if budget is not None and not isinstance(budget, QueryBudget):
            raise TypeError("ShardedIndex budgets must be QueryBudget "
                            "templates; the scatter starts its own meter")
        if isinstance(pattern, str):
            pattern = parse_xpath(pattern)
        rows = self._snapshot()
        if not rows:
            raise ShardError("sharded index is closed or empty")

        started = time.monotonic()
        # One meter for the whole scatter: its caps, deadline and page
        # reads count every shard's work, as they would one index's.
        meter = (None if budget is None or budget.unlimited
                 else budget.meter(io_stats=self.io_stats))
        # One prepared query for every shard: plans depend on the twig
        # and the variant alone, so each is built at most once per
        # scatter, by the first shard that needs it and under the meter.
        query = prepare(pattern)

        total = QueryStats(variant="", strategy="")
        per_shard = []
        exact = []          # TwigMatch rows from exact shards
        superset_docs = set()   # doc ids from degraded shards
        reason = None
        variants_seen = []
        strategies_seen = []

        for entry, index in rows:
            matches, stats = index.query_with_stats(
                query, ordered=ordered, variant=variant,
                use_maxgap=use_maxgap, strategy=strategy,
                maxgap_granularity=maxgap_granularity, cold=cold,
                budget=meter)

            if stats.variant and stats.variant not in variants_seen:
                variants_seen.append(stats.variant)
            if stats.strategy and stats.strategy not in strategies_seen:
                strategies_seen.append(stats.strategy)
            total.arrangements = max(total.arrangements, stats.arrangements)
            total.filter.merge(stats.filter)
            total.candidate_documents += stats.candidate_documents
            total.candidates_refined += stats.candidates_refined
            total.candidates_accepted += stats.candidates_accepted
            total.documents_loaded += stats.documents_loaded
            total.documents_decoded += stats.documents_decoded
            total.matches += stats.matches
            total.physical_reads += stats.physical_reads
            per_shard.append({"shard": entry.name,
                              "matches": len(matches),
                              "approximate": bool(matches.approximate),
                              "physical_reads": stats.physical_reads,
                              "candidates_refined":
                                  stats.candidates_refined,
                              "elapsed_seconds": stats.elapsed_seconds})

            if matches.approximate:
                superset_docs.update(match.doc_id for match in matches)
                if reason is None:
                    reason = matches.degradation_reason
            else:
                exact.extend(matches)

            with self._stats_latch:
                self._totals["per_shard"][entry.name] = (
                    self._totals["per_shard"].get(entry.name, 0) + 1)

        if reason is not None:
            # Degraded merge: collapse to doc-level matches over the
            # union of exact shards' matched documents and degraded
            # shards' candidate documents -- a sound superset of the
            # exact answer's documents (module docstring).
            docs = superset_docs | {match.doc_id for match in exact}
            merged = QueryResult(
                (TwigMatch(doc_id, ()) for doc_id in sorted(docs)),
                approximate=True, degradation_reason=reason)
        else:
            merged = QueryResult(sorted(
                exact, key=lambda match: (match.doc_id, match.images)))

        total.variant = "+".join(variants_seen)
        total.strategy = "+".join(strategies_seen)
        total.matches = len(merged)
        total.approximate = merged.approximate
        total.degradation_reason = merged.degradation_reason
        total.elapsed_seconds = time.monotonic() - started
        total.shards = len(rows)
        total.per_shard = per_shard

        with self._stats_latch:
            self._totals["queries"] += 1
            if merged.approximate:
                self._totals["approximate_queries"] += 1
        return merged, total

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------

    def insert_document(self, document):
        """Route an insert to the owning shard (Section 5.2.1 applies
        shard-locally).

        The owning shard's incremental insert runs unchanged; the
        catalog row's range/count are refreshed and the manifest
        republished.  On
        :class:`~repro.prix.incremental.RebuildRequiredError` the
        document's record is already cataloged in the shard (the
        monolithic contract), the manifest is still refreshed, and the
        error propagates -- ``rebalance``/``compact`` is the recovery
        path, exactly as :meth:`PrixIndex.rebuilt` is for one index.
        """
        with self._latch:
            entry = self._catalog.route(document.doc_id)
            index = self._shards[entry.name]
            try:
                index.insert_document(document)
            except RebuildRequiredError:
                # The record is cataloged despite the error (the
                # monolithic contract) -- publish the honest count
                # before propagating.
                index.save()
                self._refresh_entry_locked(entry, index, document.doc_id)
                raise
            index.save()
            self._refresh_entry_locked(entry, index, document.doc_id)

    def delete_document(self, doc_id):
        """Route a delete to the owning shard; ``KeyError`` if absent."""
        with self._latch:
            entry = self._catalog.shard_for(doc_id)
            if entry is None:
                raise KeyError(f"document {doc_id} is not indexed")
            index = self._shards[entry.name]
            index.delete_document(doc_id)
            index.save()
            self._refresh_entry_locked(entry, index, None)

    def _refresh_entry_locked(self, entry, index, doc_id):  # caller holds _latch
        """Rewrite ``entry``'s manifest row from the shard's live state.

        Caller holds ``_latch``.  Ranges only ever widen (a shard keeps
        owning a range even after deletes empty part of it), so routing
        stays stable without a rebalance.
        """
        low, high = entry.low, entry.high
        if doc_id is not None:
            low = min(low, doc_id)
            high = max(high, doc_id)
        refreshed = type(entry)(name=entry.name, file=entry.file,
                                low=low, high=high,
                                doc_count=index.doc_count)
        others = [row for row in self._catalog.entries
                  if row.name != entry.name]
        self._catalog = self._catalog.replace_entries(
            others + [refreshed])
        self._catalog.save()


def open_index(path, *, backend="file", pool_pages=None):
    """Open whichever index kind lives at ``path``.

    A directory holding a ``prixshard.json`` manifest opens as a
    :class:`ShardedIndex`, anything else as a :class:`PrixIndex`; both
    answer one query / insert / delete / ``summary`` / ``explain``
    surface, so front ends hold the result without knowing which it is.
    """
    kind = ShardedIndex if is_shard_directory(path) else PrixIndex
    return kind.open(path, pool_pages=pool_pages, backend=backend)
