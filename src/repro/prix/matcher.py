"""Twig match results and the per-query matching driver.

A :class:`TwigMatch` is one occurrence of the twig in one document: an
injective mapping from the query's named nodes to postorder numbers of the
document (in its original, non-extended numbering).  Matches found under
different branch arrangements (Section 5.7) are deduplicated here.

A :class:`PreparedQuery` holds what depends on the twig alone -- node
numbering, automorphism signatures and the Section 5.7 plans per variant
-- so a query planned once can run against any number of indexes (the
shards of a scatter) without planning again.

The planner decides how one query runs on one index, a :class:`Route`:
:func:`run_query` executes it and ``prix explain`` prints it.

The driver runs the paper's two phases strictly in order -- *all*
filtering (Theorems 1-2: a complete superset, no false dismissals), then
refinement -- so that a :class:`~repro.prix.budget.QueryBudget` running
out mid-refinement can degrade gracefully: the untouched filter output
is returned as an approximate :class:`QueryResult` instead of a partial
exact answer (see ``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.prix.budget import BudgetExceededError, PHASE_REFINEMENT
from repro.prix.filtering import (FilterStats, _maxgap_admits,
                                  find_subsequences)
from repro.prix.plan import REL_UNPRUNABLE, build_plan
from repro.prix.refinement import refine
from repro.query.twig import (arrangements, collapse, node_signatures,
                              root_paths)


@dataclass(frozen=True)
class TwigMatch:
    """One twig occurrence.

    Attributes:
        doc_id: the matched document.
        images: tuple of ``(node_index, postorder_number)`` pairs, where
            ``node_index`` indexes the pattern's ``nodes()`` list; sorted
            by node index.
    """

    doc_id: int
    images: tuple
    canonical: frozenset = frozenset()

    def image_of(self, node_index):
        """Postorder number matched to pattern node ``node_index``."""
        for index, number in self.images:
            if index == node_index:
                return number
        raise KeyError(node_index)

    @property
    def root_image(self):
        """Postorder number matched to the twig root (node index 0)."""
        return self.image_of(0)


@dataclass
class QueryStats:
    """Work counters for one query execution."""

    variant: str = ""
    strategy: str = "trie"
    arrangements: int = 0
    filter: FilterStats = field(default_factory=FilterStats)
    candidate_documents: int = 0
    candidates_refined: int = 0
    candidates_accepted: int = 0
    # Stored documents fetched, and how many fetches had to decode the
    # record (the rest hit a view memoised on a resident page).
    documents_loaded: int = 0
    documents_decoded: int = 0
    matches: int = 0
    physical_reads: int = 0
    elapsed_seconds: float = 0.0
    approximate: bool = False
    degradation_reason: object = None  # DegradationReason when degraded
    # Scatter-gather only (repro.shard); 0 / empty for a single index.
    shards: int = 0
    per_shard: list = field(default_factory=list)


class QueryResult(list):
    """Query answer: a list of :class:`TwigMatch` plus a result contract.

    A plain ``list`` subclass so every existing caller (equality against
    literals, ``len``, iteration) is untouched.  Two extra attributes
    carry the degradation contract:

    - ``approximate`` -- False for an exact answer.  True means the
      query's budget ran out during refinement and the entries are the
      *filter phase's* candidate documents: one doc-level
      :class:`TwigMatch` per candidate document, with empty ``images``
      (no embedding was verified).  By Theorems 1-2 the filter has no
      false dismissals, so the documents listed are a guaranteed
      **superset** of the exact answer's documents -- never a silently
      wrong or incomplete one.
    - ``degradation_reason`` -- the structured
      :class:`~repro.prix.budget.DegradationReason` (None when exact).
    """

    def __init__(self, matches=(), approximate=False,
                 degradation_reason=None):
        super().__init__(matches)
        self.approximate = approximate
        self.degradation_reason = degradation_reason

    @property
    def doc_ids(self):
        """Sorted distinct document ids in the result."""
        return sorted({match.doc_id for match in self})


class PreparedQuery:
    """A twig and everything derived from it alone, for any index.

    Plans depend on the twig and the variant only, never on the data, so
    one prepared query serves every index it runs against.  Plans are
    built on first use and memoised per ``(ordered, extended)``; a
    build a budget interrupts memoises nothing.  Each memo is published
    by one assignment, so threads sharing a prepared query at worst
    build a memo twice and publish equal values.
    """

    def __init__(self, pattern):
        self.pattern = pattern
        #: ``{id(TwigNode): index in pattern.nodes()}``.
        self.node_index = {id(node): i
                           for i, node in enumerate(pattern.nodes())}
        #: :func:`~repro.query.twig.node_signatures` of the pattern.
        self.signatures = node_signatures(pattern)
        self._plans = {}
        self._paths = {}

    def plans(self, extended, ordered=False, budget=None):
        """The plan of every branch arrangement (Section 5.7), or the
        twig's own order alone when ``ordered``.

        ``budget`` (a ``BudgetMeter``) is checked before each plan: an
        unordered twig may have up to ``MAX_ARRANGEMENTS`` of them.
        """
        key = (ordered, extended)
        plans = self._plans.get(key)
        if plans is None:
            twigs = ([collapse(self.pattern)] if ordered
                     else arrangements(self.pattern))
            plans = []
            for twig in twigs:
                if budget is not None:
                    budget.checkpoint()
                plans.append(build_plan(twig, extended=extended))
            plans = self._plans[key] = tuple(plans)
        return plans

    def path_plans(self, extended, budget=None):
        """``(path, plan)`` for every :func:`~repro.query.twig.root_paths`
        chain, in preorder."""
        paths = self._paths.get(extended)
        if paths is None:
            paths = []
            for path in root_paths(self.pattern):
                if budget is not None:
                    budget.checkpoint()
                paths.append((path, build_plan(collapse(path),
                                               extended=extended)))
            paths = self._paths[extended] = tuple(paths)
        return paths


def prepare(query):
    """``query`` as a :class:`PreparedQuery`: a twig pattern is wrapped,
    a prepared query returned as it is."""
    if isinstance(query, PreparedQuery):
        return query
    return PreparedQuery(query)


#: Document-at-a-time fallback thresholds: the rarest query label must
#: occur at no more than this many trie nodes, and in no more than this
#: many candidate documents, for the fallback to engage.
RARE_LABEL_NODE_LIMIT = 128
RARE_LABEL_DOC_LIMIT = 256


@dataclass(frozen=True)
class Route:
    """How one query runs on one index (:func:`plan_route`): the
    ``variant`` and ``why`` (with the ``(variant, first LPS label, trie
    nodes)`` rows when those counts decided), the ``plans`` of its
    branch arrangements, and the driver: the documents the ``rare``
    label pins down (:func:`rare_label`), or the plan Algorithm 1
    ``walked`` -- the twig's own, or the plan of its filter ``path``,
    whose first label is on ``path_nodes`` trie nodes."""

    variant: str
    why: str
    first_labels: tuple
    plans: tuple
    rare: tuple = None
    walked: object = None
    path: object = None
    path_nodes: int = 0


def first_label_nodes(plan, variant_index):
    """Trie nodes carrying ``plan``'s first LPS label, where filtering
    fans out: the variant and the filter path are ranked by it."""
    return variant_index.label_counts.get(plan.qlps[0], 0)


def variant_choice(query, variants, forced=None):
    """``(variant, why, first_labels)`` of the :class:`Route` of
    ``query`` among ``variants`` (``{name: variant index}``), reading no
    page: ``forced``, else Section 5.6's rule -- EPIndex whenever the
    query carries value predicates, whose selectivity prunes
    subsequence matching.  Value-free queries go where their first LPS
    label, from which filtering fans out, is on fewer trie nodes, RP on
    a tie: leaf labels only reach the filter through the extended
    sequences, which is how the paper's Q8 can lean on MaxGap of a rare
    leaf tag (RBR_OR_JJR).  Both variants return identical answers.
    """
    if forced is not None:
        if forced not in variants:
            raise KeyError(f"variant {forced!r} was not built")
        return forced, "forced", ()
    extended = [name for name in variants if variants[name].extended]
    if query.pattern.has_values() and extended:
        return extended[0], "value predicates -> EPIndex, Section 5.6", ()
    if len(variants) == 1:
        return next(iter(variants)), "the only variant built", ()
    first_labels = tuple(
        (name, plan.qlps[0], first_label_nodes(plan, variants[name]))
        for name in sorted(variants)
        for plan in query.plans(variants[name].extended, ordered=True))
    name, _, _ = min(first_labels,
                     key=lambda row: (row[2], variants[row[0]].extended))
    return (name, "value-free: first-label trie-node frequencies, "
                  "fewest wins, rp on a tie", first_labels)


def plan_route(query, variants, variant=None, *, ordered=False,
               strategy="auto", budget=None):
    """The :class:`Route` of ``query`` among ``variants`` (``variant``
    forces one): its plans (a cancellation point), then under
    ``strategy="auto"`` the rare label (:func:`rare_label`, charged to
    ``budget``), then the path to filter on."""
    if strategy not in ("auto", "trie"):
        raise ValueError(f"unknown strategy {strategy!r}")
    choice = variant_choice(query, variants, variant)
    variant_index = variants[choice[0]]
    plans = query.plans(variant_index.extended, ordered=ordered,
                        budget=budget)
    rare = None
    if strategy == "auto":
        rare = rare_label(plans[0], variant_index, budget)
        if rare[2] is not None:
            return Route(*choice, plans, rare)
    if len(plans) == 1:
        return Route(*choice, plans, rare, walked=plans[0])
    path, plan, nodes = filter_path(query, variant_index, budget)
    return Route(*choice, plans, rare, walked=plan, path=path,
                 path_nodes=nodes)


def run_query(query, variants, variant, view_loader_of, *, ordered=False,
              use_maxgap=True, strategy="auto", maxgap_granularity="label",
              stats=None, budget=None):
    """Execute the :class:`Route` of ``query`` (a :class:`PreparedQuery`)
    among ``variants``, ``variant`` forcing one; return the
    ``QueryResult`` and ``stats`` (a :class:`QueryStats`, made if None).

    ``view_loader_of(variant_index)`` gives the chosen variant's
    ``doc_id -> DocView`` callable.  ``ordered`` matches the twig's own branch
    order only (Section 5.7); ``use_maxgap`` applies Theorem 4.
    ``strategy="auto"`` lets few documents of the rarest query label
    drive (``stats.strategy`` reads ``"document"``; a match's document
    holds every LPS(Q) label), ``"trie"`` forces Algorithm 1.  The
    ``filter`` counters are the Algorithm 1 pass plus the nodes,
    candidates and MaxGap prunes of the in-document check.

    ``budget`` (a :class:`~repro.prix.budget.BudgetMeter`) is put in its
    filter phase first: a scatter's one meter has seen the previous
    shard's refinement.  Exhaustion while filtering propagates as
    :class:`~repro.prix.budget.BudgetExceededError` (an incomplete pass
    may have false dismissals); in refinement it returns the filter's
    candidate documents as an ``approximate=True`` superset.
    """
    if stats is None:
        stats = QueryStats()
    if budget is not None:
        budget.enter_filter()
    route = plan_route(query, variants, variant, ordered=ordered,
                       strategy=strategy, budget=budget)
    variant_index = variants[route.variant]
    view_loader = view_loader_of(variant_index)
    stats.variant = route.variant
    stats.arrangements = len(route.plans)
    stats.strategy = "document" if route.walked is None else "trie"
    maxgap_table = variant_index.maxgap if use_maxgap else None

    views = {}

    # ---- Phase 1: filtering (complete, no false dismissals) ----------
    # Candidates accumulate as (plan, doc_id, positions) in exactly the
    # order the interleaved pipeline used to refine them, so a budget-
    # free run produces byte-identical results.  A path's documents
    # hold the twig in any order if they hold it at all (a superset of
    # the answer's), so each is checked against every arrangement.
    pending = []
    documents = None
    if route.walked is None:
        documents = route.rare[2]
    else:
        found, _ = find_subsequences(
            route.walked, variant_index.symbol_index,
            variant_index.docid_index, variant_index.root_range,
            maxgap_table=maxgap_table, stats=stats.filter,
            granularity=maxgap_granularity, budget=budget)
        if route.path is None:
            for doc_ids, positions in found:
                for doc_id in doc_ids:
                    pending.append((route.walked, doc_id, positions))
        else:
            documents = sorted({doc_id for doc_ids, _ in found
                                for doc_id in doc_ids})
    if documents is not None:
        stats.candidate_documents = len(documents)
        for doc_id in documents:
            view = view_loader(doc_id)
            views[doc_id] = view
            positions_of = view.lps_positions()
            for plan in route.plans:
                for positions in _subsequences_in_document(
                        positions_of, plan, maxgap_table, stats.filter,
                        budget=budget):
                    pending.append((plan, doc_id, positions))

    # ---- Phase 2: refinement (budget exhaustion degrades) ------------
    if budget is not None:
        budget.enter_refinement()
    seen = set()
    matches = []
    degraded = None

    def emit(plan, view, doc_id, positions):
        stats.candidates_refined += 1
        embeddings = refine(plan, view, positions, budget=budget)
        if embeddings:
            stats.candidates_accepted += 1
        for embedding in embeddings:
            images, canonical = _to_images(
                embedding, plan, view, query.node_index, query.signatures)
            key = (doc_id, canonical)
            if key not in seen:
                seen.add(key)
                matches.append(TwigMatch(doc_id=doc_id, images=images,
                                         canonical=canonical))

    for plan, doc_id, positions in pending:
        try:
            if budget is not None:
                budget.charge_candidate()
            view = views.get(doc_id)
            if view is None:
                view = view_loader(doc_id)
                views[doc_id] = view
            emit(plan, view, doc_id, positions)
        except BudgetExceededError as error:
            assert error.reason.phase == PHASE_REFINEMENT
            degraded = error.reason
            break

    stats.documents_loaded = len(views)   # each document loads once
    if degraded is not None:
        superset = sorted({doc_id for _, doc_id, _ in pending})
        result = QueryResult(
            (TwigMatch(doc_id=doc_id, images=()) for doc_id in superset),
            approximate=True, degradation_reason=degraded)
        stats.approximate = True
        stats.degradation_reason = degraded
        stats.matches = len(result)
        return result, stats

    stats.matches = len(matches)
    return QueryResult(matches), stats


def filter_path(query, variant_index, budget=None):
    """``(path, plan, first-label trie nodes)`` of the root-to-leaf path
    of ``query`` (a twig pattern or :class:`PreparedQuery`) whose plan's
    first LPS label is on the fewest trie nodes, the first in preorder
    on a tie: a route filters an unordered twig on it."""
    path, plan = min(prepare(query).path_plans(variant_index.extended,
                                               budget),
                     key=lambda pair: first_label_nodes(pair[1],
                                                        variant_index))
    return path, plan, first_label_nodes(plan, variant_index)


def rare_label(plan, variant_index, budget=None):
    """``(label, trie nodes, documents)`` of the rarest LPS(Q) label of
    ``plan``: the sorted documents whose terminal lies in one of its
    trie nodes -- every document that could match any arrangement --
    or None past :data:`RARE_LABEL_NODE_LIMIT` nodes or
    :data:`RARE_LABEL_DOC_LIMIT` documents.  Each Docid range query,
    and the symbol lookup before them, is charged to ``budget``."""
    counts = variant_index.label_counts
    label = min(plan.qlps, key=lambda label: counts.get(label, 0))
    nodes = counts.get(label, 0)
    if nodes == 0:
        return label, 0, ()
    if nodes > RARE_LABEL_NODE_LIMIT:
        return label, nodes, None
    if budget is not None:
        budget.charge_range_query()
    documents = set()
    finger = [None]     # the nodes come in LeftPos order
    for left, right, _ in variant_index.symbol_index.range_query_full(
            label, variant_index.root_range[0],
            variant_index.root_range[1]):
        if budget is not None:
            budget.charge_range_query()
        documents.update(variant_index.docid_index.documents_in(
            left, right, finger))
        if len(documents) > RARE_LABEL_DOC_LIMIT:
            return label, nodes, None
    return label, nodes, tuple(sorted(documents))


def _subsequences_in_document(positions_of, plan, maxgap_table,
                              filter_stats, budget=None):
    """Enumerate subsequence occurrences of LPS(Q) inside one document,
    given the document's ``{label: LPS positions}``
    (:meth:`~repro.prix.refinement.DocView.lps_positions`).

    Applies the same Theorem 4 gap bounds as the trie filter, so the two
    strategies inspect comparable candidate sets.
    """
    qlps = plan.qlps
    for label in qlps:
        if label not in positions_of:
            return

    chosen = [0] * len(qlps)

    def recurse(index, after):
        candidates = positions_of[qlps[index]]
        for position in candidates:
            if position <= after:
                continue
            filter_stats.nodes_visited += 1
            if budget is not None:
                budget.checkpoint()
            if maxgap_table is not None and index > 0:
                kind = plan.rel_kinds[index - 1]
                if kind != REL_UNPRUNABLE:
                    gap = position - chosen[index - 1]
                    if not _maxgap_admits(
                            kind, gap, maxgap_table.get(qlps[index - 1])):
                        filter_stats.pruned_by_maxgap += 1
                        continue
            chosen[index] = position
            if index + 1 == len(qlps):
                filter_stats.candidates += 1
                yield tuple(chosen)
            else:
                yield from recurse(index + 1, position)

    yield from recurse(0, 0)


def _to_images(embedding, plan, view, node_index, signatures):
    """Convert a match-tree embedding to pattern-node images.

    Returns ``(images, canonical)``: the per-pattern-node images, and the
    automorphism-invariant ``(signature_id, image)`` set used to
    deduplicate occurrences across branch arrangements.
    """
    items = []
    canonical = []
    for number, data_number in embedding.items():
        source = plan.sources.get(number)
        if source is None or source.is_star:
            continue
        original = view.original_number(data_number)
        items.append((node_index[id(source)], original))
        canonical.append((signatures[id(source)], original))
    return tuple(sorted(items)), frozenset(canonical)
