"""Differential property tests: the PRIX pipeline against the oracle.

These are the repository's strongest correctness guarantees: for random
corpora and random twigs (child/descendant axes, stars, values, absolute
anchors), both index variants, MaxGap on and off, and both match
semantics, the engine's answer set equals the exhaustive oracle's --
no false alarms, no false dismissals (Theorems 1-4 end to end).

At these sizes every label is rare, so the default ``strategy="auto"``
answers all of the small cases from the document fallback;
:func:`test_trie_filter_matches_oracle_and_per_plan_walk` is the one
that drives Algorithm 1 (``strategy="trie"``), on corpora where its
states repeat.
"""

import random
from itertools import product

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import make_random_tree, make_random_twig, per_plan_walk
from repro.baselines.naive import naive_matches
from repro.prix.filtering import FilterStats, find_subsequences
from repro.prix.index import PrixIndex
from repro.prix.matcher import _subsequences_in_document, filter_path
from repro.prix.plan import build_plan
from repro.prufer.sequence import extended_sequence, regular_sequence
from repro.query.twig import arrangements, collapse, root_paths
from repro.xmlkit.tree import Document


def build_case(seed, n_docs=3, max_tree_nodes=14, max_twig_nodes=5,
               tags="abcd"):
    rng = random.Random(seed)
    docs = [Document(make_random_tree(rng, max_nodes=max_tree_nodes,
                                      tags=tags),
                     doc_id=i + 1) for i in range(n_docs)]
    pattern = make_random_twig(rng, max_nodes=max_twig_nodes, tags=tags)
    return docs, pattern


def oracle_set(docs, pattern, ordered=False):
    return {(d.doc_id, emb) for d in docs
            for emb in naive_matches(d, pattern, ordered=ordered)}


def engine_set(index, pattern, **kwargs):
    return {(m.doc_id, m.canonical)
            for m in index.query(pattern, **kwargs)}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_rp_variant_matches_oracle(seed):
    docs, pattern = build_case(seed)
    index = PrixIndex.build(docs)
    assert engine_set(index, pattern, variant="rp") == oracle_set(
        docs, pattern)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_ep_variant_matches_oracle(seed):
    docs, pattern = build_case(seed)
    index = PrixIndex.build(docs)
    assert engine_set(index, pattern, variant="ep") == oracle_set(
        docs, pattern)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_maxgap_pruning_is_lossless(seed):
    docs, pattern = build_case(seed)
    index = PrixIndex.build(docs)
    pruned = engine_set(index, pattern, use_maxgap=True)
    unpruned = engine_set(index, pattern, use_maxgap=False)
    assert pruned == unpruned == oracle_set(docs, pattern)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_ordered_semantics_matches_oracle(seed):
    docs, pattern = build_case(seed)
    index = PrixIndex.build(docs)
    got = engine_set(index, pattern, ordered=True)
    want = oracle_set(docs, pattern, ordered=True)
    assert got == want


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_ordered_subset_of_unordered(seed):
    docs, pattern = build_case(seed)
    index = PrixIndex.build(docs)
    assert engine_set(index, pattern, ordered=True) <= engine_set(
        index, pattern, ordered=False)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_larger_trees_still_agree(seed):
    docs, pattern = build_case(seed, n_docs=2, max_tree_nodes=40,
                               max_twig_nodes=6)
    index = PrixIndex.build(docs)
    assert engine_set(index, pattern) == oracle_set(docs, pattern)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_filter_path_documents_cover_the_answer(seed):
    """Every root-to-leaf path of a twig has two or more sequenced
    nodes, so a non-empty LPS, and the chosen path's ordered Algorithm 1
    pass dismisses no document of the unordered answer."""
    docs, pattern = build_case(seed)
    want = {doc_id for doc_id, _ in oracle_set(docs, pattern)}
    with PrixIndex.build(docs) as index:
        for built in index._variants.values():
            for path in root_paths(pattern):
                assert build_plan(collapse(path),
                                  extended=built.extended).qlps
            _, plan, _ = filter_path(pattern, built)
            for granularity in ("label", "node"):
                found, _ = find_subsequences(
                    plan, built.symbol_index, built.docid_index,
                    built.root_range, maxgap_table=built.maxgap,
                    granularity=granularity)
                assert {doc_id for doc_ids, _ in found
                        for doc_id in doc_ids} >= want


def lps_positions(text):
    """``{label: tuple of 1-based positions}`` read off an LPS."""
    positions = {}
    for position, label in enumerate(text, start=1):
        positions[label] = positions.get(label, ()) + (position,)
    return positions


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_view_lps_positions_match_the_sequences(seed):
    """A stored document's view indexes its LPS once: per label, the
    positions the regular or extended sequence puts it at, as tuples,
    and the same object on every later call."""
    docs, _ = build_case(seed, max_tree_nodes=29)
    sequence_of = {"rp": regular_sequence, "ep": extended_sequence}
    with PrixIndex.build(docs) as index:
        for variant, sequence in sequence_of.items():
            load = index._view_loader(index._variants[variant])
            for doc in docs:
                view = load(doc.doc_id)
                positions = view.lps_positions()
                assert positions == lps_positions(sequence(doc).lps)
                assert all(type(found) is tuple
                           for found in positions.values())
                assert view.lps_positions() is positions


#: Subsequence occurrences of the plans' LPS(Q) in the documents' LPS
#: above which a generated case is discarded: the per-plan reference
#: walk, the candidate lists and refinement all grow with that number
#: (the shared walk does not), and tier-1 has to stay short.
OCCURRENCE_LIMIT = 8000


def occurrences(text, wanted):
    """How many ways ``wanted`` embeds in ``text`` as a subsequence."""
    ways = [1] + [0] * len(wanted)
    for symbol in text:
        for at in range(len(wanted), 0, -1):
            if wanted[at - 1] == symbol:
                ways[at] += ways[at - 1]
    return ways[-1]


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_trie_filter_matches_oracle_and_per_plan_walk(seed):
    """Algorithm 1 itself, on generated inputs: a two- or three-letter
    alphabet makes labels recur on one trie path, so the same (plan
    suffix, trie node) state is reached again and again.

    A twig with one arrangement is filtered by its own plan, so its
    counters are the per-plan walk's.  An unordered twig with several is
    filtered by its :func:`filter_path` alone, so its counters are that
    path's walk plus the in-document check of every arrangement inside
    the path's documents -- which cover the oracle's."""
    docs, pattern = build_case(seed, n_docs=4 + seed % 3,
                               max_tree_nodes=29, max_twig_nodes=5,
                               tags="abc"[:2 + seed % 2])
    index = PrixIndex.build(docs)
    cases = []
    for variant, ordered in product(("rp", "ep"), (True, False)):
        built = index._variants[variant]
        twigs = [collapse(pattern)] if ordered else arrangements(pattern)
        cases.append((variant, ordered, built,
                      [build_plan(twig, extended=built.extended)
                       for twig in twigs]))
    texts = {"rp": [regular_sequence(doc).lps for doc in docs],
             "ep": [extended_sequence(doc).lps for doc in docs]}
    assume(sum(occurrences(text, plan.qlps)
               for variant, _, _, plans in cases
               for text in texts[variant] for plan in plans)
           <= OCCURRENCE_LIMIT)
    for variant, ordered, built, plans in cases:
        want = oracle_set(docs, pattern, ordered=ordered)
        for granularity, use_maxgap in product(("label", "node"),
                                               (True, False)):
            matches, stats = index.query_with_stats(
                pattern, variant=variant, ordered=ordered, strategy="trie",
                maxgap_granularity=granularity, use_maxgap=use_maxgap)
            assert stats.strategy == "trie"
            assert {(m.doc_id, m.canonical) for m in matches} == want
            assert stats.filter.probes_issued <= stats.filter.range_queries

            args = (built.symbol_index, built.docid_index, built.root_range,
                    built.maxgap if use_maxgap else None)
            reference = FilterStats(
                probes_issued=stats.filter.probes_issued)
            walked = FilterStats()
            for plan in plans:
                candidates, _ = find_subsequences(plan, *args,
                                                  granularity=granularity)
                expected, _ = per_plan_walk(plan, *args, stats=walked,
                                            granularity=granularity)
                assert candidates == expected
            if len(plans) == 1:
                reference.merge(walked)
            else:
                _, path_plan, _ = filter_path(pattern, built)
                found, _ = per_plan_walk(path_plan, *args, stats=reference,
                                         granularity=granularity)
                path_docs = {doc_id for doc_ids, _ in found
                             for doc_id in doc_ids}
                assert path_docs >= {doc_id for doc_id, _ in want}
                for doc_id in sorted(path_docs):
                    positions_of = lps_positions(texts[variant][doc_id - 1])
                    for plan in plans:
                        for _ in _subsequences_in_document(
                                positions_of, plan, args[3], reference):
                            pass
            assert stats.filter == reference
