"""Filtering (Algorithm 1) tests over a real index."""

import pytest

from helpers import per_plan_walk
from repro.bench.workloads import query_by_id
from repro.datasets import figure2_query
from repro.prix.budget import BudgetExceededError, QueryBudget
from repro.prix.filtering import FilterStats, find_subsequences
from repro.prix.index import PrixIndex, VARIANT_REGULAR
from repro.prix.plan import build_plan
from repro.query.twig import arrangements, collapse
from repro.query.xpath import parse_xpath


def filter_args(index, xpath_or_pattern, use_maxgap=True, extended=False):
    """The ordered plan of a query and what a filter pass reads it from."""
    pattern = (parse_xpath(xpath_or_pattern)
               if isinstance(xpath_or_pattern, str) else xpath_or_pattern)
    plan = build_plan(collapse(pattern), extended=extended)
    variant = index._variants["ep" if extended else "rp"]
    return plan, (variant.symbol_index, variant.docid_index,
                  variant.root_range,
                  variant.maxgap if use_maxgap else None)


def run_filter(index, xpath_or_pattern, use_maxgap=True, extended=False,
               stats=None, budget=None):
    """Candidates of the query's one ordered plan, and the stats."""
    plan, args = filter_args(index, xpath_or_pattern, use_maxgap, extended)
    stats = FilterStats() if stats is None else stats
    candidates, _ = find_subsequences(plan, *args, stats=stats,
                                      budget=budget)
    assert stats.probes_issued <= stats.range_queries
    return candidates, stats


class TestSubsequenceMatching:
    def test_paper_query_found(self, fig2_doc):
        index = PrixIndex.build([fig2_doc])
        candidates, stats = run_filter(index, figure2_query())
        positions = {pos for _, pos in candidates}
        # Example 2/6: LPS(Q)=B A E D A matches at (3, 7, 11, 13, 14)
        # among possibly other subsequences (e.g. via position 6's B or
        # position 9's A).
        assert (3, 7, 11, 13, 14) in positions
        for docs, _ in candidates:
            assert docs == (1,)

    def test_positions_strictly_increasing(self, fig2_doc):
        index = PrixIndex.build([fig2_doc])
        candidates, _ = run_filter(index, figure2_query())
        for _, positions in candidates:
            assert all(a < b for a, b in zip(positions, positions[1:]))

    def test_no_match_for_absent_label(self, fig2_doc):
        index = PrixIndex.build([fig2_doc])
        candidates, _ = run_filter(index, "//ZZZ/A")
        assert candidates == []

    def test_multiple_documents_share_terminal(self, fig2_doc):
        from repro.xmlkit.tree import copy_tree, Document
        twin = Document(copy_tree(fig2_doc.root), doc_id=2)
        index = PrixIndex.build([fig2_doc, twin])
        candidates, _ = run_filter(index, figure2_query())
        docs = {doc for doc_tuple, _ in candidates for doc in doc_tuple}
        assert docs == {1, 2}

    def test_stats_counted(self, fig2_doc):
        index = PrixIndex.build([fig2_doc])
        _, stats = run_filter(index, figure2_query())
        assert stats.range_queries > 0
        assert stats.nodes_visited >= stats.candidates


class TestMaxGapPruning:
    def test_no_false_dismissals(self, tiny_dblp):
        """Theorem 4: pruning never changes the final answer."""
        with PrixIndex.build(tiny_dblp.documents) as index:
            for xpath in ('//inproceedings[./author="Jim Gray"]'
                          '[./year="1990"]',
                          "//www[./editor]/url",
                          "//inproceedings/author"):
                pattern = parse_xpath(xpath)
                with_pruning = index.query(pattern, use_maxgap=True)
                without = index.query(pattern, use_maxgap=False)
                assert {m.canonical for m in with_pruning} == \
                    {m.canonical for m in without}

    def test_pruning_reduces_work(self, tiny_treebank):
        index = PrixIndex.build(tiny_treebank.documents)
        pattern = parse_xpath("//NP/PP/NP[./NNS_OR_NN][./NN]")
        _, pruned_stats = index.query_with_stats(pattern, use_maxgap=True)
        _, full_stats = index.query_with_stats(pattern, use_maxgap=False)
        assert pruned_stats.filter.nodes_visited <= \
            full_stats.filter.nodes_visited
        assert pruned_stats.filter.pruned_by_maxgap > 0

    def test_paper_example_cb_pruning(self):
        """Section 5.4's CB example: MaxGap discards distant CB pairs."""
        from repro.xmlkit.tree import Document, element
        # Tree P of Figure 5: C with two children early, B parent.
        # Build a tree where label C's children span at most 1 and two
        # C-occurrences sit far apart in the LPS.
        root = element("A")
        b = element("B")
        c1 = element("C")
        c1.append(element("X"))
        c1.append(element("Y"))
        b.append(c1)
        filler = element("F")
        node = filler
        for _ in range(6):
            node = node.append(element("F"))
        b.append(filler)
        c2 = element("C")
        c2.append(element("Z"))
        b.append(c2)
        root.append(b)
        index = PrixIndex.build([Document(root, doc_id=1)])
        candidates_pruned, stats_pruned = run_filter(index, "//B/C/X")
        candidates_full, stats_full = run_filter(index, "//B/C/X",
                                                 use_maxgap=False)
        final_pruned = {pos for _, pos in candidates_pruned}
        final_full = {pos for _, pos in candidates_full}
        # Same true candidates survive...
        assert final_pruned <= final_full
        # ...but pruning inspected no more nodes.
        assert stats_pruned.nodes_visited <= stats_full.nodes_visited


class EventRecorder:
    """Duck-typed meter: the filter's cancellation points, in order."""

    def __init__(self):
        self.events = []

    def charge_range_query(self):
        self.events.append("probe")

    def checkpoint(self):
        self.events.append("node")


class ClockTrippingAt:
    """Reads 0.0 until its ``trip``-th call (counting from 0), then 10.0."""

    def __init__(self, trip):
        self.calls = 0
        self.trip = trip

    def __call__(self):
        self.calls += 1
        return 10.0 if self.calls > self.trip else 0.0


class StopWalk(Exception):
    pass


class TestBudgetThroughTheLoop:
    """The budget contract of ``find_subsequences`` (docs/ROBUSTNESS.md):
    one ``charge_range_query`` per *issued* probe, one ``checkpoint``
    per trie node read, and counters that are right when the pass is cut
    short.  Q6 on the EPIndex, ordered: 77 logical probes by the golden,
    38 of them issued."""

    @pytest.fixture(scope="class")
    def q6(self, tiny_indexes):
        from test_filter_counters_golden import FIELDS, load_golden
        golden = dict(zip(
            FIELDS, load_golden()["Q6/ep/ordered/trie/label"]))
        index = tiny_indexes["swissprot"]
        recorder = EventRecorder()
        _, stats = run_filter(index, query_by_id("Q6").xpath,
                              extended=True, budget=recorder)
        assert stats.range_queries == golden["range_queries"] == 77
        assert stats.nodes_visited == golden["nodes_visited"]
        assert stats.probes_issued == golden["probes_issued"] == 38
        assert recorder.events.count("probe") == stats.probes_issued
        assert recorder.events.count("node") < stats.nodes_visited
        return index, query_by_id("Q6").xpath, recorder.events, stats

    @staticmethod
    def reference_cut_at(index, xpath, issued):
        """Logical counters of the per-plan walk on reaching the probe
        the shared walk issues ``issued``-th (with one plan, a state is
        its level and the node probed inside)."""
        plan, args = filter_args(index, xpath, extended=True)
        states = set()

        def on_probe(i, left):
            states.add((i, left))
            if len(states) == issued:
                raise StopWalk

        stats = FilterStats()
        with pytest.raises(StopWalk):
            per_plan_walk(plan, *args, stats=stats, on_probe=on_probe)
        return stats

    @pytest.mark.parametrize("cap", [1, 7, 100])
    def test_range_query_cap_trips_on_the_same_probe(self, q6, cap):
        index, xpath, events, unbudgeted = q6
        stats = FilterStats()
        meter = QueryBudget(max_range_queries=cap).meter()
        if cap >= unbudgeted.probes_issued:
            run_filter(index, xpath, extended=True, stats=stats,
                       budget=meter)
            assert stats == unbudgeted
            return
        with pytest.raises(BudgetExceededError) as excinfo:
            run_filter(index, xpath, extended=True, stats=stats,
                       budget=meter)
        reason = excinfo.value.reason
        assert (reason.limit, reason.spent, reason.budget) == (
            "range_queries", cap + 1, cap)
        # The refused probe is counted, as issued and as logical; the
        # logical counters are the per-plan walk's on reaching it.
        assert stats.probes_issued == cap + 1
        reference = self.reference_cut_at(index, xpath, cap + 1)
        reference.probes_issued = cap + 1
        assert stats == reference
        assert stats.candidates <= unbudgeted.candidates

    def test_deadline_trips_between_two_nodes_of_one_probe(self, q6):
        index, xpath, events, unbudgeted = q6
        # A node checkpoint directly after another one: no probe between.
        at = next(i for i in range(1, len(events))
                  if events[i - 1] == events[i] == "node")
        stats = FilterStats()
        # Clock call 0 starts the meter; call i + 1 is event i's check.
        meter = QueryBudget(deadline_seconds=1.0).meter(
            clock=ClockTrippingAt(at + 1))
        with pytest.raises(BudgetExceededError) as excinfo:
            run_filter(index, xpath, extended=True, stats=stats,
                       budget=meter)
        assert excinfo.value.reason.limit == "deadline"
        assert stats.probes_issued == events[:at].count("probe")
        # Replayed sub-walks count in full on top of the nodes read.
        assert (events[:at + 1].count("node") <= stats.nodes_visited
                <= unbudgeted.nodes_visited)
        assert stats.probes_issued <= stats.range_queries


class TestSharedStates:
    """Each (level, trie node) state of a walk is solved once (DESIGN.md,
    "Cost of one filter pass"): results and logical counters are the
    plain per-plan walk's, with no more probes issued."""

    @pytest.mark.parametrize("qid,extended", [("Q6", True), ("Q6", False),
                                              ("Q2", False), ("Q8", True)])
    @pytest.mark.parametrize("granularity", ["label", "node"])
    def test_all_arrangements_equal_the_per_plan_walk(
            self, tiny_indexes, qid, extended, granularity):
        spec = query_by_id(qid)
        index = tiny_indexes[spec.corpus]
        plans = [build_plan(arranged, extended=extended)
                 for arranged in arrangements(parse_xpath(spec.xpath))]
        assert len(plans) > 1
        _, args = filter_args(index, spec.xpath, extended=extended)
        stats = FilterStats()
        reference = FilterStats()
        for plan in plans:
            candidates, _ = find_subsequences(plan, *args, stats=stats,
                                              granularity=granularity)
            expected, _ = per_plan_walk(plan, *args, stats=reference,
                                        granularity=granularity)
            assert candidates == expected
        assert 0 < stats.probes_issued <= stats.range_queries
        reference.probes_issued = stats.probes_issued
        assert stats == reference
