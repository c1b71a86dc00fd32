"""Tests for query budgets and graceful degradation.

The contract under test (``docs/ROBUSTNESS.md``): a budget that runs
out during *refinement* degrades to an ``approximate=True`` superset of
the exact answer (justified by Theorems 1-2 -- the filter has no false
dismissals), while a budget that runs out during *filtering* is a hard
typed error (an incomplete filter pass could silently drop answers).
An absent or unlimited budget must not change results at all.
"""

import pytest

from repro.prix.budget import (PHASE_FILTER, PHASE_REFINEMENT,
                               BudgetExceededError, QueryBudget)
from repro.prix.index import IndexOptions, PrixIndex
from repro.prix.matcher import QueryResult, TwigMatch
from repro.storage.stats import IOStats
from repro.xmlkit.parser import parse_document

TEXTS = [
    '<bib><book><author>knuth</author><title>taocp</title></book>'
    '<book><author>gray</author><title>txn</title></book></bib>',
    '<bib><book><author>date</author><title>intro</title></book></bib>',
    '<bib><book><author>gray</author><title>bench</title></book>'
    '<article><author>codd</author></article></bib>',
    '<bib><article><author>knuth</author></article></bib>',
]
QUERY = '//book[./author]/title'


@pytest.fixture(scope="module")
def index():
    docs = [parse_document(text, doc_id)
            for doc_id, text in enumerate(TEXTS, start=1)]
    with PrixIndex.build(docs, IndexOptions(page_size=256,
                                            pool_pages=32)) as built:
        yield built


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestBudgetDataclass:
    def test_default_is_unlimited(self):
        assert QueryBudget().unlimited

    def test_any_cap_is_limited(self):
        assert not QueryBudget(max_candidates=5).unlimited
        assert not QueryBudget(max_range_queries=5).unlimited
        assert not QueryBudget(max_physical_reads=5).unlimited
        assert not QueryBudget(deadline_seconds=0.5).unlimited

    @pytest.mark.parametrize("caps", [
        dict(deadline_seconds=float("nan")),
        dict(deadline_seconds=float("inf")),
        dict(max_candidates=-1),
    ], ids=["nan-deadline", "inf-deadline", "negative-candidates"])
    def test_a_cap_not_finite_or_negative_is_refused(self, caps):
        # A NaN deadline never fires; -1 would degrade exactly like 0.
        with pytest.raises(ValueError, match=next(iter(caps))):
            QueryBudget(**caps)

    def test_fork_copies_limits_into_a_fresh_budget(self):
        template = QueryBudget(max_range_queries=1, max_physical_reads=2,
                               max_candidates=3, deadline_seconds=4.0)
        fork = template.fork()
        assert fork == template
        assert fork is not template
        assert QueryBudget().fork().unlimited

    def test_fork_tightens_the_deadline_but_never_loosens_it(self):
        template = QueryBudget(max_candidates=8, deadline_seconds=5.0)
        tightened = template.fork(deadline_seconds=1.0)
        assert tightened.max_candidates == template.max_candidates
        assert tightened.deadline_seconds == 1.0
        loosened = template.fork(deadline_seconds=9.0)
        assert loosened.deadline_seconds == 5.0  # min() wins
        assert QueryBudget().fork(deadline_seconds=2.0).deadline_seconds \
            == 2.0

    def test_forked_meters_do_not_share_state(self):
        # The serving-tier property: one template budget, one meter per
        # request -- spending in one fork's meter must never count
        # against another's caps.
        template = QueryBudget(max_range_queries=2)
        first = template.fork().meter()
        second = template.fork().meter()
        first.charge_range_query()
        first.charge_range_query()
        second.charge_range_query()
        second.charge_range_query()   # its own allowance, untouched
        with pytest.raises(BudgetExceededError):
            first.charge_range_query()

    def test_forked_meter_deadline_starts_at_its_own_meter_call(self):
        clock = FakeClock()
        template = QueryBudget(deadline_seconds=1.0)
        clock.now = 10.0   # time passed before this request arrived
        meter = template.fork().meter(clock=clock)
        clock.now = 10.5
        meter.checkpoint()  # half the allowance left, not long expired
        clock.now = 11.5
        with pytest.raises(BudgetExceededError):
            meter.checkpoint()


class TestBudgetMeter:
    def test_range_queries_exhaust_in_filter_phase(self):
        meter = QueryBudget(max_range_queries=2).meter()
        meter.charge_range_query()
        meter.charge_range_query()
        with pytest.raises(BudgetExceededError) as excinfo:
            meter.charge_range_query()
        reason = excinfo.value.reason
        assert reason.phase == PHASE_FILTER
        assert reason.limit == "range_queries"
        assert (reason.spent, reason.budget) == (3, 2)

    def test_candidates_exhaust_in_refinement_phase(self):
        meter = QueryBudget(max_candidates=1).meter()
        meter.enter_refinement()
        meter.charge_candidate()
        with pytest.raises(BudgetExceededError) as excinfo:
            meter.charge_candidate()
        assert excinfo.value.reason.phase == PHASE_REFINEMENT
        assert excinfo.value.reason.limit == "candidates"

    def test_physical_reads_measured_as_delta(self):
        stats = IOStats()
        stats.physical_reads = 100
        meter = QueryBudget(max_physical_reads=5).meter(io_stats=stats)
        stats.physical_reads = 105
        meter.checkpoint()   # exactly at cap: fine
        stats.physical_reads = 106
        with pytest.raises(BudgetExceededError) as excinfo:
            meter.checkpoint()
        assert excinfo.value.reason.limit == "physical_reads"
        assert excinfo.value.reason.spent == 6

    def test_deadline_with_injected_clock(self):
        clock = FakeClock()
        meter = QueryBudget(deadline_seconds=1.0).meter(clock=clock)
        clock.now = 0.9
        meter.checkpoint()
        clock.now = 1.5
        with pytest.raises(BudgetExceededError) as excinfo:
            meter.checkpoint()
        reason = excinfo.value.reason
        assert reason.limit == "deadline"
        assert "1.5" in str(reason) or "deadline" in str(reason)

    def test_reason_as_dict_is_json_ready(self):
        meter = QueryBudget(max_candidates=0).meter()
        meter.enter_refinement()
        with pytest.raises(BudgetExceededError) as excinfo:
            meter.charge_candidate()
        as_dict = excinfo.value.reason.as_dict()
        assert as_dict["phase"] == PHASE_REFINEMENT
        assert as_dict["limit"] == "candidates"


class TestQueryResultType:
    def test_behaves_as_list(self):
        result = QueryResult([TwigMatch(doc_id=1, images=())])
        assert len(result) == 1
        assert result == [TwigMatch(doc_id=1, images=())]
        assert not result.approximate
        assert result.degradation_reason is None

    def test_doc_ids_sorted_distinct(self):
        result = QueryResult([TwigMatch(doc_id=3, images=()),
                              TwigMatch(doc_id=1, images=()),
                              TwigMatch(doc_id=3, images=())])
        assert result.doc_ids == [1, 3]

    def test_empty_equality_with_literal(self):
        assert QueryResult() == []


class TestQueryDegradation:
    def test_exact_result_is_not_approximate(self, index):
        result = index.query(QUERY)
        assert not result.approximate
        assert result.doc_ids == [1, 2, 3]

    def test_generous_budget_is_identity(self, index):
        exact = index.query(QUERY)
        budgeted = index.query(QUERY, budget=QueryBudget(
            max_range_queries=10_000, max_candidates=10_000))
        assert list(budgeted) == list(exact)
        assert not budgeted.approximate

    def test_refinement_exhaustion_degrades_to_superset(self, index):
        exact = index.query(QUERY)
        result = index.query(QUERY,
                             budget=QueryBudget(max_candidates=1))
        assert result.approximate
        assert set(result.doc_ids) >= set(exact.doc_ids)
        reason = result.degradation_reason
        assert reason.phase == PHASE_REFINEMENT
        assert reason.limit == "candidates"
        # Candidate entries carry no verified embedding.
        assert all(match.images == () for match in result)

    def test_degraded_stats_are_marked(self, index):
        pattern = QUERY
        result, stats = index.query_with_stats(
            pattern, budget=QueryBudget(max_candidates=1))
        assert result.approximate
        assert stats.approximate
        assert stats.degradation_reason is result.degradation_reason

    def test_filter_exhaustion_is_a_hard_error(self, index):
        with pytest.raises(BudgetExceededError) as excinfo:
            index.query(QUERY, budget=QueryBudget(max_range_queries=0))
        assert excinfo.value.reason.phase == PHASE_FILTER

    def test_zero_candidate_budget_still_superset(self, index):
        exact = index.query(QUERY)
        result = index.query(QUERY,
                             budget=QueryBudget(max_candidates=0))
        assert result.approximate
        assert set(result.doc_ids) >= set(exact.doc_ids)

    def test_reason_renders_human_readable(self, index):
        result = index.query(QUERY,
                             budget=QueryBudget(max_candidates=1))
        text = str(result.degradation_reason)
        assert "candidates" in text and "refinement" in text

    def test_document_strategy_degrades_too(self, index):
        exact = index.query(QUERY, strategy="trie")
        result, stats = index.query_with_stats(
            QUERY, budget=QueryBudget(max_candidates=1))
        assert stats.strategy == "document"
        assert result.approximate
        assert set(result.doc_ids) >= set(exact.doc_ids)


class TestPlanningIsACancellationPoint:
    """An unordered twig of 7 distinct sibling branches has 7! = 5 040
    arrangements, each one plan; a deadline that runs out while they
    are built stops the query there, on one index and on a scatter."""

    PATTERN = "//r[a][b][c][d][e][f]/g"
    DEADLINE = 0.2

    @pytest.fixture
    def stalled_planner(self, monkeypatch):
        """Count plan builds; the 10th outlasts :attr:`DEADLINE`."""
        import time

        import repro.prix.matcher as matcher
        import repro.prix.plan as plan
        calls = []
        build = plan.build_plan

        def counting(*args, **kwargs):
            calls.append(None)
            if len(calls) == 10:
                time.sleep(self.DEADLINE * 1.25)
            return build(*args, **kwargs)
        monkeypatch.setattr(matcher, "build_plan", counting)
        monkeypatch.setattr(plan, "build_plan", counting)
        return calls

    @pytest.fixture(scope="class")
    def docs(self):
        return [parse_document(
            f"<r>{''.join(f'<{tag}>{doc_id}</{tag}>' for tag in 'abcdefg')}"
            "</r>", doc_id) for doc_id in range(1, 5)]

    def assert_stopped_while_planning(self, excinfo, calls):
        reason = excinfo.value.reason
        assert (reason.phase, reason.limit) == (PHASE_FILTER, "deadline")
        assert 10 <= len(calls) < 5040

    def test_monolith(self, docs, stalled_planner):
        budget = QueryBudget(deadline_seconds=self.DEADLINE)
        with PrixIndex.build(docs) as index:
            with pytest.raises(BudgetExceededError) as excinfo:
                index.query(self.PATTERN, budget=budget)
        self.assert_stopped_while_planning(excinfo, stalled_planner)

    def test_two_shard_scatter(self, docs, stalled_planner, tmp_path):
        from repro.shard import ShardedIndex, build_shards
        directory = str(tmp_path / "shards")
        build_shards(docs, directory, shards=2)
        budget = QueryBudget(deadline_seconds=self.DEADLINE)
        with ShardedIndex.open(directory) as sharded:
            with pytest.raises(BudgetExceededError) as excinfo:
                sharded.query(self.PATTERN, budget=budget)
        self.assert_stopped_while_planning(excinfo, stalled_planner)
