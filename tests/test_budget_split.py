"""How a shard set meters one query's budget (docs/SHARDING.md).

A scatter splits one query into a query per shard, but meters it once:
every shard runs under the same :class:`BudgetMeter`, so the caller's
caps bound the shards' work together, exactly as they bound a
monolithic query.  These tests pin the conservation law the merge's
soundness leans on -- for every countable cap, the shards together
admit exactly the caller's cap (never more, never fewer), and the
wall-clock deadline is shared rather than divided -- and the two
shapes of work an evenly divided budget got wrong: all of the work in
an early shard, and page reads left over at the end of a shard.
"""

import pytest

from repro.bench.workloads import queries_for
from repro.datasets import dblp, get_corpus
from repro.prix.budget import (PHASE_FILTER, PHASE_REFINEMENT,
                               BudgetExceededError, QueryBudget)
from repro.prix.index import PrixIndex
from repro.shard import ShardedIndex, build_shards
from repro.xmlkit.parser import parse_document

PATTERN = "//article[./author]/title"


def canonical(matches):
    return [(m.doc_id, m.images) for m in matches]


@pytest.fixture(scope="module")
def shard_sets(tmp_path_factory):
    """``n -> (open shard set, uncapped answer, its stats)``, cold and on
    the trie strategy, so every shard's filter opens with a charge."""
    docs = dblp(n_records=40, seed=3).documents
    root = tmp_path_factory.mktemp("sets")
    opened = {}
    try:
        for n in (1, 2, 3, 4, 7, 8, 16):
            target = str(root / str(n))
            build_shards(docs, target, shards=n)
            sharded = ShardedIndex.open(target)
            opened[n] = (sharded,) + sharded.query_with_stats(
                PATTERN, strategy="trie", cold=True)
        yield opened
    finally:
        for sharded, _, _ in opened.values():
            sharded.close()


def capped(sharded, **caps):
    """``(result, stats)`` under ``caps``, or the filter-phase error."""
    try:
        return sharded.query_with_stats(PATTERN, strategy="trie", cold=True,
                                        budget=QueryBudget(**caps))
    except BudgetExceededError as error:
        assert error.reason.phase == PHASE_FILTER
        return error, None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 16])
@pytest.mark.parametrize("cap", [0, 1, 2, 5, 8, 100, 101, 1000])
def test_split_conserves_every_countable_cap_exactly(shard_sets, n, cap):
    sharded, exact, uncapped = shard_sets[n]

    # Trie range queries: one charge per issued probe, all in filters.
    result, _ = capped(sharded, max_range_queries=cap)
    if cap >= uncapped.filter.probes_issued:
        assert canonical(result) == canonical(exact)
    else:
        assert isinstance(result, BudgetExceededError)
        assert result.reason.spent == cap + 1

    # Candidates: one charge per refined candidate, all in refinements.
    result, stats = capped(sharded, max_candidates=cap)
    if cap >= uncapped.candidates_refined:
        assert not result.approximate
        assert canonical(result) == canonical(exact)
    else:
        assert result.approximate
        assert result.degradation_reason.phase == PHASE_REFINEMENT
        assert stats.candidates_refined == cap
        assert set(result.doc_ids) >= set(exact.doc_ids)

    # Physical reads: every shard's filter opens with a checkpoint that
    # sees the earlier shards' reads, so an exact answer overspends at
    # most by what the last shard read after its last checkpoint.
    result, stats = capped(sharded, max_physical_reads=cap)
    if cap >= uncapped.physical_reads:
        assert canonical(result) == canonical(exact)
    elif stats is not None and not result.approximate:
        assert sum(row["physical_reads"]
                   for row in stats.per_shard[:-1]) <= cap


class Ticker:
    """A clock that advances one second per reading."""

    def __init__(self):
        self.now = -1.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_split_shares_the_deadline_instead_of_dividing_it(shard_sets, n,
                                                          monkeypatch):
    """With a clock that ticks once per checkpoint, the whole scatter
    takes ``ticks`` seconds: a deadline of ``ticks`` lets every shard
    finish, one of ``ticks - 1`` does not."""
    sharded, exact, _ = shard_sets[n]
    meter = QueryBudget.meter
    clocks = []

    def ticking(budget, io_stats=None):
        clocks.append(Ticker())
        return meter(budget, io_stats=io_stats, clock=clocks[-1])

    monkeypatch.setattr(QueryBudget, "meter", ticking)
    result, _ = capped(sharded, deadline_seconds=1e9)
    assert len(clocks) == 1     # one meter for the whole scatter
    ticks = clocks[0].now
    result, _ = capped(sharded, deadline_seconds=ticks)
    assert canonical(result) == canonical(exact)
    result, _ = capped(sharded, deadline_seconds=ticks - 1)
    assert isinstance(result, BudgetExceededError) or result.approximate
    reason = (result.reason if isinstance(result, BudgetExceededError)
              else result.degradation_reason)
    assert (reason.limit, reason.spent, reason.budget) == (
        "deadline", ticks, ticks - 1)


def test_work_in_an_early_shard_gets_the_whole_cap(tmp_path):
    """All of the matches are in the first shard: the cap the monolith
    answers exactly under answers the shard set exactly too (an evenly
    divided cap gave that shard a quarter of it)."""
    docs = [parse_document("<r><a><b/></a><a><b/></a></r>", doc_id=1 + i)
            for i in range(2)]
    docs += [parse_document("<r><z/></r>", doc_id=3 + i) for i in range(6)]
    target = str(tmp_path / "early")
    build_shards(docs, target, shards=4)
    with ShardedIndex.open(target) as sharded, \
            PrixIndex.build(docs) as monolith:
        exact, stats = sharded.query_with_stats("//a/b")
        needs = [row["candidates_refined"] for row in stats.per_shard]
        assert needs == [4, 0, 0, 0]
        budget = QueryBudget(max_candidates=sum(needs))
        assert not monolith.query("//a/b", budget=budget).approximate
        budgeted = sharded.query("//a/b", budget=budget)
        assert not budgeted.approximate
        assert canonical(budgeted) == canonical(exact)


@pytest.mark.parametrize("cap", [13, 14])
def test_reads_left_at_the_end_of_a_shard_count(tmp_path, cap):
    """Tiny swissprot Q6 on 4 shards reads 16 pages cold.  Under a cap
    of 13 or 14 pages the pages an earlier shard read after its last
    checkpoint are counted at the next shard's first one, so the filter
    stops with an error instead of answering after 16 reads."""
    target = str(tmp_path / "swissprot")
    build_shards(get_corpus("swissprot", "tiny").documents, target,
                 shards=4)
    q6 = next(spec for spec in queries_for("swissprot")
              if spec.qid == "Q6")
    with ShardedIndex.open(target) as sharded:
        _, stats = sharded.query_with_stats(q6.xpath, cold=True)
        assert stats.physical_reads == 16
        with pytest.raises(BudgetExceededError) as caught:
            sharded.query(q6.xpath, cold=True,
                          budget=QueryBudget(max_physical_reads=cap))
        assert caught.value.reason.phase == PHASE_FILTER
        assert caught.value.reason.limit == "physical_reads"
