"""Query budgets, cooperative cancellation, and graceful degradation.

A :class:`QueryBudget` caps the resources one query may spend: trie
range queries, physical page reads, refinement candidates, and wall
clock.  The caps are enforced *cooperatively*: the filter and refinement
code calls back into a :class:`BudgetMeter` at its natural checkpoints
(each issued trie range query, each candidate, each refinement step), and
the meter raises a typed :class:`BudgetExceededError` when a cap is hit --
no threads, no signals, deterministic under test.

What exhaustion *means* depends on the phase, and the distinction is
justified by the paper's Theorems 1-2: every twig occurrence embeds as a
subsequence of the document's LPS, so the *complete* filter output is a
superset of the true answer with no false dismissals.

- Exhaustion during **refinement** therefore degrades gracefully: the
  filter's candidate documents are returned as an ``approximate=True``
  superset (:class:`~repro.prix.matcher.QueryResult`) with a structured
  :class:`DegradationReason` -- every true match's document is in the
  result, some non-matches may be too.
- Exhaustion during **filtering** cannot degrade: an *incomplete* filter
  pass may have dismissed true matches, and handing it out as a
  "superset" would be a silent wrong answer -- exactly what this layer
  exists to prevent.  The error propagates instead.

See ``docs/ROBUSTNESS.md`` for the knobs and the result contract.
"""

from __future__ import annotations

import argparse
import math
import time
from dataclasses import dataclass

#: Phases a budget can run out in (see module docstring for why the
#: distinction is load-bearing).
PHASE_FILTER = "filter"
PHASE_REFINEMENT = "refinement"


def number_flag(kind, low, high=math.inf, low_open=False):
    """The ``argparse`` type of a numeric operator flag: a finite
    ``kind`` from ``low`` (excluded when ``low_open``) to ``high``, or
    exit 2 before any file is opened or socket bound."""
    def parse(text):
        value = kind(text)
        if not (math.isfinite(value) and low <= value <= high
                and not (low_open and value == low)):
            raise argparse.ArgumentTypeError(
                f"must be a finite number in {'(' if low_open else '['}"
                f"{low}, {high}], got {text!r}")
        return value
    parse.__name__ = kind.__name__     # "invalid int value: ..."
    return parse


def add_budget_flags(parser):
    """Declare the ``--budget-*`` flags :meth:`QueryBudget.from_flags`
    reads, each a finite number > 0: a NaN deadline never fires and wins
    every ``min`` in :meth:`QueryBudget.fork`; a cap <= 0 exhausts at
    once."""
    count = number_flag(int, 1)
    parser.add_argument("--budget-range-queries", type=count, metavar="N",
                        help="cap on trie range queries per query "
                             "(exceeding during filtering is an error)")
    parser.add_argument("--budget-reads", type=count, metavar="N",
                        help="cap on physical page reads per query")
    parser.add_argument("--budget-candidates", type=count, metavar="N",
                        help="cap on refinement candidates per query; "
                             "exceeding returns the filter superset as "
                             "an approximate result")
    parser.add_argument("--budget-ms", metavar="MS",
                        type=number_flag(float, 0, low_open=True),
                        help="wall-clock deadline per query, in ms")


@dataclass(frozen=True)
class DegradationReason:
    """Structured record of which cap ran out, where, and by how much."""

    phase: str      # PHASE_FILTER or PHASE_REFINEMENT
    limit: str      # "range_queries" | "physical_reads" | "candidates"
    #                 | "deadline"
    spent: float    # what was consumed when the cap tripped
    budget: float   # the configured cap

    def as_dict(self):
        """JSON-ready form (the CLI prints this with the result)."""
        return {"phase": self.phase, "limit": self.limit,
                "spent": self.spent, "budget": self.budget}

    def __str__(self):
        spent = (f"{self.spent:.3f}s" if self.limit == "deadline"
                 else f"{int(self.spent)}")
        budget = (f"{self.budget:.3f}s" if self.limit == "deadline"
                  else f"{int(self.budget)}")
        return (f"{self.limit} budget exhausted during {self.phase} "
                f"({spent} of {budget})")


class BudgetExceededError(RuntimeError):
    """A query hit one of its :class:`QueryBudget` caps.

    Escapes to the caller only for filter-phase exhaustion (no safe
    superset exists); refinement-phase exhaustion is caught by the
    matcher and converted into an approximate result.
    """

    def __init__(self, reason):
        self.reason = reason
        super().__init__(str(reason))


@dataclass(frozen=True)
class QueryBudget:
    """Resource caps for one query; ``None`` means uncapped.

    Attributes:
        max_range_queries: trie range queries the filter may *issue*
            -- B+-tree descents made, ``FilterStats.probes_issued``;
            a sub-walk Algorithm 1 replays from its state table costs
            nothing, whatever the logical ``range_queries`` count reads.
        max_physical_reads: pages the query may fault in (measured as
            the delta of ``IOStats.physical_reads``).
        max_candidates: filter candidates refinement may process.
        deadline_seconds: wall-clock allowance from :meth:`meter` time.
    """

    max_range_queries: int | None = None
    max_physical_reads: int | None = None
    max_candidates: int | None = None
    deadline_seconds: float | None = None

    def __post_init__(self):
        """Refuse a cap that is NaN, infinite or negative: a NaN deadline
        never fires and wins every ``min`` in :meth:`fork`.  A cap of 0
        is kept: it exhausts at once."""
        for name, value in vars(self).items():
            if value is not None and not (math.isfinite(value)
                                          and value >= 0):
                raise ValueError(f"QueryBudget {name} must be a finite "
                                 f"number >= 0, got {value!r}")

    @classmethod
    def from_flags(cls, args):
        """The budget parsed ``--budget-*`` flags ask for (``prix query``
        and ``prix serve``; ``--budget-ms`` is in milliseconds)."""
        return cls(max_range_queries=args.budget_range_queries,
                   max_physical_reads=args.budget_reads,
                   max_candidates=args.budget_candidates,
                   deadline_seconds=(None if args.budget_ms is None
                                     else args.budget_ms / 1000.0))

    @property
    def unlimited(self):
        """True when no cap is set (the meter becomes a no-op)."""
        return (self.max_range_queries is None
                and self.max_physical_reads is None
                and self.max_candidates is None
                and self.deadline_seconds is None)

    def fork(self, deadline_seconds=None):
        """A fresh budget carrying the same limits.

        The serving path's minting operation: one server-wide
        ``QueryBudget`` (parsed once from flags or config) forks a
        per-request budget for every admitted query, and each fork's
        :meth:`meter` starts its own deadline clock and physical-read
        baseline.  The caps themselves are immutable, so the fork is a
        constructor call -- no flag re-parsing, no shared meter state
        between requests.  A query is metered once, whatever it runs
        against: a shard set hands its one meter to every shard it
        visits (``docs/SHARDING.md``), so the caps bound the whole
        scatter.

        ``deadline_seconds`` lets a caller *tighten* the template's
        wall-clock cap (the ``X-Prix-Deadline-Ms`` request header): the
        fork's deadline is the minimum of the template's and the
        caller's, so a request can never loosen the server-wide cap.
        """
        deadline = self.deadline_seconds
        if deadline_seconds is not None:
            deadline = (deadline_seconds if deadline is None
                        else min(deadline, deadline_seconds))
        return QueryBudget(
            max_range_queries=self.max_range_queries,
            max_physical_reads=self.max_physical_reads,
            max_candidates=self.max_candidates,
            deadline_seconds=deadline)

    def meter(self, io_stats=None, clock=time.monotonic):
        """Start enforcement: returns a :class:`BudgetMeter` whose
        deadline and read baseline begin now."""
        return BudgetMeter(self, io_stats=io_stats, clock=clock)


class BudgetMeter:
    """Runtime enforcement of one query's :class:`QueryBudget`.

    One meter covers one query execution.  The query pipeline calls
    :meth:`charge_range_query` / :meth:`charge_candidate` /
    :meth:`checkpoint` at its cancellation points; a violated cap raises
    :class:`BudgetExceededError` carrying a :class:`DegradationReason`
    for the phase the meter is currently in (:meth:`enter_refinement`
    flips it).  ``clock`` is injectable so deadline behaviour is
    deterministic under test.
    """

    def __init__(self, budget, io_stats=None, clock=time.monotonic):
        self.budget = budget
        self._io = io_stats
        self._clock = clock
        self._started = clock()
        self._reads_base = io_stats.read("physical_reads") if io_stats else 0
        self.range_queries = 0
        self.candidates = 0
        self.phase = PHASE_FILTER

    def enter_filter(self):
        """Start a filter pass: exhaustion from here on is a hard error,
        even after an earlier index's refinement (one meter spans every
        shard of a scatter)."""
        self.phase = PHASE_FILTER

    def enter_refinement(self):
        """Mark the filter phase complete: exhaustion from here on is
        degradable (the filter superset is whole)."""
        self.phase = PHASE_REFINEMENT

    def _exceeded(self, limit, spent, cap):
        raise BudgetExceededError(
            DegradationReason(phase=self.phase, limit=limit,
                              spent=spent, budget=cap))

    def charge_range_query(self):
        """Count one issued trie range query (one per distinct state of
        the filter's walk, not one per logical probe), then run the
        passive checks."""
        self.range_queries += 1
        cap = self.budget.max_range_queries
        if cap is not None and self.range_queries > cap:
            self._exceeded("range_queries", self.range_queries, cap)
        self.checkpoint()

    def charge_candidate(self):
        """Count one refinement candidate, then run the passive checks."""
        self.candidates += 1
        cap = self.budget.max_candidates
        if cap is not None and self.candidates > cap:
            self._exceeded("candidates", self.candidates, cap)
        self.checkpoint()

    def checkpoint(self):
        """Passive cancellation point: deadline and physical-read caps.

        Cheap enough (a monotonic clock read and two comparisons) to
        sit inside the filter's per-node loop and refinement's embedding
        enumeration.
        """
        cap = self.budget.deadline_seconds
        if cap is not None:
            elapsed = self._clock() - self._started
            if elapsed > cap:
                self._exceeded("deadline", elapsed, cap)
        cap = self.budget.max_physical_reads
        if cap is not None and self._io is not None:
            reads = self._io.read("physical_reads") - self._reads_base
            if reads > cap:
                self._exceeded("physical_reads", reads, cap)
