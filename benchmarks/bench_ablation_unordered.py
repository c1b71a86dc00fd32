"""Ablation A6: ordered vs unordered twig matching (Section 5.7).

The paper answers unordered (XPath) semantics by running ordered
matching once per distinct branch arrangement, and argues this is
affordable because "the number of twig branches in a query is usually
small".  Here filtering runs once (on one root-to-leaf path when the trie
walk is taken) and only the in-document check and refinement run per
arrangement.  This ablation measures the arrangement counts and the cost
multiplier of unordered over ordered matching for every Table 3 query.
"""

from repro.bench.harness import environment
from repro.bench.reporting import render_table
from repro.bench.workloads import QUERIES
from repro.query.twig import arrangements


def test_ablation_unordered_vs_ordered():
    rows = []
    multipliers = []
    for spec in QUERIES:
        env = environment(spec.corpus)
        pattern = env.pattern(spec.qid)
        n_arrangements = sum(1 for _ in arrangements(pattern))

        unordered, unordered_stats = env.prix.query_with_stats(
            pattern, cold=True)
        ordered, ordered_stats = env.prix.query_with_stats(
            pattern, ordered=True, cold=True)

        assert len(ordered) <= len(unordered)
        assert {m.canonical for m in ordered} <= \
            {m.canonical for m in unordered}

        multiplier = (unordered_stats.elapsed_seconds
                      / max(ordered_stats.elapsed_seconds, 1e-9))
        multipliers.append((n_arrangements, multiplier))
        rows.append([
            spec.qid, n_arrangements,
            f"{len(ordered)} / {len(unordered)}",
            f"{ordered_stats.elapsed_seconds * 1000:.2f} ms",
            f"{unordered_stats.elapsed_seconds * 1000:.2f} ms",
            f"{multiplier:.1f}x",
        ])

    render_table(
        "Ablation A6: ordered vs unordered matching (Section 5.7)",
        ["Query", "Arrangements", "Matches (ordered/unordered)",
         "Ordered", "Unordered", "Unordered/Ordered"],
        rows)

    # Section 5.7's claim: the multiplier stays near the arrangement
    # count, which stays small for real queries.
    assert max(n for n, _ in multipliers) <= 6
    for n_arrangements, multiplier in multipliers:
        assert multiplier <= max(4 * n_arrangements, 6), (
            n_arrangements, multiplier)
