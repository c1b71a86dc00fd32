"""Figure 6: elapsed time for Q1-Q9 across all four systems.

The paper's figure shows, per query, total elapsed time for PRIX, ViST,
TwigStack and TwigStackXB.  Its qualitative shape: ViST is slowest on
value-heavy (Q1, Q3-Q6) and recursive-wildcard (Q7-Q9) queries, often by
orders of magnitude; TwigStackXB improves on TwigStack; PRIX is
competitive everywhere and far ahead of ViST on the hard queries.
"""

from repro.bench.harness import environment
from repro.bench.reporting import render_table
from repro.bench.workloads import QUERIES


def collect_series():
    series = {}
    for spec in QUERIES:
        env = environment(spec.corpus)
        series[spec.qid] = {
            "PRIX": env.run_prix(spec.qid),
            "ViST": env.run_vist(spec.qid),
            "TwigStack": env.run_twigstack(spec.qid),
            "TwigStackXB": env.run_twigstack_xb(spec.qid),
        }
    return series


def test_figure6_elapsed_time():
    series = collect_series()

    rows = []
    for qid, results in series.items():
        rows.append([
            qid,
            f"{results['PRIX'].elapsed:.4f}",
            f"{results['ViST'].elapsed:.4f}",
            f"{results['TwigStack'].elapsed:.4f}",
            f"{results['TwigStackXB'].elapsed:.4f}",
        ])
    render_table(
        "Figure 6: elapsed seconds per query (4 systems)",
        ["Query", "PRIX", "ViST", "TwigStack", "TwigStackXB"],
        rows)

    # Shape: PRIX beats ViST on the recursive/wildcard treebank queries,
    # which is the paper's headline Figure 6 story.
    for qid in ("Q7", "Q8", "Q9"):
        assert series[qid]["PRIX"].elapsed < series[qid]["ViST"].elapsed, (
            f"{qid}: PRIX should out-run ViST on recursive data")
    # PRIX answers every query and never reports a different count than
    # the stack joins.
    for qid, results in series.items():
        assert results["PRIX"].matches == results["TwigStack"].matches \
            == results["TwigStackXB"].matches
