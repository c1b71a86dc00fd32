"""Table 7: DBLP -- TwigStack vs TwigStackXB.

Paper values:

    Query  TwigStack       TwigStackXB
    Q1     20.74 s / 8756p 1.28 s / 201p
    Q2     7.25 s / 2310p  0.49 s / 63p
    Q3     6.17 s / 2271p  0.05 s / 8p

Shape: the XB-trees skip large regions of the sorted input lists, so
TwigStackXB reads far fewer pages and runs faster on every query.  Our
corpora are smaller (streams span fewer pages), so the factor is smaller
but the direction must hold.
"""

from repro.bench.harness import environment
from repro.bench.reporting import ratio, render_table

PAPER = {
    "Q1": (20.74, 8756, 1.28, 201),
    "Q2": (7.25, 2310, 0.49, 63),
    "Q3": (6.17, 2271, 0.05, 8),
}


def test_table7_twigstack_vs_xb():
    env = environment("dblp")
    results = {qid: (env.run_twigstack(qid), env.run_twigstack_xb(qid))
               for qid in ("Q1", "Q2", "Q3")}

    rows = []
    for qid, (ts, xb) in results.items():
        paper = PAPER[qid]
        rows.append([
            qid,
            f"{ts.elapsed:.4f}s / {ts.pages}p "
            f"(scanned={ts.extra['scanned']})",
            f"{xb.elapsed:.4f}s / {xb.pages}p "
            f"(scanned={xb.extra['scanned']}, "
            f"skips={xb.extra['coarse_advances']})",
            f"pages {ratio(ts.pages, max(xb.pages, 1))}",
            f"{paper[0]}s/{paper[1]}p vs {paper[2]}s/{paper[3]}p "
            f"({paper[1] / paper[3]:.0f}x pages)",
        ])
    render_table(
        "Table 7: DBLP -- TwigStack vs TwigStackXB",
        ["Query", "TwigStack (measured)", "TwigStackXB (measured)",
         "TS/XB pages", "Paper"],
        rows)

    for qid, (ts, xb) in results.items():
        assert ts.matches == xb.matches, f"{qid}: result sets must agree"
        # XB never scans more concrete elements than the full scan.
        assert xb.extra["scanned"] <= ts.extra["scanned"], qid
    # At least one query must show genuine page skipping.
    assert any(xb.pages < ts.pages for ts, xb in results.values()), (
        "XB-trees skipped no pages on any DBLP query")
