"""Table 6: TREEBANK -- PRIX vs ViST (wildcards over recursive tags).

Paper values:

    Query  PRIX time  PRIX IO    ViST time    ViST IO
    Q7     0.42 s     46 pages   198.40 s     40827 pages
    Q8     0.35 s     35 pages   672.20 s     94505 pages
    Q9     0.50 s     55 pages   767.24 s     121928 pages

Shape: '//' steps over deeply recursive tags make ViST match every
(symbol, prefix) key of the symbol (515 keys for Q7, 46355 for Q8 in the
paper), while PRIX's wildcard handling adds no filtering overhead.
"""

from repro.bench.harness import environment
from repro.bench.reporting import ratio, render_table

PAPER = {
    "Q7": (0.42, 46, 198.40, 40827),
    "Q8": (0.35, 35, 672.20, 94505),
    "Q9": (0.50, 55, 767.24, 121928),
}


def test_table6_treebank_prix_vs_vist():
    env = environment("treebank")
    results = {qid: (env.run_prix(qid), env.run_vist(qid))
               for qid in ("Q7", "Q8", "Q9")}

    rows = []
    for qid, (prix, vist) in results.items():
        paper = PAPER[qid]
        rows.append([
            qid,
            f"{prix.elapsed:.4f}s / {prix.pages}p "
            f"({prix.extra['strategy']})",
            f"{vist.elapsed:.4f}s / {vist.pages}p "
            f"(rq={vist.extra['range_queries']}, "
            f"keys={vist.extra['keys_scanned']})",
            f"time {ratio(vist.elapsed, prix.elapsed)}, "
            f"pages {ratio(vist.pages, max(prix.pages, 1))}",
            f"{paper[0]}s/{paper[1]}p vs {paper[2]}s/{paper[3]}p "
            f"({paper[2] / paper[0]:.0f}x time)",
        ])
    render_table(
        "Table 6: TREEBANK -- PRIX vs ViST",
        ["Query", "PRIX (measured)", "ViST (measured)",
         "ViST/PRIX factors", "Paper (PRIX vs ViST)"],
        rows)

    # The paper's strongest result: PRIX wins all three, and ViST's
    # range-query count explodes relative to PRIX's.
    for qid, (prix, vist) in results.items():
        assert prix.elapsed < vist.elapsed, f"{qid}: PRIX should win"
        assert prix.pages * 2 < vist.pages, f"{qid}: page I/O gap"
