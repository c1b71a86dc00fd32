"""Table 3: the XPath queries and their twig-match counts.

Paper counts (full snapshots): Q1=6, Q2=21, Q3=1, Q4=3, Q5=5, Q6=158,
Q7=9, Q8=1, Q9=6.  Our generators plant Q1/Q3/Q4/Q5 at the paper's exact
counts; the remaining counts scale with corpus size.  The PRIX engine's
counts are verified against the exhaustive oracle in the test suite
(tests/test_table3_counts.py); here we regenerate the table.
"""

from repro.bench.harness import environment
from repro.bench.reporting import render_table
from repro.bench.workloads import QUERIES

PAPER_COUNTS = {"Q1": 6, "Q2": 21, "Q3": 1, "Q4": 3, "Q5": 5,
                "Q6": 158, "Q7": 9, "Q8": 1, "Q9": 6}


def test_table3_match_counts():
    rows = []
    measured = {}
    for spec in QUERIES:
        env = environment(spec.corpus)
        result = env.run_prix(spec.qid)
        measured[spec.qid] = result.matches
        rows.append([spec.qid, spec.xpath, spec.corpus,
                     result.matches, PAPER_COUNTS[spec.qid]])

    render_table(
        "Table 3: XPath queries and twig match counts",
        ["Query", "XPath", "Dataset", "Matches (measured)",
         "Matches (paper)"],
        rows)

    # Exact-plant queries reproduce the paper's counts verbatim.
    assert measured["Q1"] == 6
    assert measured["Q3"] == 1
    assert measured["Q4"] == 3
    assert measured["Q5"] == 5
    # Every query has at least one match.
    assert all(count >= 1 for count in measured.values())
