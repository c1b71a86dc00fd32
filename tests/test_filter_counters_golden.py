"""Deterministic work counters pinned to a golden file.

``tests/golden/filter_counters.json`` records, for every Table 3 query on
its test-scale corpus x {rp, ep} x {ordered, unordered} x strategy
{trie, auto} x maxgap granularity {label, node}: the four logical
``FilterStats`` fields (per arrangement, as the paper counts them, for a
twig filtered on its own plans; for an unordered twig of several
arrangements that takes the trie walk, its filter path's walk plus the
in-document check of every arrangement), ``candidates_refined``,
``matches``, the cold ``physical_reads``, the pool's ``logical_reads``
delta and ``FilterStats.probes_issued`` (the descents Algorithm 1
actually made).  It is the
machine check that a change to the probe path touches the same pages,
in the same number, with the same counters -- whether the pager holds
a real file or an in-memory buffer.  The 26 unordered cases of several
arrangements that take the trie walk were regenerated once, when it
moved from one pass per arrangement to one root-to-leaf path; no
ordered case and no case that takes the document fallback moved.

Regenerate (only from a commit whose counters are the reference)::

    PYTHONPATH=src python tests/test_filter_counters_golden.py
"""

import json
import os
import tempfile
from itertools import product

import pytest

from repro.bench.workloads import QUERIES
from repro.prix.index import IndexOptions, PrixIndex

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "filter_counters.json")
FIELDS = ("range_queries", "nodes_visited", "candidates",
          "pruned_by_maxgap", "candidates_refined", "matches",
          "physical_reads", "logical_reads", "probes_issued")
#: Where the pager keeps the bytes: a real file (``path=...``) or an
#: in-memory buffer (``path=None``) -- what the ``file`` and ``arena``
#: open-time kinds hold them in.
SUBSTRATES = ("file", "arena")
#: Small pages make the tiny corpora's trees three or four levels tall
#: with ranges that cross leaf boundaries, so the page counts are
#: sensitive to how a probe descends and walks the leaf chain.
PAGE_SIZE = 1024


def case_id(qid, variant, ordered, strategy, granularity):
    order = "ordered" if ordered else "unordered"
    return f"{qid}/{variant}/{order}/{strategy}/{granularity}"


def collect(corpora, substrate, directory):
    """``{case id: [counter per FIELDS]}`` over the whole matrix."""
    counters = {}
    for name, corpus in corpora.items():
        options = IndexOptions(
            page_size=PAGE_SIZE,
            path=(os.path.join(directory, f"{name}.idx")
                  if substrate == "file" else None))
        with PrixIndex.build(corpus.documents, options) as index:
            specs = [spec for spec in QUERIES if spec.corpus == name]
            for spec, variant, ordered, strategy, granularity in product(
                    specs, ("rp", "ep"), (True, False), ("trie", "auto"),
                    ("label", "node")):
                logical_before = index.io_stats.read("logical_reads")
                _, stats = index.query_with_stats(
                    spec.xpath, variant=variant, ordered=ordered,
                    strategy=strategy, maxgap_granularity=granularity,
                    cold=True)
                logical = (index.io_stats.read("logical_reads")
                           - logical_before)
                counters[case_id(spec.qid, variant, ordered, strategy,
                                 granularity)] = [
                    stats.filter.range_queries, stats.filter.nodes_visited,
                    stats.filter.candidates, stats.filter.pruned_by_maxgap,
                    stats.candidates_refined, stats.matches,
                    stats.physical_reads, logical,
                    stats.filter.probes_issued]
    return counters


def load_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        document = json.load(handle)
    assert tuple(document["fields"]) == FIELDS
    return document["cases"]


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_counters_match_golden(substrate, tmp_path, tiny_dblp,
                               tiny_swissprot, tiny_treebank):
    corpora = {"dblp": tiny_dblp, "swissprot": tiny_swissprot,
               "treebank": tiny_treebank}
    golden = load_golden()
    measured = collect(corpora, substrate, str(tmp_path))
    assert sorted(measured) == sorted(golden)
    moved = {case: dict(zip(FIELDS, zip(golden[case], row)))
             for case, row in measured.items() if row != golden[case]}
    assert not moved, f"(golden, measured) per field: {moved}"


def _regenerate():
    from repro.datasets import dblp, swissprot, treebank
    # The same scales as the ``tiny_*`` fixtures in conftest.py.
    corpora = {"dblp": dblp(n_records=120),
               "swissprot": swissprot(n_entries=40),
               "treebank": treebank(n_sentences=60)}
    with tempfile.TemporaryDirectory() as directory:
        per_substrate = {}
        for substrate in SUBSTRATES:
            os.mkdir(os.path.join(directory, substrate))
            per_substrate[substrate] = collect(
                corpora, substrate, os.path.join(directory, substrate))
    assert per_substrate["file"] == per_substrate["arena"], \
        "substrates disagree; one golden cannot pin both"
    cases = per_substrate["file"]
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write('{"fields": %s,\n "cases": {\n' % json.dumps(FIELDS))
        handle.write(",\n".join(f"  {json.dumps(case)}: {json.dumps(row)}"
                                for case, row in sorted(cases.items())))
        handle.write("\n }}\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")


if __name__ == "__main__":
    _regenerate()
