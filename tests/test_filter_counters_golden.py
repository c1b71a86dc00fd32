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
Only ``logical_reads`` moved when query probes began to resume from
the leaf their previous seek landed on (104 of the 144 tiny cases, 130
of the small ones, every one down): a skipped descent skips pages the
query has already read, so ``physical_reads`` stayed.

Tier-1 checks the ``tiny`` scale.  Tiny trees rarely reach deep
descents or probes over several leaves; the ``small`` scale does, and CI
checks it::

    PYTHONPATH=src python tests/test_filter_counters_golden.py --scale small --check

Regenerate (only from a commit whose counters are the reference)::

    PYTHONPATH=src python tests/test_filter_counters_golden.py
"""

import argparse
import json
import os
import sys
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
SCALES = ("tiny", "small")
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


def load_golden(scale="tiny"):
    with open(GOLDEN, encoding="utf-8") as handle:
        document = json.load(handle)
    assert tuple(document["fields"]) == FIELDS
    return document["scales"][scale]


def moved_cases(golden, measured):
    """``{case: {field: (golden, measured)}}`` for every case that moved
    (an empty dict for a case the golden lacks)."""
    return {case: {field: pair for field, pair in
                   zip(FIELDS, zip(golden.get(case, ()), row))
                   if pair[0] != pair[1]}
            for case, row in measured.items() if row != golden.get(case)}


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_counters_match_golden(substrate, tmp_path, tiny_dblp,
                               tiny_swissprot, tiny_treebank):
    corpora = {"dblp": tiny_dblp, "swissprot": tiny_swissprot,
               "treebank": tiny_treebank}
    golden = load_golden()
    measured = collect(corpora, substrate, str(tmp_path))
    assert sorted(measured) == sorted(golden)
    moved = moved_cases(golden, measured)
    assert not moved, f"(golden, measured) per field: {moved}"


def measure(scale):
    """The matrix at ``scale`` (the ``tiny`` one is the ``tiny_*``
    fixtures' corpora), checked equal on both substrates."""
    from repro.datasets.registry import get_corpus
    corpora = {name: get_corpus(name, scale)
               for name in ("dblp", "swissprot", "treebank")}
    with tempfile.TemporaryDirectory() as directory:
        per_substrate = {}
        for substrate in SUBSTRATES:
            os.mkdir(os.path.join(directory, substrate))
            per_substrate[substrate] = collect(
                corpora, substrate, os.path.join(directory, substrate))
    assert per_substrate["file"] == per_substrate["arena"], \
        "substrates disagree; one golden cannot pin both"
    return per_substrate["file"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", choices=SCALES, default=None,
                        help="one scale (default: regenerate all)")
    parser.add_argument("--check", action="store_true",
                        help="compare with the golden instead of writing it")
    args = parser.parse_args(argv)
    scales = (args.scale,) if args.scale else SCALES
    measured = {scale: measure(scale) for scale in scales}
    if args.check:
        failed = 0
        for scale, counters in measured.items():
            golden = load_golden(scale)
            moved = moved_cases(golden, counters)
            missing = sorted(golden.keys() - counters.keys())
            print(f"{scale}: {len(counters)} cases, {len(moved)} moved, "
                  f"{len(missing)} missing from {GOLDEN}"
                  + "".join(f"\n  {case}: {fields}"
                            for case, fields in sorted(moved.items()))
                  + "".join(f"\n  {case}: missing" for case in missing))
            failed += len(moved) + len(missing)
        return 1 if failed else 0
    if args.scale:
        parser.error("regenerating writes every scale; drop --scale")
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write('{"fields": %s,\n "scales": {\n' % json.dumps(FIELDS))
        handle.write(",\n".join(
            f'  "{scale}": {{\n'
            + ",\n".join(f"   {json.dumps(case)}: {json.dumps(row)}"
                         for case, row in sorted(counters.items()))
            + "\n  }" for scale, counters in measured.items()))
        handle.write("\n }}\n")
    print(f"wrote {sum(map(len, measured.values()))} cases to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
