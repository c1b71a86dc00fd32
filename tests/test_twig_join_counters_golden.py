"""The holistic twig joins' work, pinned to a golden.

``tests/golden/twig_join_counters.json`` records, for every Table 3
query on its corpus x {TwigStack, TwigStackXB}: a digest of the answer
set, every :class:`TwigJoinStats` field, and the cold run's physical
and logical page reads, at 1 KiB pages (the benchmarks' page size).
It is the machine check that a change to the join loop or to either
cursor yields the same answers, does the same work and reads the same
pages -- the two joins of Tables 7-9 must differ by their cursor alone.

Tier-1 checks the ``tiny`` scale, where nine TwigStackXB rows drill
down and one skips a region.  The ``small`` scale (about a second)
exercises more coarse advances; CI checks it, tier-1 does not::

    PYTHONPATH=src python tests/test_twig_join_counters_golden.py --scale small --check

Regenerate (only from a commit whose counters are the reference)::

    PYTHONPATH=src python tests/test_twig_join_counters_golden.py
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys

from repro.baselines.region import StreamSet, build_stream_entries
from repro.baselines.twigstack import TwigJoinStats, twig_stack
from repro.baselines.twigstackxb import XBForest, twig_stack_xb
from repro.bench.workloads import QUERIES
from repro.query.xpath import parse_xpath
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "twig_join_counters.json")
FIELDS = (("answer_digest",)
          + tuple(f.name for f in dataclasses.fields(TwigJoinStats))
          + ("physical_reads", "logical_reads"))
SCALES = ("tiny", "small")
PAGE_SIZE = 1024


def answer_digest(matches):
    """A digest of a canonical answer set, independent of set order."""
    rows = sorted((doc_id, sorted(embedding))
                  for doc_id, embedding in matches)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def collect(corpora):
    """``{"qid/join": [value per FIELDS]}`` over every Table 3 query."""
    counters = {}
    for name, corpus in sorted(corpora.items()):
        documents = corpus.documents
        stream_pool = BufferPool(Pager.in_memory(page_size=PAGE_SIZE))
        streams = StreamSet.build(documents, stream_pool)
        xb_pool = BufferPool(Pager.in_memory(page_size=PAGE_SIZE))
        forest = XBForest.build(build_stream_entries(documents), xb_pool)
        joins = {"twigstack": (twig_stack, streams, stream_pool),
                 "twigstackxb": (twig_stack_xb, forest, xb_pool)}
        for spec in (spec for spec in QUERIES if spec.corpus == name):
            pattern = parse_xpath(spec.xpath)
            for join_name, (join, source, pool) in joins.items():
                pool.flush_and_clear()
                physical = pool.stats.physical_reads
                logical = pool.stats.logical_reads
                matches, stats = join(pattern, source)
                counters[f"{spec.qid}/{join_name}"] = (
                    [answer_digest(matches)]
                    + list(dataclasses.astuple(stats))
                    + [pool.stats.physical_reads - physical,
                       pool.stats.logical_reads - logical])
    return counters


def load_golden(scale):
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


def test_counters_match_golden(tiny_dblp, tiny_swissprot, tiny_treebank):
    golden = load_golden("tiny")
    measured = collect({"dblp": tiny_dblp, "swissprot": tiny_swissprot,
                        "treebank": tiny_treebank})
    assert sorted(measured) == sorted(golden)
    moved = moved_cases(golden, measured)
    assert not moved, f"(golden, measured) per field: {moved}"


def main(argv=None):
    from repro.datasets.registry import get_corpus
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", choices=SCALES, default=None,
                        help="one scale (default: regenerate all)")
    parser.add_argument("--check", action="store_true",
                        help="compare with the golden instead of writing it")
    args = parser.parse_args(argv)
    scales = (args.scale,) if args.scale else SCALES
    measured = {scale: collect({name: get_corpus(name, scale)
                                for name in ("dblp", "swissprot",
                                             "treebank")})
                for scale in scales}
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
