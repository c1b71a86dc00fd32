"""What a query budget does to each Table 3 query, pinned to a golden.

``tests/golden/budget_outcomes.json`` records, for every Table 3 query
on its corpus x {rp, ep} x {ordered, unordered} x strategy {auto, trie}
x a few ``max_range_queries`` caps and a few ``max_physical_reads``
caps (cold pool, 1 KiB pages), the outcome:

- ``exact`` with a digest of the answer;
- ``approximate`` with its :class:`DegradationReason` and a digest of
  the candidate documents;
- ``error``: the :class:`BudgetExceededError`'s reason;

and, in every case, the range queries and candidates the meter charged.
``FilterStats`` never shows the charges the document fallback makes
(one range query up front, one per trie node of the rare label), so
this is the machine check that a change to the planner or the filter
charges the budget as much, and in the same order, as before.

Tier-1 checks the ``tiny`` scale; CI checks ``small`` too::

    PYTHONPATH=src python tests/test_budget_outcomes_golden.py --scale small --check

Regenerate (only from a commit whose outcomes are the reference)::

    PYTHONPATH=src python tests/test_budget_outcomes_golden.py
"""

import argparse
import hashlib
import json
import os
import sys
from itertools import product

from repro.bench.workloads import QUERIES
from repro.prix.budget import BudgetExceededError, QueryBudget
from repro.prix.index import IndexOptions, PrixIndex

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "budget_outcomes.json")
FIELDS = ("outcome", "digest", "reason", "range_queries", "candidates")
SCALES = ("tiny", "small")
PAGE_SIZE = 1024
#: ``(case suffix, QueryBudget)``: range-query caps around the document
#: fallback's up-front charge and a short walk's, and read caps that
#: trip in the filter, in refinement, or not at all.
CAPS = tuple((f"rq={cap}", QueryBudget(max_range_queries=cap))
             for cap in (2, 8)) + tuple(
    (f"reads={cap}", QueryBudget(max_physical_reads=cap))
    for cap in (8, 12))


def digest(rows):
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def outcome(index, spec, variant, ordered, strategy, budget):
    """One row per FIELDS; the pool is cold when the meter starts."""
    index.flush_cache()
    meter = budget.meter(io_stats=index.io_stats)
    try:
        matches = index.query(spec.xpath, variant=variant, ordered=ordered,
                              strategy=strategy, budget=meter)
    except BudgetExceededError as error:
        kind, answer, reason = "error", None, error.reason
    else:
        reason = matches.degradation_reason
        if matches.approximate:
            kind, answer = "approximate", digest(matches.doc_ids)
        else:
            kind = "exact"
            answer = digest(sorted((match.doc_id, match.images)
                                   for match in matches))
    return [kind, answer, reason and reason.as_dict(), meter.range_queries,
            meter.candidates]


def collect(corpora):
    """``{case id: [value per FIELDS]}`` over the whole matrix."""
    rows = {}
    for name, corpus in sorted(corpora.items()):
        with PrixIndex.build(corpus.documents,
                             IndexOptions(page_size=PAGE_SIZE)) as index:
            specs = [spec for spec in QUERIES if spec.corpus == name]
            for spec, variant, ordered, strategy, (cap, budget) in product(
                    specs, ("rp", "ep"), (True, False), ("auto", "trie"),
                    CAPS):
                order = "ordered" if ordered else "unordered"
                rows[f"{spec.qid}/{variant}/{order}/{strategy}/{cap}"] = \
                    outcome(index, spec, variant, ordered, strategy, budget)
    return rows


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


def test_outcomes_match_golden(tiny_dblp, tiny_swissprot, tiny_treebank):
    golden = load_golden("tiny")
    measured = collect({"dblp": tiny_dblp, "swissprot": tiny_swissprot,
                        "treebank": tiny_treebank})
    assert sorted(measured) == sorted(golden)
    moved = moved_cases(golden, measured)
    assert not moved, f"(golden, measured) per field: {moved}"
    kinds = {row[0] for row in measured.values()}
    assert kinds == {"exact", "approximate", "error"}, kinds


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
        for scale, rows in measured.items():
            golden = load_golden(scale)
            moved = moved_cases(golden, rows)
            missing = sorted(golden.keys() - rows.keys())
            print(f"{scale}: {len(rows)} cases, {len(moved)} moved, "
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
                         for case, row in sorted(rows.items()))
            + "\n  }" for scale, rows in measured.items()))
        handle.write("\n }}\n")
    print(f"wrote {sum(map(len, measured.values()))} cases to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
