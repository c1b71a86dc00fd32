"""A repeated query touches the same pages: counters pinned to a golden.

``tests/golden/repeat_page_counters.json`` records, for every Table 3
query on its test-scale corpus x {rp, ep} x strategy {trie, auto} x pool
{8 pages, whole index}: the query run twice with no flush in between,
and the *second* run's ``logical_reads``, ``physical_reads`` and
``evictions`` deltas.  The second run is the one that finds decoded
B+-tree nodes and decoded documents memoised on resident frames, so this
is the machine check that a memo hit requests, touches and evicts
exactly the pages a re-decode would -- whether the pager holds a real
file or an in-memory buffer.  Generated at ``e0ded35``, before record pages
joined the decoded-frame memo; the 20 cases that run Algorithm 1 were
regenerated when it stopped re-issuing a probe per (plan suffix, trie
node) state -- ``logical_reads`` fell in each, ``pool8``
``physical_reads``/``evictions`` fell or held, no ``auto`` case that
takes the document fallback moved.  The 26 cases of unordered twigs with
several arrangements that take the trie walk were regenerated when it
filtered them on one root-to-leaf path instead of once per arrangement
-- ``logical_reads`` fell in each, ``pool8`` ``physical_reads`` fell
everywhere but Q9/rp (34 -> 36); no case that takes the document
fallback moved.  50 cases were regenerated when query probes began to
resume from the leaf their previous seek landed on: ``logical_reads``
fell in each, and with a whole-index pool nothing else moved.  In six
``pool8`` cases ``physical_reads`` and ``evictions`` moved, because an
8-page pool evicts the internal pages that the skipped descents no
longer touch, so later descents find a different set resident:
Q5/rp/trie 47 -> 44, Q7/ep/trie 29 -> 30, Q7/rp/trie 26 -> 28,
Q8/rp/auto and Q8/rp/trie 18 -> 19, Q9/rp/trie 36 -> 38.

Regenerate (only from a commit whose counters are the reference)::

    PYTHONPATH=src python tests/test_repeat_page_counters_golden.py
"""

import json
import os
import tempfile
from itertools import product

import pytest

from repro.bench.workloads import QUERIES
from repro.prix.index import IndexOptions, PrixIndex

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "repeat_page_counters.json")
FIELDS = ("logical_reads", "physical_reads", "evictions")
#: Where the pager keeps the bytes: a real file (``path=...``) or an
#: in-memory buffer (``path=None``) -- what the ``file`` and ``arena``
#: open-time kinds hold them in.
SUBSTRATES = ("file", "arena")
PAGE_SIZE = 1024
#: A pool every query overflows, and one nothing is ever evicted from.
POOLS = {"pool8": 8, "resident": 2000}


def case_id(qid, variant, strategy, pool):
    return f"{qid}/{variant}/{strategy}/{pool}"


def collect(corpora, substrate, directory):
    """``{case id: [second-run delta per FIELDS]}`` over the matrix."""
    counters = {}
    for (name, corpus), (pool, pool_pages) in product(corpora.items(),
                                                      POOLS.items()):
        options = IndexOptions(
            page_size=PAGE_SIZE, pool_pages=pool_pages,
            path=(os.path.join(directory, f"{name}-{pool}.idx")
                  if substrate == "file" else None))
        with PrixIndex.build(corpus.documents, options) as index:
            specs = [spec for spec in QUERIES if spec.corpus == name]
            for spec, variant, strategy in product(
                    specs, ("rp", "ep"), ("trie", "auto")):
                first = index.query(spec.xpath, variant=variant,
                                    strategy=strategy)
                before = [index.io_stats.read(field) for field in FIELDS]
                second = index.query(spec.xpath, variant=variant,
                                     strategy=strategy)
                assert second == first
                counters[case_id(spec.qid, variant, strategy, pool)] = [
                    index.io_stats.read(field) - start
                    for field, start in zip(FIELDS, before)]
    return counters


def load_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        document = json.load(handle)
    assert tuple(document["fields"]) == FIELDS
    return document["cases"]


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_second_run_counters_match_golden(substrate, tmp_path, tiny_dblp,
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
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write('{"fields": %s,\n "cases": {\n' % json.dumps(FIELDS))
        handle.write(",\n".join(f"  {json.dumps(case)}: {json.dumps(row)}"
                                for case, row in sorted(cases.items())))
        handle.write("\n }}\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")


if __name__ == "__main__":
    _regenerate()
