"""The bytes a build writes, pinned to a golden.

``tests/golden/build_bytes.json`` records the sha256 of every file a
saved build leaves -- the ``.idx`` and, where the layout writes them,
its ``.sum`` and ``.wal`` sidecars -- for each test-scale corpus x two
layouts at 1 KiB pages: ``bulk`` (the default build) and ``churn``
(dynamic labeling, durable, guarded: how a mutable index is built).
Page ids follow allocation order, so a build that reorders its record
appends or B+-tree pages, or writes one byte differently, fails here.
Re-pinned when the dynamic labeler became the bulk DFS with a strided
counter and the catalog stopped recording ``alpha`` and ``max_range``:
a ``bulk`` file differs from its predecessor in the superblock and the
catalog record's page only, a ``churn`` file in its trie label values
(the B+-trees keep their shape and page count).

Cost: six small builds, about a second in all.

Six tiny builds never reach the deep shared prefixes of a full-size
trie, so ``tests/golden/build_bytes_medium.json`` pins the same layouts
over the ``medium`` corpora (the full prixbench scale).  Those builds
take several seconds; CI checks them, tier-1 does not::

    PYTHONPATH=src python tests/test_build_bytes_golden.py --scale medium --check

Regenerate (only from a commit whose files are the reference)::

    PYTHONPATH=src python tests/test_build_bytes_golden.py [--scale medium]
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from itertools import product

from repro.prix.index import IndexOptions, PrixIndex

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "build_bytes.json")
#: The golden of each scale; ``tiny`` is the ``tiny_*`` fixtures' scale.
GOLDENS = {"tiny": GOLDEN,
           "medium": os.path.join(os.path.dirname(__file__), "golden",
                                  "build_bytes_medium.json")}
PAGE_SIZE = 1024
LAYOUTS = {
    "bulk": {},
    "churn": {"labeler": "dynamic", "durable": True, "wal_sync": "commit",
              "guard": True},
}


def build_hashes(corpora, directory):
    """``{"corpus/layout/suffix": sha256}`` of every file a build left."""
    hashes = {}
    for (name, corpus), (layout, options) in product(
            sorted(corpora.items()), LAYOUTS.items()):
        path = os.path.join(directory, f"{name}-{layout}.idx")
        with PrixIndex.build(corpus.documents, IndexOptions(
                page_size=PAGE_SIZE, path=path, **options)) as index:
            index.save()
        for suffix in ("", ".sum", ".wal"):
            if os.path.exists(path + suffix):
                with open(path + suffix, "rb") as handle:
                    hashes[f"{name}/{layout}/idx{suffix}"] = \
                        hashlib.sha256(handle.read()).hexdigest()
    return hashes


def test_built_files_match_golden(tmp_path, tiny_dblp, tiny_swissprot,
                                  tiny_treebank):
    corpora = {"dblp": tiny_dblp, "swissprot": tiny_swissprot,
               "treebank": tiny_treebank}
    # A one-element document is the one shape whose bytes differ from
    # the golden's commit (its Docid entry now sits at the trie root).
    assert all(document.size > 1 for corpus in corpora.values()
               for document in corpus.documents)
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    measured = build_hashes(corpora, str(tmp_path))
    assert sorted(measured) == sorted(golden)
    moved = sorted(name for name, digest in measured.items()
                   if digest != golden[name])
    assert not moved, f"files whose bytes changed: {moved}"


def main(argv=None):
    from repro.datasets.registry import get_corpus
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", choices=sorted(GOLDENS), default="tiny")
    parser.add_argument("--check", action="store_true",
                        help="compare with the golden instead of writing it")
    args = parser.parse_args(argv)
    corpora = {name: get_corpus(name, args.scale)
               for name in ("dblp", "swissprot", "treebank")}
    with tempfile.TemporaryDirectory() as directory:
        hashes = build_hashes(corpora, directory)
    golden = GOLDENS[args.scale]
    if args.check:
        with open(golden, encoding="utf-8") as handle:
            pinned = json.load(handle)
        moved = sorted(name for name in pinned.keys() | hashes.keys()
                       if pinned.get(name) != hashes.get(name))
        print(f"{len(hashes)} files, {len(moved)} differ from {golden}"
              + "".join(f"\n  {name}" for name in moved))
        return 1 if moved else 0
    with open(golden, "w", encoding="utf-8") as handle:
        json.dump(hashes, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(hashes)} hashes to {golden}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
