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

Regenerate (only from a commit whose files are the reference)::

    PYTHONPATH=src python tests/test_build_bytes_golden.py
"""

import hashlib
import json
import os
import tempfile
from itertools import product

from repro.prix.index import IndexOptions, PrixIndex

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "build_bytes.json")
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


def _regenerate():
    from repro.datasets import dblp, swissprot, treebank
    # The same scales as the ``tiny_*`` fixtures in conftest.py.
    corpora = {"dblp": dblp(n_records=120),
               "swissprot": swissprot(n_entries=40),
               "treebank": treebank(n_sentences=60)}
    with tempfile.TemporaryDirectory() as directory:
        hashes = build_hashes(corpora, directory)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(hashes, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}")


if __name__ == "__main__":
    _regenerate()
