#!/usr/bin/env python
"""Incremental index maintenance: insert, delete, persist, recover.

Demonstrates the dynamic labeling scheme of Section 5.2.1 doing the job
it exists for -- growing the virtual trie in place as new documents
arrive -- plus deletion, scope underflow with rebuild recovery, and the
durable save/open cycle: the index keeps a write-ahead log beside the
data file, so every ``insert_document`` + ``save`` pair is crash-safe
(see docs/DURABILITY.md).

Run with::

    python examples/incremental_updates.py
"""

import os
import tempfile

from repro import PrixIndex, parse_document
from repro.prix.incremental import RebuildRequiredError
from repro.prix.index import IndexOptions


def main():
    workdir = tempfile.mkdtemp(prefix="prix-demo-")
    path = os.path.join(workdir, "catalog.idx")
    wal_path = path + ".wal"

    # Build with the dynamic labeler so trie node ranges keep slack for
    # children that appear later (the default bulk labeler is gap-free
    # and rejects inserts with RebuildRequiredError), and durable=True
    # so mutations are write-ahead logged.
    options = IndexOptions(labeler="dynamic", path=path, durable=True)
    initial = [parse_document(
        f"<order id=\"{i}\"><customer>C{i % 3}</customer>"
        f"<total>{100 + i}</total></order>", doc_id=i + 1)
        for i in range(5)]

    with PrixIndex.build(initial, options) as index:
        print(f"built durable index over {index.doc_count} orders")
        print(f"  rp trie: {index.trie_stats('rp').node_count} nodes")
        print(f"  write-ahead log: {index._pool.wal.size_bytes} bytes")

        # --- insert new documents without rebuilding --------------------
        index.insert_document(parse_document(
            '<order id="99"><customer>C1</customer><total>500</total>'
            "<rush>yes</rush></order>", doc_id=99))
        index.save()  # seals the insert batch: crash-safe from here on
        matches = index.query('//order[./customer="C1"]')
        print(f"\nafter insert: {len(matches)} orders for customer C1 "
              f"(docs {sorted({m.doc_id for m in matches})})")
        rush = index.query("//order/rush")
        print(f"rush orders: {sorted({m.doc_id for m in rush})}")

        # --- delete -----------------------------------------------------
        index.delete_document(1)
        index.save()
        matches = index.query("//order/customer")
        print(f"after deleting doc 1: {len(matches)} orders remain")

        # --- checkpoint: flush the pool, truncate the log ---------------
        before = index._pool.wal.size_bytes
        index.checkpoint()
        print(f"\ncheckpoint truncated the log "
              f"{before} -> {index._pool.wal.size_bytes} bytes")

    # --- reopen: the sidecar .wal makes open() pick durable mode --------
    with PrixIndex.open(path) as reopened:
        print(f"\nreopened from {path}: {reopened.doc_count} documents "
              f"(recovery ran automatically)")
        reopened.insert_document(parse_document(
            "<order id=\"100\"><customer>C2</customer>"
            "<total>7</total></order>", doc_id=100))
        reopened.save()
        found = any(m.doc_id == 100
                    for m in reopened.query("//order/total"))
        print(f"insert after reopen works: doc 100 found = {found}")

    # --- scope underflow and rebuild recovery ---------------------------
    with PrixIndex.build(
            [parse_document("<a><b/></a>", 1)]) as bulk_index:
        # bulk labels: no slack
        try:
            bulk_index.insert_document(parse_document("<x><y/></x>", 2))
        except RebuildRequiredError as error:
            print(f"\nbulk-labeled index refused the insert as expected:"
                  f"\n  {error}")
            with bulk_index.rebuilt() as fresh:
                print(f"rebuilt index holds {fresh.doc_count} documents; "
                      f"//x/y -> {len(fresh.query('//x/y'))} match")

    os.unlink(path)
    os.unlink(wal_path)
    os.rmdir(workdir)


if __name__ == "__main__":
    main()
