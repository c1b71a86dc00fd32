"""Shard-directory health: manifest verification over the tree scrub.

The storage layer's :func:`~repro.storage.scrub_tree` sweeps every
index file under a directory but knows nothing about shard manifests
-- the ``prixshard.json`` format belongs to this subsystem.
:func:`scrub_shards` runs the tree scrub and folds the manifest check
in: the manifest must load (checksum included), and every shard it
lists must actually have been swept.  The combined report keeps the
single-index report's vocabulary (``catalog_ok``, ``pages_corrupt``,
``healthy``), so the serving tier's ``/healthz`` endpoint and the
CLI's exit-code ladder treat a shard directory exactly like one index.
"""

from __future__ import annotations

import os

from repro.shard.catalog import (ShardCatalog, ShardCatalogError,
                                 is_shard_directory)
from repro.storage import scrub_path, scrub_tree


def scrub_shards(directory, stamp_missing=False):
    """Scrub ``directory`` as a shard set; returns a
    :class:`~repro.storage.guard.TreeScrubReport` with the manifest
    verdict folded in."""
    report = scrub_tree(directory, stamp_missing=stamp_missing)
    try:
        catalog = ShardCatalog.load(directory)
    except ShardCatalogError as error:
        report.manifest_ok = False
        report.manifest_error = str(error)
        return report
    swept = {relative for relative, _ in report.reports}
    missing = [entry.file for entry in catalog.entries
               if entry.file not in swept]
    if missing:
        report.manifest_ok = False
        report.manifest_error = ("manifest lists missing shard "
                                 "file(s): " + ", ".join(missing))
    else:
        report.manifest_ok = True
    return report


def scrub_index(path, *, wal_path=None, stamp_missing=False):
    """Scrub whatever lives at ``path``: a shard directory (manifest
    included), any other directory (every index file under it), or one
    index file -- the only form with a single WAL to repair from, so
    the only one ``wal_path`` applies to.  Every report answers
    ``healthy`` / ``to_json()`` / ``render()`` alike."""
    if is_shard_directory(path):
        return scrub_shards(path, stamp_missing=stamp_missing)
    if os.path.isdir(path):
        return scrub_tree(path, stamp_missing=stamp_missing)
    return scrub_path(path, wal_path=wal_path, stamp_missing=stamp_missing)
