"""Index health above one file: the tree scrub and the shard manifest.

:func:`repro.prix.index.scrub_path` is the health of one index file; :func:`scrub_tree` runs it over every index
file under a directory, and :func:`scrub_shards` folds the manifest
check in: the manifest must load (checksum included), and every shard
it lists must actually have been swept.  The combined report keeps the
single-index report's vocabulary (``catalog_ok``, ``pages_corrupt``,
``healthy``), so the serving tier's ``/healthz`` endpoint and the
CLI's exit-code ladder treat a shard directory exactly like one index.
"""

from __future__ import annotations

import os

from repro.prix.index import scrub_path
from repro.shard.catalog import (ShardCatalog, ShardCatalogError,
                                 is_shard_directory)
from repro.storage import ScrubReport, TreeScrubReport

#: File suffix that marks a scrubabble index inside a directory tree.
INDEX_SUFFIX = ".idx"


def scrub_tree(directory, stamp_missing=False):
    """Recursively scrub every ``*.idx`` file under ``directory``.

    Walks the tree in sorted order, sweeps each index file it finds
    (sidecars and manifests are skipped -- they are inputs to their
    index's sweep, not indexes), and aggregates the per-file
    :class:`~repro.storage.guard.ScrubReport`\\ s into one
    :class:`~repro.storage.guard.TreeScrubReport`.  A file that cannot
    be swept at all (missing, not a whole number of pages) is recorded
    as an unhealthy report rather than raised, matching the scrub's
    report-not-raise contract.
    """
    report = TreeScrubReport(target=directory)
    for root, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(INDEX_SUFFIX):
                continue
            path = os.path.join(root, name)
            relative = os.path.relpath(path, directory)
            try:
                swept = scrub_path(path, stamp_missing=stamp_missing)
            except (OSError, ValueError) as error:
                swept = ScrubReport(target=path)
                swept.catalog_ok = False
                swept.catalog_error = f"unscrubbable: {error}"
            report.reports.append((relative, swept))
    return report


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
