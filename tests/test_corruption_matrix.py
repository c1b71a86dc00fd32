"""The corruption matrix: damage the at-rest index every seeded way and
prove the guard never lets a silent wrong answer through.

For each (dataset, seed) the harness builds one guarded, durable index
on disk, then sweeps corruption points.  Each point deterministically
picks a page and a corruption flavour (bit flip, zeroed page,
misdirected write -- see :func:`faults.inject_corruption`)
and applies it to a fresh copy of the files.  The oracle is absolute:

- with the write-ahead log intact, every corruption must be *repaired*
  (recovery replay or read-repair) and the query results must equal a
  clean rebuild of the corpus;
- with the log checkpointed away (no repair source), every run must
  either still equal the clean rebuild (the damaged page was never
  consumed) or fail with a typed
  :class:`~repro.storage.errors.CorruptionError` -- never return
  results that differ from the oracle.

A failure dumps the corruption plan (a complete reproduction recipe:
seed + point + page + kind) as JSON to ``$PRIX_CRASH_ARTIFACT`` so CI
can upload it, mirroring ``test_crash_matrix.py``.
"""

import json
import os
import shutil

import pytest

from faults import inject_corruption
from repro.prix.index import IndexOptions, PrixIndex, scrub_path
from repro.storage.errors import CorruptionError
from repro.xmlkit.parser import parse_document

SEEDS = (11, 23, 47)
PAGE_SIZE = 256
POOL_PAGES = 48

#: Corruption points swept per (dataset, seed, regime).  The CI
#: corruption-matrix job raises this to widen the sweep.
MAX_POINTS = int(os.environ.get("PRIX_CRASH_MAX_RUNS", "16"))


def _docs(texts):
    return [parse_document(text, doc_id)
            for doc_id, text in enumerate(texts, start=1)]


class Dataset:
    def __init__(self, name, texts, queries):
        self.name = name
        self.docs = _docs(texts)
        self.queries = queries


DATASETS = [
    Dataset(
        "bib",
        texts=[
            '<bib><book><author>knuth</author><title>taocp</title></book>'
            '<book><author>gray</author><title>txn</title></book></bib>',
            '<bib><book><author>date</author><title>intro</title></book>'
            '</bib>',
            '<bib><article><author>codd</author></article></bib>',
        ],
        queries=['//book/author', '//book[./author="gray"]/title',
                 '//article/author'],
    ),
    Dataset(
        "deep",
        texts=[
            '<r><a><b><c><d>x</d></c></b></a></r>',
            '<r><a><b><d>y</d></b></a><a><c/></a></r>',
            '<r><b><c><d>z</d></c></b></r>',
        ],
        queries=['//a//d', '//b[./c]', '//a/b/c/d'],
    ),
    Dataset(
        "mixed",
        texts=[
            '<shop><item><name>bolt</name><price>2</price></item>'
            '<item><name>nut</name><price>1</price></item></shop>',
            '<shop><item><name>gear</name><price>9</price></item></shop>',
            '<shop><bin><item><name>bolt</name></item></bin></shop>',
        ],
        queries=['//item/name', '//item[./name="bolt"]', '//bin//name'],
    ),
]


def query_results(index, queries):
    return {q: sorted((m.doc_id, m.canonical) for m in index.query(q))
            for q in queries}


def oracle_results(dataset):
    """Clean, non-durable rebuild of the corpus: the ground truth."""
    with PrixIndex.build(dataset.docs,
                         IndexOptions(page_size=PAGE_SIZE,
                                      pool_pages=POOL_PAGES)) as index:
        return query_results(index, dataset.queries)


def build_guarded(dataset, tmp_path):
    """Guarded, durable on-disk build; returns the pristine file paths."""
    path = str(tmp_path / f"{dataset.name}.idx")
    index = PrixIndex.build(dataset.docs,
                            IndexOptions(path=path, page_size=PAGE_SIZE,
                                         pool_pages=POOL_PAGES,
                                         durable=True, guard=True))
    index.save()
    index.close()
    return path


def corrupt_copy(pristine, tmp_path, seed, point, checkpoint):
    """Fresh copy of the pristine files with one injected corruption.

    Returns ``(path, plan)``.  With ``checkpoint`` the WAL is truncated
    first, so the corruption has no committed image to repair from.
    """
    path = str(tmp_path / "case.idx")
    for suffix in ("", ".wal", ".sum"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)
        shutil.copy(pristine + suffix, path + suffix)
    if checkpoint:
        with PrixIndex.open(path, durable=True,
                            pool_pages=POOL_PAGES) as index:
            index.checkpoint()
    with open(path, "rb") as handle:
        data = handle.read()
    corrupted, plan = inject_corruption(data, PAGE_SIZE, seed, point)
    with open(path, "wb") as handle:
        handle.write(corrupted)
    return path, plan


def dump_artifact(dataset, seed, point, plan, detail):
    artifact = os.environ.get("PRIX_CRASH_ARTIFACT")
    if not artifact:
        return
    recipe = dict(plan or {})
    recipe.update({"dataset": dataset.name, "seed": seed, "point": point,
                   "detail": detail, "page_size": PAGE_SIZE,
                   "pool_pages": POOL_PAGES})
    with open(artifact, "w", encoding="utf-8") as handle:
        json.dump(recipe, handle, indent=2)


@pytest.mark.parametrize("dataset", DATASETS, ids=lambda d: d.name)
@pytest.mark.parametrize("seed", SEEDS)
def test_corruption_matrix_wal_intact(dataset, seed, tmp_path):
    """Every corruption is healed when the log still holds the images.

    Opening runs recovery (replaying committed images restamps the
    pages), and anything recovery missed is read-repaired on first
    access -- so the query results must always equal the oracle.
    """
    oracle = oracle_results(dataset)
    pristine = build_guarded(dataset, tmp_path)
    for point in range(MAX_POINTS):
        path, plan = corrupt_copy(pristine, tmp_path, seed, point,
                                  checkpoint=False)
        try:
            with PrixIndex.open(path, pool_pages=POOL_PAGES) as index:
                got = query_results(index, dataset.queries)
            assert got == oracle
        except Exception as error:
            dump_artifact(dataset, seed, point, plan,
                          f"wal-intact: {error}")
            raise


@pytest.mark.parametrize("dataset", DATASETS, ids=lambda d: d.name)
@pytest.mark.parametrize("seed", SEEDS)
def test_corruption_matrix_checkpointed(dataset, seed, tmp_path):
    """With no repair source the guard degrades to a typed error.

    After a checkpoint truncates the log, a damaged page cannot be
    repaired.  The oracle: results equal to a clean rebuild, or a typed
    :class:`CorruptionError` -- a silent deviation fails the matrix.
    """
    oracle = oracle_results(dataset)
    pristine = build_guarded(dataset, tmp_path)
    typed_errors = 0
    for point in range(MAX_POINTS):
        path, plan = corrupt_copy(pristine, tmp_path, seed, point,
                                  checkpoint=True)
        try:
            try:
                with PrixIndex.open(path, pool_pages=POOL_PAGES) as index:
                    got = query_results(index, dataset.queries)
            except CorruptionError:
                typed_errors += 1
            else:
                assert got == oracle, (
                    f"silent wrong answer at point {point}: {plan}")
        except Exception as error:
            dump_artifact(dataset, seed, point, plan,
                          f"checkpointed: {error}")
            raise
    # The sweep must actually exercise the typed-failure path; a sweep
    # where every corruption happened to miss live pages proves nothing.
    assert typed_errors > 0, (
        "no corruption point produced a typed error; widen MAX_POINTS")


@pytest.mark.parametrize("seed", SEEDS)
def test_scrub_heals_with_wal_and_reports_without(seed, tmp_path):
    """``scrub`` repairs in place when the log covers the page, and
    pinpoints the damaged page (unhealthy report) when it cannot."""
    dataset = DATASETS[0]
    oracle = oracle_results(dataset)
    pristine = build_guarded(dataset, tmp_path)

    # With the WAL: scrub must repair and leave a healthy, queryable
    # index; a second scrub sees nothing left to fix.
    path, plan = corrupt_copy(pristine, tmp_path, seed, point=0,
                              checkpoint=False)
    report = scrub_path(path)
    assert report.healthy
    again = scrub_path(path)
    assert again.healthy and again.pages_repaired == 0
    with PrixIndex.open(path, pool_pages=POOL_PAGES) as index:
        assert query_results(index, dataset.queries) == oracle

    # Without the WAL: find a point whose corruption scrub cannot mend,
    # and require the report to name the exact page from the plan.
    for point in range(MAX_POINTS):
        path, plan = corrupt_copy(pristine, tmp_path, seed, point,
                                  checkpoint=True)
        report = scrub_path(path)
        if not report.healthy:
            assert report.pages_corrupt == [plan["page"]] or (
                report.catalog_ok is False)
            break
    else:
        pytest.fail("no corruption point produced an unhealthy scrub")
