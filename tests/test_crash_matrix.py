"""The crash matrix: kill the engine at every injected IO point and
prove recovery.

For each (dataset, seed) schedule the harness first records a clean run
through the fault injector to count its IO operations, then re-runs the
same scenario -- a durable build followed by durable inserts -- crashing
at each injection point in turn.  After every crash it writes only the
bytes that were fsynced to an index file and its ``.wal``, reopens them
with ``PrixIndex.open`` -- the recover -> open chain ``prix recover``,
``prix query`` and ``prix serve`` run -- re-applies whatever documents
the crash lost, and requires the query results to be identical to a
clean build of the full corpus.

A failure dumps the schedule (a complete reproduction recipe: seed +
crash_at) as JSON to ``$PRIX_CRASH_ARTIFACT`` so CI can upload it.

The matrix is intentionally written against the public surface
(``PrixIndex.build`` / ``insert_document`` / ``save`` / ``open``);
it holds the whole durability story together, so keep it honest: no
mocking, no peeking at volatile state after a crash.
"""

import io
import json
import os

import pytest

from repro.prix.index import IndexOptions, PrixIndex
from repro.storage.errors import SuperblockError
from repro.storage.faults import CrashPoint, FaultSchedule, FaultyFile
from repro.storage.recovery import recover
from repro.storage.wal import WriteAheadLog, _HEADER
from repro.xmlkit.parser import parse_document

SEEDS = (11, 23, 47)
PAGE_SIZE = 256
POOL_PAGES = 48

#: Minimum injected IO points a schedule must expose (driver floor: 50).
MIN_POINTS = 50

#: Cap on full-scenario replays per schedule, to bound suite runtime;
#: points are sampled evenly (plus both ends) when a run has more.  The
#: CI crash-matrix job raises this to sweep every point.
MAX_RUNS = int(os.environ.get("PRIX_CRASH_MAX_RUNS", "70"))


def _docs(texts):
    return [parse_document(text, doc_id)
            for doc_id, text in enumerate(texts, start=1)]


class Dataset:
    def __init__(self, name, base, inserts, queries):
        self.name = name
        self.base_docs = _docs(base + inserts)[:len(base)]
        self.insert_docs = _docs(base + inserts)[len(base):]
        self.queries = queries

    @property
    def all_docs(self):
        return self.base_docs + self.insert_docs


DATASETS = [
    Dataset(
        "bib",
        base=[
            '<bib><book><author>knuth</author><title>taocp</title></book>'
            '<book><author>gray</author><title>txn</title></book></bib>',
            '<bib><book><author>date</author><title>intro</title></book>'
            '</bib>',
            '<bib><article><author>codd</author></article></bib>',
        ],
        inserts=[
            '<bib><book><author>gray</author><title>benchmarks</title>'
            '</book></bib>',
            '<bib><article><author>knuth</author><note>errata</note>'
            '</article></bib>',
        ],
        queries=['//book/author', '//book[./author="gray"]/title',
                 '//article/author'],
    ),
    Dataset(
        "deep",
        base=[
            '<r><a><b><c><d>x</d></c></b></a></r>',
            '<r><a><b><d>y</d></b></a><a><c/></a></r>',
            '<r><b><c><d>z</d></c></b></r>',
        ],
        inserts=[
            '<r><a><b><c><d>w</d></c></b></a><b><c/></b></r>',
            '<r><a><c><d>v</d></c></a></r>',
        ],
        queries=['//a//d', '//b[./c]', '//a/b/c/d'],
    ),
    Dataset(
        "mixed",
        base=[
            '<shop><item><name>bolt</name><price>2</price></item>'
            '<item><name>nut</name><price>1</price></item></shop>',
            '<shop><item><name>gear</name><price>9</price></item></shop>',
            '<shop><bin><item><name>bolt</name></item></bin></shop>',
        ],
        inserts=[
            '<shop><bin><item><name>cam</name><price>7</price></item>'
            '</bin></shop>',
            '<shop><item><name>axle</name><price>5</price></item></shop>',
        ],
        queries=['//item/name', '//item[./name="bolt"]',
                 '//bin//name'],
    ),
]


def query_results(index, queries):
    return {q: sorted((m.doc_id, m.canonical) for m in index.query(q))
            for q in queries}


def oracle_results(dataset):
    """Clean, non-durable rebuild of the full corpus: the ground truth."""
    with PrixIndex.build(dataset.all_docs,
                         IndexOptions(page_size=PAGE_SIZE,
                                      pool_pages=POOL_PAGES,
                                      labeler="dynamic")) as index:
        return query_results(index, dataset.queries)


def run_scenario(dataset, schedule):
    """Durable build of the base docs, then durable inserts, through the
    fault injector.

    Returns the two faulty files.  A :class:`CrashPoint` is absorbed
    here -- after it, the in-memory index is simply abandoned, exactly
    like a dead process, and only the files' durable bytes matter
    (``schedule.crashed`` tells the caller it happened).
    """
    data_file = FaultyFile(schedule, "data")
    wal_file = FaultyFile(schedule, "wal", droppable_fsync=False)
    files = {"data": data_file, "wal": wal_file}
    options = IndexOptions(durable=True, page_size=PAGE_SIZE,
                           pool_pages=POOL_PAGES, labeler="dynamic",
                           file_factory=files.__getitem__)
    try:
        index = PrixIndex.build(dataset.base_docs, options)
        for doc in dataset.insert_docs:
            index.insert_document(doc)
            index.save()
        index.close()
    except CrashPoint:
        pass
    return data_file, wal_file


def recover_and_complete(dataset, data_bytes, wal_bytes, tmp_path):
    """What an operator does after a crash: recover, re-apply what was
    lost, return the query results."""
    path = tmp_path / "crashed.idx"
    path.write_bytes(data_bytes)
    (tmp_path / "crashed.idx.wal").write_bytes(wal_bytes)
    try:
        index = PrixIndex.open(str(path), pool_pages=POOL_PAGES)
    except SuperblockError:
        # The crash predates the first committed save: there is no
        # superblock, so the recovered index is empty by construction
        # and the operator redoes the whole build.
        index = PrixIndex.build(dataset.all_docs,
                                IndexOptions(page_size=PAGE_SIZE,
                                             pool_pages=POOL_PAGES,
                                             labeler="dynamic"))
    else:
        present = set(index._doc_ids)
        for doc in dataset.all_docs:
            if doc.doc_id not in present:
                index.insert_document(doc)
                index.save()
    with index:
        return query_results(index, dataset.queries)


def dump_artifact(dataset, schedule, detail):
    path = os.environ.get("PRIX_CRASH_ARTIFACT")
    if not path:
        return
    recipe = schedule.describe()
    recipe.update({"dataset": dataset.name, "detail": detail,
                   "page_size": PAGE_SIZE, "pool_pages": POOL_PAGES})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(recipe, handle, indent=2)


def sampled_points(total):
    if total <= MAX_RUNS:
        return list(range(total))
    stride = total / MAX_RUNS
    points = sorted({int(i * stride) for i in range(MAX_RUNS)}
                    | {0, total - 1})
    return points


@pytest.mark.parametrize("dataset", DATASETS, ids=lambda d: d.name)
@pytest.mark.parametrize("seed", SEEDS)
def test_crash_matrix(dataset, seed, tmp_path):
    oracle = oracle_results(dataset)

    # Recording run: no crash, count the injection points and check the
    # fault-free durable scenario agrees with the oracle already.
    recording = FaultSchedule(seed, crash_at=None)
    data_file, wal_file = run_scenario(dataset, recording)
    total_ops = recording.ops
    assert total_ops >= MIN_POINTS, (
        f"schedule exposes only {total_ops} injection points; the "
        f"matrix needs at least {MIN_POINTS} to mean anything")
    clean = recover_and_complete(dataset, data_file.durable_bytes(),
                                 wal_file.durable_bytes(), tmp_path)
    assert clean == oracle

    for crash_at in sampled_points(total_ops):
        schedule = FaultSchedule(seed, crash_at=crash_at)
        data_file, wal_file = run_scenario(dataset, schedule)
        assert schedule.crashed is not None, (
            f"crash_at={crash_at} never fired (ops drifted?)")
        crash = schedule.crashed
        try:
            got = recover_and_complete(dataset,
                                       data_file.durable_bytes(),
                                       wal_file.durable_bytes(), tmp_path)
            assert got == oracle
        except Exception as error:
            dump_artifact(dataset, schedule,
                          f"{crash.kind} at op {crash.op_index} on "
                          f"{crash.name}: {error}")
            raise


@pytest.mark.parametrize("seed", SEEDS)
def test_recovery_survives_its_own_crash(seed, tmp_path):
    """Crash recovery mid-replay, then recover again: idempotence."""
    dataset = DATASETS[0]
    oracle = oracle_results(dataset)

    # Crash the scenario in its middle, deterministically per seed,
    # so the durable images hold a committed-but-unapplied WAL tail.
    recording = FaultSchedule(seed, crash_at=None)
    run_scenario(dataset, recording)
    schedule = FaultSchedule(seed, crash_at=recording.ops // 2)
    data_file, wal_file = run_scenario(dataset, schedule)
    assert schedule.crashed is not None
    durable_data = data_file.durable_bytes()
    durable_wal = wal_file.durable_bytes()

    # (_parse_header is a pure static parse, not an acquired handle)
    header = WriteAheadLog._parse_header(  # prixlint: disable=resource-safety
        durable_wal[:_HEADER.size])
    assert header is not None, "mid-run crash left no durable log header"
    page_size = header[1]

    for recovery_crash in (0, 2, 5):
        inner = FaultSchedule(seed + 1000, crash_at=recovery_crash)
        faulty_data = FaultyFile.from_bytes(inner, durable_data, "data")
        with WriteAheadLog(io.BytesIO(durable_wal), page_size) as wal:
            try:
                recover(faulty_data, wal)
            except CrashPoint:
                pass
        # Whatever the second crash left durable, recovering again (and
        # once more inside PrixIndex.open) must still converge on the
        # oracle.
        got = recover_and_complete(dataset, faulty_data.durable_bytes(),
                                   durable_wal, tmp_path)
        assert got == oracle
