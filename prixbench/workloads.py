"""The five workloads: inputs, set-up, one round of operations, checks.

A workload owns a fixed operation list per (scale, seed); a *round* runs
that list once.  The runner repeats rounds for the measured time and
reports medians over rounds, so count metrics repeat exactly and timing
metrics do not depend on how many rounds fit.

Every workload is a closed loop: a caller sends its next operation when
the previous one returned.  All have one caller except ``serve_c2``.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import threading
import urllib.request
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter, sleep

from prixbench import SRC_DIR, corpora, twigs
from prixbench.hostspeed import PROBE_EVERY
from repro.bench.workloads import QUERIES
from repro.datasets import get_corpus
from repro.prix.incremental import RebuildRequiredError
from repro.prix.index import IndexOptions, PrixIndex
from repro.query.xpath import parse_xpath
from repro.serve import protocol
from repro.serve.client import ClientError, PrixServeClient
from repro.serve.server import build_server
from repro.shard import builder as shard_builder
from repro.shard.sharded import ShardedIndex
from repro.storage.backend import open_backend
from repro.xmlkit import parser as xml_parser
from repro.xmlkit.serializer import serialize

#: 1 KiB pages keep pages-per-corpus in the regime of the paper's 8 KiB
#: pages over ~100x larger data (same choice as ``repro.bench.harness``).
PAGE_SIZE = 1024

#: A pool no index here outgrows: every page stays resident.
WHOLE_INDEX_POOL = 1 << 16

MONOLITH_KEYS = ("dblp", "swissprot", "treebank")


@dataclass
class Op:
    """One operation of a workload's fixed list."""

    op_id: int
    kind: str            # query | delete | insert | save
    target: str          # corpus key (also the server mount name)
    label: str           # Q1..Q9, "S" for sampled, or the write kind
    xpath: str = ""
    ordered: bool = False
    strategy: str = "auto"
    expect: str = ""     # answer digest (queries with a fixed answer)


@dataclass
class Outcome:
    """What one executed operation produced."""

    op: Op
    seconds: float
    rows: object = None      # answer rows, digested after the round
    stats: dict = field(default_factory=dict)
    expect: str = ""
    error: str = ""


def _query_stats(stats):
    """The counters of a ``QueryStats`` the per-layer report uses."""
    return {
        "strategy": stats.strategy,
        "arrangements": stats.arrangements,
        "range_queries": stats.filter.range_queries,
        "nodes_visited": stats.filter.nodes_visited,
        "pruned_by_maxgap": stats.filter.pruned_by_maxgap,
        "candidates": stats.filter.candidates,
        "candidates_refined": stats.candidates_refined,
        "candidates_accepted": stats.candidates_accepted,
        "physical_reads": stats.physical_reads,
        "approximate": bool(stats.approximate),
        "per_shard": getattr(stats, "per_shard", None),
    }


def _dir_bytes(directory):
    return sum(os.path.getsize(os.path.join(directory, name))
               for name in os.listdir(directory))


def _index_bytes(path):
    """Saved index plus its ``.sum``/``.wal`` sidecars where present."""
    return sum(os.path.getsize(path + suffix)
               for suffix in ("", ".sum", ".wal")
               if os.path.exists(path + suffix))


class Workload:
    """Shared plumbing; subclasses define set-up and the operation list."""

    name = ""
    why = ""
    corpus_keys = MONOLITH_KEYS
    strategy = "auto"
    classes = None           # cardinality classes of mix_sampled to use
    one_in = 2               # share of each pool a seed runs (twigs.pick)
    callers = 1
    in_process = False       # traced serve_c2 hosts its server on a thread

    def __init__(self, scale, seed, workdir, clients=None):
        self.scale = scale
        self.seed = seed
        self.workdir = workdir
        self.clients = clients or self.callers
        self.corpora = {}
        self.pools = {}
        self.ops = []
        self.facts = {}      # what set-up learned (sizes, times)
        self.round_no = 0

    # -- inputs (never timed) -------------------------------------------

    def prepare(self):
        """Load corpora, refuse drift, fix the operation list."""
        for key in self.corpus_keys:
            corpus = corpora.load(key, self.scale)
            if self.scale == "full":
                corpora.check_pinned(corpus)
            self.corpora[key] = corpus
            self.pools[key] = twigs.pool_for(corpus)
        self.ops = self.build_ops(random.Random(self.seed))

    def build_ops(self, rng):
        """``mix_sampled`` + ``mix_table3`` over every corpus, shuffled."""
        ops = []
        for key in self.corpus_keys:
            pool = self.pools[key]
            for twig, ordered in twigs.pick(pool, rng, self.classes,
                                            self.one_in):
                answer = twig["ordered" if ordered else "unordered"]
                ops.append(Op(0, "query", key, "S", twig["xpath"], ordered,
                              self.strategy, answer["digest"]))
            for spec in QUERIES:
                answers = pool["table3"].get(spec.qid)
                if answers is None:
                    continue
                for ordered in (True, False):
                    answer = answers["ordered" if ordered else "unordered"]
                    ops.append(Op(0, "query", key, spec.qid, spec.xpath,
                                  ordered, self.strategy, answer["digest"]))
        rng.shuffle(ops)
        for op_id, op in enumerate(ops):
            op.op_id = op_id
        return ops

    @property
    def xml_bytes(self):
        return sum(corpus.xml_bytes for corpus in self.corpora.values())

    @property
    def doc_count(self):
        return sum(len(corpus.documents)
                   for corpus in self.corpora.values())

    # -- lifecycle ---------------------------------------------------------

    def setup(self):
        raise NotImplementedError

    def teardown(self):
        raise NotImplementedError

    def io_stats(self):
        """IOStats objects of every storage stack the workload reads."""
        return []

    def extras(self):
        """Per-layer values measured once, after the traced rounds."""
        return {}

    def path(self, name):
        return os.path.join(self.workdir, name)

    def _build_saved(self, key, **options):
        """Generate, build, ``save()`` and close one file-backed index."""
        path = self.path(f"{key}.idx")
        for suffix in ("", ".sum", ".wal"):
            if os.path.exists(path + suffix):
                os.unlink(path + suffix)
        documents = corpora.generate(key, self.scale)
        started = perf_counter()
        index = PrixIndex.build(documents, IndexOptions(
            page_size=PAGE_SIZE, pool_pages=WHOLE_INDEX_POOL, path=path,
            **options))
        self.facts["build_s"] = (self.facts.get("build_s", 0.0)
                                 + perf_counter() - started)
        index.save()
        return path, index

    # -- one round -----------------------------------------------------------

    def run_round(self, tracer=None, probe=None):
        """Run the operation list once; returns ``(outcomes, busy_s)``.

        ``busy_s`` is the time callers spent inside operations: with one
        caller the sum of latencies, so harness bookkeeping between two
        operations (and the host-speed ``probe``) is not charged to the
        program.
        """
        outcomes = []
        for position, op in enumerate(self.ops):
            if probe is not None and position % PROBE_EVERY == 0:
                probe()
            outcomes.append(self.execute(op, tracer))
        self.round_no += 1
        return outcomes, sum(outcome.seconds for outcome in outcomes)

    def execute(self, op, tracer):
        index = self.index_for(op)
        started = perf_counter()
        try:
            with tracer.root(op.op_id) if tracer else nullcontext():
                started = perf_counter()
                matches, stats = index.query_with_stats(
                    op.xpath, ordered=op.ordered, strategy=op.strategy)
                seconds = perf_counter() - started
        except Exception as error:  # counted in failed, listed by op id
            return Outcome(op, perf_counter() - started, expect=op.expect,
                           error=f"{type(error).__name__}: {error}")
        return Outcome(op, seconds, twigs.rows_from_matches(matches),
                       _query_stats(stats), op.expect)

    def index_for(self, op):
        return self.indexes[op.target]


# --------------------------------------------------------------- trie_warm

class TrieWarm(Workload):
    name = "trie_warm"
    why = ("Algorithm 1, symbol/docid range queries and B+-tree scans do "
           "the work with zero physical I/O; bypasses serve, shard and "
           "backend reads")
    strategy = "trie"

    def setup(self):
        """Build each index with a pool larger than itself.

        The index is file-backed only so the throw-away ``save()`` can
        report its size; every page stays in the pool, so no query read
        ever reaches the file.
        """
        self.indexes = {}
        index_bytes = 0
        for key in self.corpus_keys:
            path, index = self._build_saved(key)
            index_bytes += _index_bytes(path)
            self.indexes[key] = index
        self.facts["index_bytes"] = index_bytes

    def teardown(self):
        for index in self.indexes.values():
            index.close()
        self.indexes = {}

    def io_stats(self):
        return [index.io_stats for index in self.indexes.values()]


# ---------------------------------------------------------- auto_smallpool

class AutoSmallPool(Workload):
    name = "auto_smallpool"
    why = ("working set exceeds the 128-page pool, so pool misses, guard "
           "checks, backend reads, record decode and refine dominate while "
           "the trie filter is mostly bypassed")
    pool_pages = 128

    def setup(self):
        self.indexes = {}
        self.paths = {}
        index_bytes = 0
        for key in self.corpus_keys:
            path, index = self._build_saved(key, guard=True)
            index.close()
            index_bytes += _index_bytes(path)
            self.paths[key] = path
        started = perf_counter()
        for key, path in self.paths.items():
            self.indexes[key] = PrixIndex.open(
                path, backend="file", pool_pages=self.pool_pages)
        self.facts["open_s"] = perf_counter() - started
        self.facts["index_bytes"] = index_bytes

    teardown = TrieWarm.teardown
    io_stats = TrieWarm.io_stats

    #: Random page reads per backend in :meth:`extras`.
    backend_gets = 20_000

    def extras(self):
        """Time seeded random page ``get``s on the swissprot file through
        each backend kind with this workload's pool (traced runs only)."""
        path = self.paths["swissprot"]
        pages = os.path.getsize(path) // PAGE_SIZE
        rng = random.Random(self.seed)
        page_ids = [rng.randrange(pages) for _ in range(self.backend_gets)]
        values = {}
        for kind in ("file", "arena", "mmap"):
            backend = open_backend(path, PAGE_SIZE, kind=kind,
                                   pool_pages=self.pool_pages, guard=True)
            try:
                started = perf_counter()
                for page_id in page_ids:
                    backend.get(page_id)
                elapsed = perf_counter() - started
            finally:
                backend.close()
            values[f"storage.backend.{kind}.get_us"] = \
                elapsed * 1e6 / len(page_ids)
        return values


# ----------------------------------------------------------------- serve_c2

class ServeC2(Workload):
    name = "serve_c2"
    why = ("a live `python -m repro.serve` child driven by 2 closed-loop "
           "clients: HTTP, admission, lease and JSON cost about as much as "
           "the engine, so serve-tier changes show here and nowhere else")
    callers = 2

    def mount_name(self, key):
        return "default" if key == self.corpus_keys[0] else key

    def setup(self):
        paths = {}
        for key in self.corpus_keys:
            path, index = self._build_saved(key)
            index.close()
            paths[key] = path
        self.process = self.server = self.accept = None
        if self.in_process:
            self.server = build_server(
                [(self.mount_name(key), path)
                 for key, path in paths.items()], port=0)
            self.accept = threading.Thread(target=self.server.serve_forever,
                                           name="prixbench-accept")
            self.accept.start()
            host, port = self.server.server_address[:2]
            self.url = f"http://{host}:{port}"
        else:
            self.url = self._spawn(paths)
        # The server scrubs each mount and writes its checksum sidecar.
        self.facts["index_bytes"] = sum(_index_bytes(path)
                                        for path in paths.values())
        self.attempts = [0] * self.clients
        self.http = [self._client(number)
                         for number in range(self.clients)]
        self.patterns = {}

    def _spawn(self, paths):
        first, *rest = self.corpus_keys
        command = [sys.executable, "-m", "repro.serve", paths[first],
                   "--port", "0"]
        for key in rest:
            command += ["--mount", f"{key}={paths[key]}"]
        environment = dict(os.environ, PYTHONPATH=SRC_DIR,
                           PYTHONHASHSEED="0")
        self.process = subprocess.Popen(
            command, env=environment, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        line = self.process.stdout.readline()
        found = re.search(r"http://\S+", line)
        if found is None:
            self.teardown()
            raise RuntimeError(f"server did not start: {line!r}")
        return found.group(0)

    def _client(self, number):
        def opener(request, timeout):
            self.attempts[number] += 1
            return urllib.request.urlopen(request, timeout=timeout)
        return PrixServeClient(self.url, seed=self.seed + number,
                               opener=opener)

    def teardown(self):
        """SIGTERM, let the server drain, kill it if it will not go."""
        if self.server is not None:
            self.server.drain()
            self.accept.join()
            self.server = None
        process, self.process = self.process, None
        if process is None:
            return
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()

    def io_stats(self):
        if self.server is None:
            return []
        stats = []
        for key in self.corpus_keys:
            with self.server.registry.lease(self.mount_name(key)) as mount:
                stats.append(mount.index.io_stats)
        return stats

    def run_round(self, tracer=None, probe=None):
        """Each client walks its share of the list; the round's busy time
        is the wall time until the last client finishes.  The host-speed
        ``probe`` runs on this thread while the clients wait on the
        server, so it adds no think time to the closed loops."""
        shares = [self.ops[number::self.clients]
                  for number in range(self.clients)]
        results = [None] * self.clients
        finished = [0.0] * self.clients
        barrier = threading.Barrier(self.clients + 1)

        def drive(number):
            barrier.wait()
            results[number] = [self.request(number, op, tracer)
                               for op in shares[number]]
            finished[number] = perf_counter()

        threads = [threading.Thread(target=drive, args=(number,))
                   for number in range(self.clients)]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = perf_counter()
        while probe is not None and any(thread.is_alive()
                                        for thread in threads):
            probe()
            sleep(0.02)
        for thread in threads:
            thread.join()
        busy = max(finished) - started
        self.round_no += 1
        outcomes = [outcome for share in results for outcome in share]
        outcomes.sort(key=lambda outcome: outcome.op.op_id)
        return outcomes, busy

    def request(self, number, op, tracer):
        client = self.http[number]
        started = perf_counter()
        try:
            with tracer.root(op.op_id) if tracer else nullcontext():
                started = perf_counter()
                payload = client.query(op.xpath,
                                       index=self.mount_name(op.target),
                                       ordered=op.ordered)
                seconds = perf_counter() - started
        except ClientError as error:
            return Outcome(op, perf_counter() - started, expect=op.expect,
                           error=f"{type(error).__name__}: {error}")
        stats = dict(payload["stats"])
        stats["approximate"] = payload["approximate"]
        stats["response_bytes"] = len(protocol.dumps(payload))
        if payload["approximate"]:
            return Outcome(op, seconds, None, stats, op.expect)
        pattern = self.patterns.get(op.xpath)
        if pattern is None:
            pattern = self.patterns[op.xpath] = parse_xpath(op.xpath)
        return Outcome(op, seconds,
                       twigs.rows_from_payload(pattern, payload), stats,
                       op.expect)


# ------------------------------------------------------------ shard4_scatter

class Shard4Scatter(Workload):
    name = "shard4_scatter"
    why = ("isolates repro.shard scatter-gather, budget split and merge "
           "over 4 shards visited in sequence; the parallel build lands "
           "in setup_s")
    corpus_keys = ("swissprot_shard",)
    classes = ("1-5", "6-50")
    #: Selective twigs are cheap, so every seed runs the whole pool (in
    #: its own order and ordered/unordered split): a round of 40 picks
    #: left two operations beyond p95.
    one_in = 1
    shards = 4

    def setup(self):
        directory = self.path("shards")
        documents = corpora.generate(self.corpus_keys[0], self.scale)
        report = shard_builder.build_shards(
            documents, directory, shards=self.shards,
            workers=min(os.cpu_count() or 1, self.shards),
            options=IndexOptions(page_size=PAGE_SIZE, guard=True),
            overwrite=True)
        self.facts["build_s"] = report.elapsed_seconds
        started = perf_counter()
        self.index = ShardedIndex.open(directory)
        self.facts["open_s"] = perf_counter() - started
        self.facts["index_bytes"] = _dir_bytes(directory)

    def teardown(self):
        self.index.close()
        self.index = None

    def index_for(self, op):
        return self.index

    def io_stats(self):
        return [self.index.io_stats]


# --------------------------------------------------------------- churn_mixed

class ChurnMixed(Workload):
    name = "churn_mixed"
    why = ("deletes, re-inserts and save() beside queries on a durable, "
           "guarded index: a read-side win that costs insert, WAL or "
           "save() time shows as a regression")
    corpus_keys = ("dblp", "swissprot")
    pool_pages = 2048
    #: Per round: 30 % delete, 30 % re-insert, 40 % query, and one
    #: ``save()`` per 20 mutations.
    blocks = {"full": 30, "tiny": 6}
    save_every = 20

    def build_ops(self, rng):
        """Blocks of 3 deletes, 3 re-inserts and 4 queries in seeded
        order; an insert re-adds the record deleted longest ago on that
        index, so it never runs before a delete.

        Queries cycle Q1-Q6 as (trie, ordered) / (auto, unordered).  The
        one heavy pairing, Q6 unordered under ``trie`` (about 0.8 s), is
        left to ``trie_warm``: here it would be most of a round and hide
        the writes this workload exists to show.
        """
        specs = [spec for spec in QUERIES
                 if spec.corpus in self.corpus_keys]
        cycle = [(spec, mode) for mode in (("trie", True), ("auto", False))
                 for spec in specs]
        rng.shuffle(cycle)
        ops = []
        pending = {key: 0 for key in self.corpus_keys}
        mutations = asked = deleted = 0
        for _ in range(self.blocks[self.scale]):
            slots = ["mutate"] * 6 + ["query"] * 4
            rng.shuffle(slots)
            deletes_left = 3
            for slot in slots:
                if slot == "query":
                    spec, (strategy, ordered) = cycle[asked % len(cycle)]
                    asked += 1
                    ops.append(Op(0, "query", spec.corpus, spec.qid,
                                  spec.xpath, ordered, strategy))
                    continue
                waiting = [key for key in pending if pending[key]]
                if not waiting or (deletes_left and rng.random() < 0.5):
                    # Deletes alternate between the indexes, so every
                    # seed runs the same number of each (kind, index).
                    kind = "delete"
                    key = self.corpus_keys[deleted % len(self.corpus_keys)]
                    deleted += 1
                    pending[key] += 1
                    deletes_left -= 1
                else:
                    kind, key = "insert", max(waiting, key=pending.get)
                    pending[key] -= 1
                ops.append(Op(0, kind, key, kind))
                mutations += 1
                if mutations % self.save_every == 0:
                    for target in self.corpus_keys:
                        ops.append(Op(0, "save", target, "save"))
        for op_id, op in enumerate(ops):
            op.op_id = op_id
        return ops

    def prepare(self):
        super().prepare()
        # Per query: the embeddings each *record* holds.  Re-inserting a
        # record under a fresh doc id moves its rows, nothing else.
        self.embeddings = {}
        for key in self.corpus_keys:
            oracle = twigs.Oracle(self.corpora[key].documents)
            for spec in QUERIES:
                if spec.corpus != key:
                    continue
                pattern = parse_xpath(spec.xpath)
                for ordered in (True, False):
                    self.embeddings[spec.qid, ordered] = \
                        oracle.per_document(pattern, ordered)

    def setup(self):
        self.indexes = {}
        self.paths = {}
        self.live = {}        # key -> {doc id: record position}
        self.removed = {}     # key -> record positions awaiting re-insert
        self.next_id = {}
        self.victims = random.Random(self.seed + 1)
        for key in self.corpus_keys:
            path, index = self._build_saved(
                key, labeler="dynamic", durable=True, wal_sync="commit",
                guard=True)
            index.close()
            self.paths[key] = path
            started = perf_counter()
            self.indexes[key] = PrixIndex.open(
                path, pool_pages=self.pool_pages, durable=True,
                wal_sync="commit")
            self.facts["open_s"] = (self.facts.get("open_s", 0.0)
                                    + perf_counter() - started)
            documents = self.corpora[key].documents
            self.live[key] = {document.doc_id: position
                              for position, document in enumerate(documents)}
            self.removed[key] = []
            self.next_id[key] = max(self.live[key]) + 1
        self.facts["index_bytes"] = sum(
            _index_bytes(path) for path in self.paths.values())

    teardown = TrieWarm.teardown
    io_stats = TrieWarm.io_stats

    def expected_rows(self, op):
        found = self.embeddings[op.label, op.ordered]
        rows = []
        for doc_id, position in self.live[op.target].items():
            for canonical in found.get(position, ()):
                rows.append((doc_id, canonical))
        return rows

    def execute(self, op, tracer):
        if op.kind == "query":
            outcome = super().execute(op, tracer)
            outcome.expect = twigs.answer_digest(self.expected_rows(op))
            return outcome
        index = self.indexes[op.target]
        live = self.live[op.target]
        if op.kind == "delete":
            doc_id = self.victims.choice(sorted(live))
            action = lambda: index.delete_document(doc_id)
        elif op.kind == "insert":
            position = self.removed[op.target].pop(0)
            doc_id = self.next_id[op.target]
            text = self.corpora[op.target].texts[position]
            action = lambda: index.insert_document(
                xml_parser.parse_document(text, doc_id=doc_id))
        else:
            action = index.save
        started = perf_counter()
        try:
            with tracer.root(op.op_id) if tracer else nullcontext():
                started = perf_counter()
                action()
                seconds = perf_counter() - started
        except (RebuildRequiredError, KeyError, ValueError) as error:
            return Outcome(op, perf_counter() - started,
                           error=f"{type(error).__name__}: {error}")
        if op.kind == "delete":
            self.removed[op.target].append(live.pop(doc_id))
        elif op.kind == "insert":
            live[doc_id] = position
            self.next_id[op.target] = doc_id + 1
            return Outcome(op, seconds,
                           stats={"xml_bytes": len(text.encode("utf-8"))})
        return Outcome(op, seconds)

    #: Never-seen documents inserted after the timed phase.
    novel_documents = 50

    def extras(self):
        """Insert documents whose structure the trie has not seen, then
        time the ``rebuilt()`` an underflow asks for (traced runs only)."""
        key = self.corpus_keys[0]
        index = self.indexes[key]
        known = set(self.corpora[key].texts)
        size = corpora.SIZES[self.scale][key]
        candidates = get_corpus(corpora.generator_name(key),
                                size + 2 * self.novel_documents).documents
        novel = [document for document in candidates
                 if serialize(document) not in known]
        novel = novel[-self.novel_documents:]
        underflows = 0
        for offset, document in enumerate(novel):
            fresh = xml_parser.parse_document(
                serialize(document), doc_id=self.next_id[key] + offset)
            try:
                index.insert_document(fresh)
            except RebuildRequiredError:
                underflows += 1
        started = perf_counter()
        index.rebuilt().close()
        return {"index.insert_novel.underflow_ratio":
                    underflows / len(novel) if novel else 0.0,
                "index.rebuilt_s": perf_counter() - started}


WORKLOADS = {cls.name: cls for cls in (TrieWarm, AutoSmallPool, ServeC2,
                                       Shard4Scatter, ChurnMixed)}
