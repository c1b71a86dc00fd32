"""Engine processes: where ``prix serve`` runs its queries.

The paper's filter-and-refine (Algorithms 1 and 2) is pure CPU once its
pages are resident, and one interpreter runs Python on one core at a
time.  So when a :class:`~repro.serve.server.PrixServeServer` starts
serving, its :class:`EnginePool` forks one *engine* process per CPU the
server may run on (``len(os.sched_getaffinity(0))``).  The front end
keeps HTTP, admission, the registry lease and metrics; each admitted
``/query`` is handed, over a pipe, to an idle engine, which runs
``query_with_stats`` on the index handle it inherited and sends back
either the serialized response body or the typed protocol error
(``docs/SERVING.md``, "Process model").

What crosses the pipe:

- a :class:`Job`: the mount name, its generation, what reopens it (path
  and open keywords), the parsed request, the request's
  :class:`~repro.prix.budget.QueryBudget` (its deadline already reduced
  by the time spent waiting for an engine), and the generations the
  front end has closed since it last told this engine;
- a :class:`Reply`: the :class:`Answer` (body bytes and the
  ``approximate`` flag), or a
  :class:`~repro.serve.protocol.ProtocolError`; and either way the
  query's :class:`~repro.storage.stats.IOStats` delta, one per counter
  object behind the index (one for a file, one per shard), and for a
  shard set its query-counter delta (scatter and per-shard queries),
  which the front end adds to the mount's own counters -- ``/metrics``
  keeps reporting every page the engines read and every scatter they
  ran.

Lifecycle.  The fork comes after every mount is attached and before the
first handler thread exists, so no latch is inherited while held.  A
generation a ``/reload`` swaps in after the fork is opened from the
mount's path on an engine's first query for it; a generation the front
end has closed is closed by each engine on its next job.  An engine
exits on EOF from its pipe: :meth:`EnginePool.close` (the server's
drain) closes the pipes and reaps the engines, and a front end killed
outright leaves no engine behind.  An engine that dies fails the one
query it held with a typed ``internal`` error; the others keep serving,
and with none left the front end runs queries itself.
"""

from __future__ import annotations

import dataclasses
import os
import queue
import signal
import time
from typing import NamedTuple

from repro.serve import protocol
from repro.serve.protocol import ProtocolError, error_for_exception
from repro.shard import open_index
from repro.storage import Latch, guarded

#: Seconds :meth:`EnginePool.close` gives an engine to exit on EOF
#: before it is killed.
REAP_TIMEOUT = 5.0


def engine_count():
    """One engine per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


class Job(NamedTuple):
    """One query, front end to engine."""

    name: str
    generation: int
    path: str
    opened: dict
    request: protocol.QueryRequest
    budget: object              # QueryBudget
    closed: list                # (name, generation) closed since last job


class Answer(NamedTuple):
    """A ``/query`` success: canonical body bytes plus the flag the
    metrics count (the body is never parsed again)."""

    body: bytes
    approximate: bool


class Reply(NamedTuple):
    """One reply, engine to front end: an answer or a typed error."""

    answer: Answer | None
    error: ProtocolError | None
    deltas: list                # per counter object: {counter: increment}
    counts: dict | None         # a shard set's query_counts_since delta


def answer(index, request, budget, generation):
    """Run one query on ``index`` and serialize its success body."""
    matches, stats = index.query_with_stats(
        request.xpath, ordered=request.ordered, variant=request.variant,
        use_maxgap=request.use_maxgap, budget=budget)
    body = protocol.result_payload(request, matches, stats, generation)
    return Answer(protocol.dumps(body), bool(matches.approximate))


def _run_job(job, handles):
    """Answer ``job`` with this engine's handles (engine side)."""
    for key in job.closed:
        stale = handles.pop(key, None)
        if stale is not None:
            stale.close()
    key = (job.name, job.generation)
    parts, before, counted = (), (), None
    try:
        index = handles.get(key)
        if index is None:
            index = handles[key] = open_index(job.path, **job.opened)
        parts = index.io_stats.parts()
        before = [part.snapshot() for part in parts]
        counted = index.query_counts()
        result = answer(index, job.request, job.budget, job.generation)
        error = None
    except Exception as failure:  # noqa: BLE001 - the reply carries it
        result, error = None, error_for_exception(failure)
    deltas = []
    for part, base in zip(parts, before):
        delta = part.delta(base)
        deltas.append({name: getattr(delta, name)
                       for name in type(delta)._GUARDED
                       if getattr(delta, name)})
    counts = None if counted is None else index.query_counts_since(counted)
    return Reply(result, error, deltas, counts)


def _engine_main(connection, handles):
    """The engine loop: one job in, one reply out, until EOF."""
    # Ctrl-C reaches the whole process group; the front end drains and
    # closes the pipes, which is how an engine is told to stop.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    while True:
        try:
            job = connection.recv()
        except (EOFError, OSError):
            return
        reply = _run_job(job, handles)
        try:
            connection.send(reply)
        except OSError:
            return


class _Engine:
    """Front-end record of one engine process."""

    __slots__ = ("pid", "connection", "served", "told")

    def __init__(self, pid, connection):
        self.pid = pid
        self.connection = connection
        self.served = 0         # replies received (under the pool latch)
        self.told = 0           # closed generations reported to it


@guarded
class EnginePool:
    """The front end's engines and the queue of idle ones.

    An engine is used by one handler thread at a time: taken from the
    idle queue, handed back after its reply.  ``_engines`` (the live
    ones, with their served counts) is guarded by the ``serve-engines``
    latch, a leaf held only for that bookkeeping, never across a job.
    """

    _GUARDED = {"_engines": "_latch", "_started": "_latch"}

    def __init__(self):
        self._latch = Latch("serve-engines")
        self._idle = queue.SimpleQueue()
        with self._latch:
            self._engines = []
            self._started = False

    def start(self, registry, listener):
        """Fork the engines (once).  Each inherits every open generation
        of ``registry`` and closes at once what only the front end may
        use: its siblings' pipes and ``listener``, the listening
        socket."""
        with self._latch:
            if self._started:
                return
            self._started = True
        # Imported here: ``multiprocessing`` (with ``pickle`` and
        # ``subprocess``) is memory no process that never serves needs.
        from multiprocessing.connection import Pipe
        handles = registry.handles()
        for _ in range(engine_count()):
            ours, theirs = Pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    ours.close()
                    with self._latch:
                        siblings = [e.connection for e in self._engines]
                    for owned in [*siblings, listener]:
                        owned.close()
                    _engine_main(theirs, handles)
                    code = 0
                finally:
                    os._exit(code)
            theirs.close()
            engine = _Engine(pid, ours)
            with self._latch:
                self._engines.append(engine)
            self._idle.put(engine)

    def _acquire(self):
        """An idle live engine, waiting for one; None when none is left.

        An engine found dead while idle is reaped here, so its death
        costs no query anything.
        """
        with self._latch:
            if not self._started:
                return None
        while True:
            engine = self._idle.get()
            if engine is None:
                self._idle.put(None)    # wake the next waiter too
                return None
            try:
                gone = engine.connection.poll()   # EOF only: it is idle
            except OSError:
                gone = True
            if not gone:
                return engine
            self._bury(engine)

    def _bury(self, engine):
        """Forget a dead engine and reap it; the last one leaves a
        marker that turns every later query in-process."""
        engine.connection.close()
        _reap(engine.pid, REAP_TIMEOUT)
        with self._latch:
            if engine in self._engines:
                self._engines.remove(engine)
            none_left = not self._engines
        if none_left:
            self._idle.put(None)

    def query(self, mount, request, budget, registry):
        """Answer one leased query: on an idle engine, or in-process
        when no engine is left.  Returns an :class:`Answer`; raises the
        query's typed :class:`~repro.serve.protocol.ProtocolError`."""
        asked = time.monotonic()
        engine = self._acquire()
        if engine is None:
            return answer(mount.index, request, budget, mount.generation)
        if budget.deadline_seconds is not None:
            waited = time.monotonic() - asked
            budget = dataclasses.replace(
                budget,
                deadline_seconds=max(0.0, budget.deadline_seconds - waited))
        closed = registry.closed_since(engine.told)
        job = Job(mount.name, mount.generation, mount.path, mount.opened,
                  request, budget, closed)
        try:
            engine.connection.send(job)
            reply = engine.connection.recv()
        except (EOFError, OSError):
            self._bury(engine)
            raise ProtocolError(
                "internal",
                f"engine process {engine.pid} exited during the query")
        engine.told += len(closed)
        with self._latch:
            engine.served += 1
        self._idle.put(engine)
        for part, delta in zip(mount.index.io_stats.parts(), reply.deltas):
            if delta:
                part.add(**delta)
        if reply.counts is not None:
            mount.index.add_query_counts(reply.counts)
        if reply.error is not None:
            raise reply.error
        return reply.answer

    def describe(self):
        """The ``engines`` row of ``GET /metrics``."""
        with self._latch:
            rows = [{"pid": engine.pid, "served": engine.served}
                    for engine in self._engines]
        return {"count": len(rows), "processes": rows}

    def close(self):
        """Close every pipe and reap every engine (the drain's last
        step: nothing is in flight)."""
        with self._latch:
            engines, self._engines = self._engines, []
        for engine in engines:
            engine.connection.close()
        for engine in engines:
            _reap(engine.pid, REAP_TIMEOUT)
        self._idle.put(None)


def _reap(pid, timeout):
    """Wait up to ``timeout`` seconds for ``pid`` to exit, then kill it;
    returns once it is reaped."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return
        if done:
            return
        if time.monotonic() >= deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.01)
