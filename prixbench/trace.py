"""Span recorder that wraps the program's layers from outside.

Each layer's public callable is replaced *at the name its caller looks
it up* (``repro.prix.matcher.find_subsequences``, not only
``repro.prix.filtering.find_subsequences``), so no file under ``src/``
changes.  A wrapper records one span per call and keeps per-name totals
of calls, busy time and **self time** (busy time minus the part child
spans cover).  Generators are timed over consumption: only the time
spent inside ``next()`` counts, and a generator is one span.

Spans are kept in memory as ``(name, start, end, parent, op_id)`` and
written out when the run ends.  The callables hit once per page or per
trie node (:data:`DENSE`) only feed the totals -- a span per call there
would be millions of records per round.

End-to-end numbers are never taken with a tracer installed.
"""

from __future__ import annotations

import importlib
import json
import threading
from time import perf_counter

#: (module, attribute path, span name, kind).  ``kind`` is ``call``,
#: ``gen`` (generator function) or ``loader`` (returns the callable to
#: time).  A dotted attribute path reaches into a class.
TARGETS = (
    ("repro.prix.index", "parse_xpath", "query.parse_xpath", "call"),
    ("repro.shard.sharded", "parse_xpath", "query.parse_xpath", "call"),
    ("repro.prix.matcher", "arrangements", "query.arrangements", "gen"),
    ("repro.prix.matcher", "build_plan", "plan.build_plan", "call"),
    ("repro.prix.plan", "build_plan", "plan.build_plan", "call"),
    ("repro.prix.matcher", "find_subsequences",
     "filtering.find_subsequences", "call"),
    ("repro.prix.filtering", "TrieSymbolIndex.range_query_gaps",
     "filtering.symbol_index.range_query", "gen"),
    ("repro.prix.filtering", "DocidIndex.documents_in",
     "filtering.docid_index.documents_in", "call"),
    ("repro.prix.index", "run_query", "matcher.run_query", "call"),
    ("repro.prix.matcher", "refine", "refinement.refine", "call"),
    ("repro.prix.index", "PrixIndex._view_loader", "index.view_loader",
     "loader"),
    ("repro.prix.index", "PrixIndex.choose_variant",
     "index.choose_variant", "call"),
    ("repro.prix.index", "PrixIndex.insert_document",
     "index.insert_document", "call"),
    ("repro.prix.index", "PrixIndex.delete_document",
     "index.delete_document", "call"),
    ("repro.prix.index", "PrixIndex.save", "index.save", "call"),
    ("repro.prix.index", "PrixIndex.build", "index.build", "call"),
    ("repro.prix.index", "PrixIndex.open", "index.open", "call"),
    ("repro.xmlkit.parser", "parse_document", "xmlkit.parse_document",
     "call"),
    ("repro.prix.index", "regular_sequence", "prufer.sequences", "call"),
    ("repro.prix.index", "extended_sequence", "prufer.sequences", "call"),
    ("repro.trie.labeling", "BulkDFSLabeler.label", "trie.labeling", "call"),
    ("repro.trie.labeling", "DynamicLabeler.label", "trie.labeling", "call"),
    ("repro.storage.bptree", "BPlusTree.range_scan",
     "storage.bptree.range_scan", "gen"),
    ("repro.storage.bptree", "BPlusTree.insert", "storage.bptree.insert",
     "call"),
    ("repro.storage.bptree", "BPlusTree.delete", "storage.bptree.delete",
     "call"),
    ("repro.storage.buffer_pool", "BufferPool.get", "storage.pool.get",
     "call"),
    ("repro.storage.buffer_pool", "BufferPool.get_decoded",
     "storage.pool.get", "call"),
    ("repro.storage.records", "RecordStore.read", "storage.records.read",
     "call"),
    ("repro.shard.sharded", "ShardedIndex.query_with_stats",
     "shard.query_with_stats", "call"),
    ("repro.shard.builder", "build_shards", "shard.build_shards", "call"),
)

#: Names called once per page or trie node: totals only, no span records.
DENSE = frozenset({
    "storage.pool.get", "storage.bptree.range_scan",
    "filtering.symbol_index.range_query",
    "filtering.docid_index.documents_in",
})

#: Span the runner opens around every operation it times.
ROOT_SPAN = "bench.op"

#: Span records kept per run; later spans still count in the totals.
MAX_SPANS = 100_000


class _ThreadState:
    __slots__ = ("stack", "totals", "op_id", "loaded")

    def __init__(self):
        self.stack = []      # frames: [child_time, span_index]
        self.totals = {}     # name -> [calls, busy, self, yielded]
        self.op_id = -1
        self.loaded = {}     # doc id -> loads, for index.view_loader


class Tracer:
    """Installs the wrappers, collects spans, reports per-name totals."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._patched = []
        self.spans = []
        self.dropped = 0
        self.view_loads = [0, 0]     # [loads, repeated], see end_round

    # ------------------------------------------------------------ state

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _open(self, state, recorded):
        """Push a frame; returns ``(frame, parent_index, recorded)``."""
        stack = state.stack
        parent = stack[-1][1] if stack else -1
        index = parent
        if recorded:
            spans = self.spans
            if len(spans) < MAX_SPANS:
                index = len(spans)
                spans.append(None)
            else:
                self.dropped += 1
                recorded = False
        frame = [0.0, index]
        stack.append(frame)
        return frame, parent, recorded

    # --------------------------------------------------------- wrappers

    def _wrap_call(self, function, name):
        recorded = name not in DENSE

        def traced(*args, **kwargs):
            state = self._state()
            frame, parent, keep = self._open(state, recorded)
            started = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                ended = perf_counter()
                stack = state.stack
                stack.pop()
                busy = ended - started
                total = state.totals.get(name)
                if total is None:
                    total = state.totals[name] = [0, 0.0, 0.0, 0]
                total[0] += 1
                total[1] += busy
                total[2] += busy - frame[0]
                if stack:
                    stack[-1][0] += busy
                if keep:
                    self.spans[frame[1]] = (name, started, ended, parent,
                                            state.op_id)
        traced.__wrapped__ = function
        return traced

    def _wrap_gen(self, function, name):
        recorded = name not in DENSE

        def traced(*args, **kwargs):
            generator = function(*args, **kwargs)
            state = self._state()
            stack = state.stack
            busy = own = 0.0
            yielded = 0
            first = last = None
            parent = stack[-1][1] if stack else -1
            index = parent
            keep = recorded and len(self.spans) < MAX_SPANS
            if keep:
                index = len(self.spans)
                self.spans.append(None)
            try:
                while True:
                    frame = [0.0, index]
                    stack.append(frame)
                    started = perf_counter()
                    if first is None:
                        first = started
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                    finally:
                        last = perf_counter()
                        stack.pop()
                        piece = last - started
                        busy += piece
                        own += piece - frame[0]
                        if stack:
                            stack[-1][0] += piece
                    yielded += 1
                    yield item
            finally:
                generator.close()
                total = state.totals.get(name)
                if total is None:
                    total = state.totals[name] = [0, 0.0, 0.0, 0]
                total[0] += 1
                total[1] += busy
                total[2] += own
                total[3] += yielded
                if keep:
                    self.spans[index] = (name, first, last, parent,
                                         state.op_id)
        traced.__wrapped__ = function
        return traced

    def _wrap_loader(self, function, name):
        """``PrixIndex._view_loader`` returns the callable to time; the
        wrapper also counts repeated loads of one document."""
        def traced(*args, **kwargs):
            load = self._wrap_call(function(*args, **kwargs), name)

            def counted(doc_id):
                loaded = self._state().loaded
                loaded[doc_id] = loaded.get(doc_id, 0) + 1
                return load(doc_id)
            return counted
        traced.__wrapped__ = function
        return traced

    # ---------------------------------------------------- install/remove

    def install(self):
        """Replace every target; safe to call again after :meth:`remove`."""
        if self._patched:
            return
        wrappers = {"call": self._wrap_call, "gen": self._wrap_gen,
                    "loader": self._wrap_loader}
        for module_name, path, name, kind in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            raw = owner.__dict__[attribute]
            unbound = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = wrappers[kind](unbound, name)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            self._patched.append((owner, attribute, raw))
            setattr(owner, attribute, wrapped)

    def remove(self):
        """Put every original back."""
        while self._patched:
            owner, attribute, raw = self._patched.pop()
            setattr(owner, attribute, raw)

    def root(self, op_id):
        """Context manager: the :data:`ROOT_SPAN` around one operation."""
        return _RootSpan(self, op_id)

    # ----------------------------------------------------------- results

    def totals(self):
        """``{name: {calls, busy_s, self_s, yielded}}`` over all threads."""
        merged = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, busy, own, yielded) in state.totals.items():
                row = merged.setdefault(
                    name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                           "yielded": 0})
                row["calls"] += calls
                row["busy_s"] += busy
                row["self_s"] += own
                row["yielded"] += yielded
        return merged

    def end_round(self):
        """Fold this round's document loads into :attr:`view_loads`.

        A load is *repeated* when the same document was already loaded
        earlier in the round: the share a decoded-document cache that
        lives as long as a round could serve.
        """
        with self._lock:
            states = list(self._states)
        loads = sum(sum(state.loaded.values()) for state in states)
        distinct = len({doc for state in states for doc in state.loaded})
        self.view_loads[0] += loads
        self.view_loads[1] += loads - distinct
        for state in states:
            state.loaded.clear()

    def write(self, path):
        """Write the recorded spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is None:
                    continue
                name, started, ended, parent, op_id = span
                handle.write(json.dumps(
                    {"name": name, "start": started, "end": ended,
                     "parent": parent, "op_id": op_id}) + "\n")


class _RootSpan:
    __slots__ = ("_tracer", "_op_id", "_frame", "_state", "_started",
                 "_keep")

    def __init__(self, tracer, op_id):
        self._tracer = tracer
        self._op_id = op_id

    def __enter__(self):
        state = self._state = self._tracer._state()
        state.op_id = self._op_id
        self._frame, _, self._keep = self._tracer._open(state, True)
        self._started = perf_counter()
        return self

    def __exit__(self, *exc):
        ended = perf_counter()
        state = self._state
        state.stack.pop()
        busy = ended - self._started
        total = state.totals.setdefault(ROOT_SPAN, [0, 0.0, 0.0, 0])
        total[0] += 1
        total[1] += busy
        total[2] += busy - self._frame[0]
        if self._keep:
            self._tracer.spans[self._frame[1]] = (
                ROOT_SPAN, self._started, ended, -1, self._op_id)
        return False
