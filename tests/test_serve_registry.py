"""Unit tests for the serving tier's shared state: registry, admission,
metrics -- the pieces under the ``serve-*`` latches.

The live-server behaviour (threads, sockets, drains) is covered by
``tests/test_serve_oracle.py``; here each component's protocol is pinned
in isolation: lease counting, the reload swap and last-lease close,
admission capacity/drain rejections and budget forking, and the
metrics counters.
Every registry test runs over both index kinds -- one file and a shard
directory mount the same way (``tests/test_shard_serve.py`` keeps only
what is shard-specific).
"""

import json
import os
import threading

import pytest

from repro.datasets.dblp import dblp
from repro.prix.budget import QueryBudget
from repro.prix.index import IndexOptions, PrixIndex
from repro.serve import registry as registry_module
from repro.serve.admission import AdmissionController, ServerLimits
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import ProtocolError
from repro.serve.registry import IndexRegistry, ServeError
from repro.shard import build_shards, open_index, scrub_index


@pytest.fixture(params=["monolith", "2-shard directory"])
def index_path(request, tmp_path):
    documents = dblp(n_records=12, seed=7).documents
    if request.param == "monolith":
        path = str(tmp_path / "serve.prix")
        index = PrixIndex.build(documents, IndexOptions(path=path))
        index.save()
        index.close()
    else:
        path = str(tmp_path / "serve.shards")
        build_shards(documents, path, shards=2)
    return path


# ---------------------------------------------------------------- registry

def test_mount_lease_query_and_close(index_path):
    registry = IndexRegistry()
    assert registry.mount("default", index_path) == 1
    with registry.lease("default") as mount:
        assert mount.generation == 1
        matches = mount.index.query("//article/author")
        assert len(matches) > 0
    assert registry.describe()["default"]["leases"] == 0
    registry.close_all()
    assert registry.describe() == {}


def test_mount_rejects_duplicates_and_lease_rejects_unknown(index_path):
    registry = IndexRegistry()
    registry.mount("default", index_path)
    with pytest.raises(ServeError):
        registry.mount("default", index_path)
    with pytest.raises(ProtocolError) as caught:
        registry.lease("nope")
    assert caught.value.code == "not-found"
    registry.close_all()


def test_reload_swaps_generation_and_drains_old(index_path):
    """With generation 1 leased, a reload swaps to generation 2 at once;
    the leased generation keeps answering, and its last release closes
    it."""
    registry = IndexRegistry()
    registry.mount("default", index_path)
    with registry.lease("default") as mount:
        before = mount.index.query("//article/author")

    with registry.lease("default") as old_mount:
        assert registry.reload("default") == 2
        assert registry.describe()["default"]["generation"] == 2
        # The leased old generation still answers identically: its pages
        # cannot be closed under a live query.
        assert old_mount.index.query("//article/author") == before
        assert registry.closed_since(0) == []
    assert registry.closed_since(0) == [("default", 1)]

    with registry.lease("default") as mount:
        assert mount.generation == 2
        assert mount.index.query("//article/author") == before
    registry.close_all()


def test_overlapping_reloads_number_and_close_each_generation_once(
        index_path, monkeypatch):
    """Two reloads whose opens overlap each retire the generation current
    at their own swap: they return 2 and 3, generations 1 and 2 are each
    closed and logged once, and ``close_all`` closes the last one."""
    handles = []            # [index, times closed], in opening order
    overlap = []            # the barrier both reloads' opens wait on

    def counted_open(path, **opened):
        index = open_index(path, **opened)
        record = [index, 0]
        close = index.close

        def counted_close():
            record[1] += 1
            close()

        index.close = counted_close
        handles.append(record)
        for barrier in overlap:
            barrier.wait()
        return index

    monkeypatch.setattr(registry_module, "open_index", counted_open)
    registry = IndexRegistry()
    registry.mount("default", index_path)
    overlap.append(threading.Barrier(2, timeout=30.0))
    generations = []
    reloaders = [threading.Thread(target=lambda: generations.append(
        registry.reload("default"))) for _ in range(2)]
    for thread in reloaders:
        thread.start()
    for thread in reloaders:
        thread.join(60.0)
    assert sorted(generations) == [2, 3]
    assert sorted(registry.closed_since(0)) == [("default", 1),
                                                ("default", 2)]
    assert registry.describe()["default"]["generation"] == 3
    registry.close_all()
    assert [closed for _, closed in handles] == [1, 1, 1]


def test_reload_unknown_name_raises_keyerror(index_path):
    registry = IndexRegistry()
    with pytest.raises(KeyError):
        registry.reload("nope")


def _shards(index):
    """Every single-file index behind a mounted index."""
    return getattr(index, "_shards", {"": index}).values()


def _pool_capacities(index):
    """Pool capacity of every backend behind a mounted index."""
    return [shard._pool.capacity for shard in _shards(index)]


def test_reload_reopens_with_what_mount_was_given(index_path):
    """A mount sized below its working set stays that size across a hot
    reload (it used to come back with the 2000-frame default)."""
    registry = IndexRegistry()
    registry.mount("default", index_path, backend="arena", pool_pages=7)
    with registry.lease("default") as mount:
        assert set(_pool_capacities(mount.index)) == {7}
    assert registry.reload("default") == 2
    with registry.lease("default") as mount:
        assert set(_pool_capacities(mount.index)) == {7}
    assert registry.describe()["default"]["backend"] == "arena"
    registry.close_all()


def test_health_caches_the_scrub_to_json_serialization(index_path):
    registry = IndexRegistry()
    registry.mount("default", index_path)
    health = registry.health()["default"]
    assert health["healthy"] is True
    assert health["generation"] == 1
    # The cached verdict is exactly the canonical ScrubReport.to_json
    # of the mounted path -- the single serializer shared with
    # `prix scrub --json` (docs/SERVING.md).
    assert health["scrub"] == json.loads(scrub_index(index_path).to_json())
    registry.close_all()


def test_scrub_and_mount_leave_an_unguarded_index_unguarded(index_path):
    """Scrubbing (which a mount does first) writes no checksum sidecar:
    one would hold no stamps, verify nothing, and still make every
    later open attach a guard that runs on each page miss."""
    report = scrub_index(index_path).as_dict()
    assert report["pages_unstamped"] == report["pages_total"] > 0
    registry = IndexRegistry()
    registry.mount("default", index_path)
    registry.close_all()
    root = os.path.dirname(index_path)
    assert not [name for _, _, names in os.walk(root) for name in names
                if name.endswith(".sum")]
    with open_index(index_path, backend="mmap") as index:
        for shard in _shards(index):
            assert shard._pool._pager.guard is None


def test_registry_stats_snapshot_per_mount(index_path):
    registry = IndexRegistry()
    registry.mount("default", index_path, backend="file")
    with registry.lease("default") as mount:
        mount.index.query("//article/author")
    stats = registry.stats()["default"]
    assert stats["logical_reads"] > 0
    assert stats["evictions"] == 0
    registry.close_all()


# --------------------------------------------------------------- admission

def test_admit_forks_a_fresh_budget_per_request():
    template = QueryBudget(max_candidates=5, deadline_seconds=1.0)
    admission = AdmissionController(ServerLimits(budget=template))
    with admission.admit() as first:
        with admission.admit() as second:
            assert first == template
            assert first is not template
            assert first is not second
            assert admission.inflight() == 2
    assert admission.inflight() == 0


def test_admit_rejects_over_capacity_without_leaking_slots():
    admission = AdmissionController(ServerLimits(max_inflight=1))
    gate = admission.admit()
    gate.__enter__()
    with pytest.raises(ProtocolError) as caught:
        with admission.admit():
            pass
    assert caught.value.code == "over-capacity"
    assert caught.value.http_status == 503
    gate.__exit__(None, None, None)
    # The rejected request must not have consumed the freed slot.
    with admission.admit():
        assert admission.inflight() == 1


def test_draining_rejects_new_queries_and_wait_drains():
    admission = AdmissionController()
    gate = admission.admit()
    gate.__enter__()
    admission.begin_drain()
    with pytest.raises(ProtocolError) as caught:
        with admission.admit():
            pass
    assert caught.value.code == "draining"
    assert not admission.wait_drained(timeout=0.05)  # one still running
    gate.__exit__(None, None, None)
    assert admission.wait_drained(timeout=5.0)
    assert admission.inflight() == 0


def test_budget_fork_is_a_fresh_meter_with_same_limits():
    budget = QueryBudget(max_range_queries=2, max_physical_reads=3,
                         max_candidates=4, deadline_seconds=5.0)
    fork = budget.fork()
    assert fork == budget and fork is not budget
    assert QueryBudget().fork().unlimited


# ----------------------------------------------------------------- metrics

def test_metrics_counters_accumulate_per_endpoint():
    metrics = ServerMetrics()
    metrics.observe("/query", 0.002)
    metrics.observe("/query", 0.010, degraded=True)
    metrics.observe("/query", 0.001, error_code="over-capacity",
                    rejected=True)
    metrics.observe("/healthz", 0.0005)

    snap = metrics.snapshot()
    query = snap["endpoints"]["/query"]
    assert query["requests"] == 3
    assert query["degraded"] == 1
    assert query["rejected"] == 1
    assert query["errors"] == {"over-capacity": 1}
    assert query["latency_seconds_max"] == pytest.approx(0.010)
    assert query["latency_seconds_total"] == pytest.approx(0.013)
    assert snap["endpoints"]["/healthz"]["requests"] == 1
    assert snap["uptime_seconds"] >= 0
