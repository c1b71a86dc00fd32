"""Behavioural tests for :class:`ShardedIndex` (docs/SHARDING.md).

Scatter-gather equivalence, budget splitting and headroom carry,
degradation soundness, routed incremental maintenance, rebalance and
compaction generations, and the directory scrub verdicts.
"""

import dataclasses
import hashlib
import json
import os

import pytest

from repro.bench.workloads import queries_for
from repro.datasets import dblp
from repro.prix.filtering import FilterStats
from repro.prix.matcher import QueryStats
from repro.prix.budget import (PHASE_FILTER, PHASE_REFINEMENT,
                               BudgetExceededError, QueryBudget)
from repro.prix.incremental import RebuildRequiredError
from repro.prix.index import IndexOptions, PrixIndex
from repro.shard import (ShardCatalog, ShardedIndex, build_shards,
                         compact, rebalance, scrub_shards)
from repro.xmlkit.parser import parse_document

PATTERN = "//inproceedings//author"


@pytest.fixture(scope="module")
def corpus():
    return dblp(n_records=60, seed=3).documents


@pytest.fixture(scope="module")
def monolith(corpus):
    index = PrixIndex.build(corpus)
    yield index
    index.close()


@pytest.fixture
def shard_dir(corpus, tmp_path):
    target = str(tmp_path / "shards")
    build_shards(corpus, target, shards=4)
    return target


def canonical(matches):
    return [(m.doc_id, m.images) for m in matches]


class TestScatterGather:
    def test_matches_monolith_exactly(self, corpus, monolith, shard_dir):
        with ShardedIndex.open(shard_dir) as sharded:
            assert canonical(sharded.query(PATTERN)) == \
                canonical(sorted(monolith.query(PATTERN),
                                 key=lambda m: (m.doc_id, m.images)))

    def test_both_variants_agree(self, monolith, shard_dir):
        with ShardedIndex.open(shard_dir) as sharded:
            for variant in ("rp", "ep"):
                assert canonical(sharded.query(PATTERN, variant=variant)) \
                    == canonical(sorted(
                        monolith.query(PATTERN, variant=variant),
                        key=lambda m: (m.doc_id, m.images)))

    def test_stats_carry_shard_breakdown(self, shard_dir):
        with ShardedIndex.open(shard_dir) as sharded:
            matches, stats = sharded.query_with_stats(PATTERN)
            assert stats.shards == 4
            assert len(stats.per_shard) == 4
            assert sum(row["matches"] for row in stats.per_shard) == \
                len(matches)
            assert stats.matches == len(matches)

    def test_counters_track_queries(self, shard_dir):
        with ShardedIndex.open(shard_dir) as sharded:
            sharded.query(PATTERN)
            sharded.query(PATTERN)
            scatter = sharded.scatter_stats()
            assert scatter["queries"] == 2
            assert scatter["approximate_queries"] == 0
            assert all(row["queries"] == 2
                       for row in sharded.shard_stats())

    def test_doc_count_and_export_round_trip(self, corpus, shard_dir):
        with ShardedIndex.open(shard_dir) as sharded:
            assert sharded.doc_count == len(corpus)
            exported = [doc.doc_id for doc in sharded.export_documents()]
            assert exported == sorted(doc.doc_id for doc in corpus)

    def test_rejects_non_budget_budget(self, shard_dir):
        with ShardedIndex.open(shard_dir) as sharded:
            with pytest.raises(TypeError):
                sharded.query(PATTERN, budget=object())

    @pytest.mark.parametrize("strategy", ["auto", "trie"])
    def test_a_scatter_plans_once(self, monolith, shard_dir, monkeypatch,
                                  strategy):
        """Plans depend on the twig and the variant alone: four shards
        build exactly the plans one index builds (both variants' own
        order for the variant choice, every arrangement, and on the
        trie walk the root-to-leaf paths) and answer byte-identically."""
        import repro.prix.matcher as matcher
        import repro.prix.plan as plan
        calls = []
        build = plan.build_plan

        def counting(*args, **kwargs):
            calls.append(None)
            return build(*args, **kwargs)
        monkeypatch.setattr(matcher, "build_plan", counting)
        monkeypatch.setattr(plan, "build_plan", counting)

        unordered = "//inproceedings[author][title]/year"
        assert set(monolith.variants()) == {"rp", "ep"}
        with ShardedIndex.open(shard_dir) as sharded:
            answers = []
            for index in (monolith, sharded):
                calls.clear()
                matches, stats = index.query_with_stats(
                    unordered, strategy=strategy)
                answers.append((len(calls), stats.variant, stats.strategy,
                                stats.arrangements, canonical(sorted(
                                    matches, key=lambda m: (m.doc_id,
                                                            m.images)))))
        assert answers[0][3] > 1 and answers[0][4]
        assert answers[1] == answers[0]

    def test_every_counter_is_merged(self, corpus, tmp_path):
        """The scatter sums the shards' counters field by field; walk
        the dataclasses so a counter added later and not merged fails
        here by name.  Cold, so physical reads repeat exactly."""
        special = {"arrangements", "matches", "shards"}
        target = str(tmp_path / "three")
        build_shards(corpus, target, shards=3)

        def int_fields(cls):
            return [f.name for f in dataclasses.fields(cls)
                    if f.type in (int, "int")]

        assert {"documents_loaded", "physical_reads"} <= set(
            int_fields(QueryStats))
        assert "probes_issued" in int_fields(FilterStats)
        with ShardedIndex.open(target) as sharded:
            shards = [index for _, index in sharded._snapshot()]
            for spec in queries_for("dblp"):
                for strategy in ("trie", "auto"):
                    options = dict(cold=True, strategy=strategy)
                    merged, total = sharded.query_with_stats(
                        spec.xpath, **options)
                    own = [shard.query_with_stats(spec.xpath, **options)[1]
                           for shard in shards]
                    where = f"{spec.qid}/{strategy}"
                    for name in int_fields(QueryStats):
                        if name in special:
                            continue
                        assert getattr(total, name) == sum(
                            getattr(stats, name) for stats in own), \
                            f"QueryStats.{name} not merged ({where})"
                    for name in int_fields(FilterStats):
                        assert getattr(total.filter, name) == sum(
                            getattr(stats.filter, name)
                            for stats in own), \
                            f"FilterStats.{name} not merged ({where})"
                    assert total.arrangements == max(
                        stats.arrangements for stats in own)
                    assert total.matches == len(merged)
                    assert total.shards == len(shards)


class TestBudgets:
    def test_generous_budget_is_identity(self, monolith, shard_dir):
        with ShardedIndex.open(shard_dir) as sharded:
            exact = sharded.query(PATTERN)
            budgeted = sharded.query(PATTERN, budget=QueryBudget(
                max_range_queries=100_000, max_candidates=100_000,
                max_physical_reads=100_000))
            assert not budgeted.approximate
            assert canonical(budgeted) == canonical(exact)

    def test_refinement_exhaustion_is_sound_superset(self, shard_dir):
        with ShardedIndex.open(shard_dir) as sharded:
            exact = sharded.query(PATTERN)
            degraded = sharded.query(
                PATTERN, budget=QueryBudget(max_candidates=1))
            assert degraded.approximate
            assert degraded.degradation_reason.phase == PHASE_REFINEMENT
            assert set(degraded.doc_ids) >= set(exact.doc_ids)
            # Doc-level rows: no verified embeddings survive the merge.
            assert all(match.images == () for match in degraded)

    def test_filter_exhaustion_is_a_hard_error(self, shard_dir):
        with ShardedIndex.open(shard_dir) as sharded:
            with pytest.raises(BudgetExceededError) as caught:
                sharded.query(PATTERN,
                              budget=QueryBudget(max_range_queries=0))
            assert caught.value.reason.phase == PHASE_FILTER

    def test_headroom_carries_forward(self, tmp_path):
        # Skewed corpus: all the matching documents live in the LAST
        # shard, so an evenly split candidate cap is individually too
        # small for it -- only the unused headroom carried forward from
        # the empty early shards makes the final shard viable.
        docs = [parse_document("<r><z/></r>", doc_id=i + 1)
                for i in range(6)]
        docs += [parse_document("<r><a><b/></a><a><b/></a></r>",
                                doc_id=7 + i) for i in range(2)]
        target = str(tmp_path / "skew")
        build_shards(docs, target, shards=4)
        with ShardedIndex.open(target) as sharded:
            exact = sharded.query("//a/b")
            _, stats = sharded.query_with_stats("//a/b")
            needs = [row["candidates_refined"]
                     for row in stats.per_shard]
            assert needs[-1] > 0 and sum(needs[:-1]) == 0
            # Total cap == exactly what the last shard needs: its own
            # split share is strictly smaller, so exactness proves the
            # early shards' surplus was granted forward.
            budgeted = sharded.query("//a/b", budget=QueryBudget(
                max_candidates=needs[-1]))
            assert not budgeted.approximate
            assert canonical(budgeted) == canonical(exact)


def maintenance_documents(n=8):
    docs = [parse_document(
        f"<a><b><c/></b><d>v{i}</d></a>", doc_id=i + 1) for i in range(n)]
    return docs


def maintenance_options():
    return IndexOptions(labeler="dynamic")


class TestMaintenance:
    def build(self, tmp_path, shards=2):
        target = str(tmp_path / "mshards")
        build_shards(maintenance_documents(), target, shards=shards,
                     options=maintenance_options())
        return target

    def test_insert_routes_and_widens_range(self, tmp_path):
        target = self.build(tmp_path)
        with ShardedIndex.open(target) as sharded:
            sharded.insert_document(parse_document(
                "<a><b><c/></b><d>v9</d></a>", doc_id=99))
            assert sharded.doc_count == 9
            assert len(sharded.query("//a/d")) == 9
        # The widened range and count survived the manifest republish.
        catalog = ShardCatalog.load(target)
        assert catalog.shard_for(99) is not None
        assert catalog.doc_count == 9

    def test_delete_routes_and_refreshes_count(self, tmp_path):
        target = self.build(tmp_path)
        with ShardedIndex.open(target) as sharded:
            sharded.delete_document(3)
            assert sharded.doc_count == 7
            assert 3 not in {m.doc_id for m in sharded.query("//a/d")}
            with pytest.raises(KeyError):
                sharded.delete_document(12345)
        assert ShardCatalog.load(target).doc_count == 7

    def test_insert_into_bulk_shards_requires_rebuild(self, corpus,
                                                      tmp_path):
        target = str(tmp_path / "bulk")
        build_shards(corpus, target, shards=2)
        with ShardedIndex.open(target) as sharded:
            with pytest.raises(RebuildRequiredError):
                sharded.insert_document(parse_document(
                    "<a><b/></a>", doc_id=10_000))


class TestRebalance:
    def test_resharding_preserves_answers(self, corpus, monolith,
                                          shard_dir):
        report = rebalance(shard_dir, shards=2)
        assert report.shards == 2
        assert report.generation == 2
        catalog = ShardCatalog.load(shard_dir)
        assert catalog.generation == 2
        assert len(catalog.entries) == 2
        with ShardedIndex.open(shard_dir) as sharded:
            assert canonical(sharded.query(PATTERN)) == \
                canonical(sorted(monolith.query(PATTERN),
                                 key=lambda m: (m.doc_id, m.images)))

    def test_identity_rebalance_reuses_shards(self, shard_dir):
        report = rebalance(shard_dir, shards=4)
        assert report.reused == 4
        assert report.rebuilt == 0

    def test_old_generation_files_are_removed(self, shard_dir):
        before = {name for name in os.listdir(shard_dir)
                  if name.endswith(".idx")}
        rebalance(shard_dir, shards=2)
        after = {name for name in os.listdir(shard_dir)
                 if name.endswith(".idx")}
        assert len(after) == 2
        assert not (before & after)

    def test_compact_rebuilds_every_shard(self, corpus, shard_dir):
        report = compact(shard_dir)
        assert report.rebuilt == 4
        assert report.reused == 0
        with ShardedIndex.open(shard_dir) as sharded:
            assert sharded.doc_count == len(corpus)


    def test_compact_keeps_the_labeler_and_page_size(self, tmp_path):
        """Rebuilt shards take their layout from the shard's catalog
        (a bulk relabel on the manifest's page size would make the
        insert below raise ``RebuildRequiredError``)."""
        target = str(tmp_path / "dynamic")
        build_shards(maintenance_documents(), target, shards=2,
                     options=IndexOptions(labeler="dynamic",
                                          page_size=1024))
        assert compact(target).rebuilt == 2
        with ShardedIndex.open(target) as sharded:
            for _, shard in sharded._snapshot():
                assert shard.layout_options() == IndexOptions(
                    labeler="dynamic", page_size=1024)
                # Strided dynamic labels, not gap-free bulk ones.
                assert shard._variants["rp"].root_range[1] > 2 ** 62
            sharded.insert_document(parse_document(
                "<a><b><c/></b><e/></a>", doc_id=99))
            assert sharded.query("//a/e").doc_ids == [99]


MAINTENANCE_QUERIES = ("//a/d", '//a[./d="v3"]', '//a[./d="v4"]',
                       '//a[./d="v6"]', "//a/b/c")


def shard_files(directory):
    """``(listed, unlisted)`` names of the ``shard-*`` files on disk:
    those belonging to an index file the live manifest lists (sidecars
    included) and the rest."""
    catalog = ShardCatalog.load(directory)
    files = {entry.file for entry in catalog.entries}
    on_disk = sorted(name for name in os.listdir(directory)
                     if name.startswith("shard-"))
    listed = [name for name in on_disk
              if name.partition(".idx")[0] + ".idx" in files]
    assert files <= set(listed)
    return listed, [name for name in on_disk if name not in listed]


def shard_file_digests(directory):
    """SHA-256 of every file the live manifest lists, sidecars too."""
    digests = {}
    for name in shard_files(directory)[0]:
        with open(os.path.join(directory, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def answers(sharded, cold=False):
    return [canonical(sharded.query(pattern, cold=cold))
            for pattern in MAINTENANCE_QUERIES]


class TestReplacementOnly:
    """A published shard file is never rewritten: maintenance builds
    replacements into fresh paths and swaps the manifest."""

    @pytest.fixture
    def churned(self, tmp_path):
        """3 shards over 9 documents, then two live deletes: the even
        re-cut moves documents across both boundaries."""
        target = str(tmp_path / "churned")
        build_shards(maintenance_documents(9), target, shards=3,
                     options=IndexOptions(durable=True, guard=True))
        with ShardedIndex.open(target) as sharded:
            sharded.delete_document(1)
            sharded.delete_document(2)
        return target

    def crash_rebalance(self, monkeypatch, directory):
        """A rebalance that dies just before the manifest publish."""
        def die(self):
            raise OSError("died before the manifest publish")
        with monkeypatch.context() as patch:
            patch.setattr(ShardCatalog, "save", die)
            with pytest.raises(OSError, match="died before"):
                rebalance(directory)

    def test_crash_before_publish_leaves_generation_intact(
            self, churned, monkeypatch):
        with ShardedIndex.open(churned) as sharded:
            expected = answers(sharded)
        assert [[doc_id for doc_id, _ in rows]
                for rows in expected[1:4]] == [[4], [5], [7]]
        before = shard_file_digests(churned)
        self.crash_rebalance(monkeypatch, churned)
        assert shard_file_digests(churned) == before
        assert ShardCatalog.load(churned).generation == 1
        with ShardedIndex.open(churned) as sharded:
            assert answers(sharded) == expected

    @pytest.mark.parametrize("again", [rebalance, compact])
    def test_maintenance_reruns_after_a_crash(self, churned, monkeypatch,
                                              again):
        with ShardedIndex.open(churned) as sharded:
            expected = answers(sharded)
        self.crash_rebalance(monkeypatch, churned)
        assert shard_files(churned)[1]   # the crash left orphans
        report = again(churned)
        assert report.generation == 2
        assert shard_files(churned)[1] == []
        assert scrub_shards(churned).healthy
        with ShardedIndex.open(churned) as sharded:
            assert answers(sharded) == expected

    def test_open_reader_survives_the_next_generation(self, churned):
        with ShardedIndex.open(churned, backend="mmap") as reader:
            expected = answers(reader, cold=True)
            report = rebalance(churned)
            assert report.rebuilt and report.generation == 2
            assert answers(reader, cold=True) == expected
        with ShardedIndex.open(churned) as sharded:
            assert answers(sharded) == expected


class TestScrub:
    def test_healthy_directory(self, shard_dir):
        report = scrub_shards(shard_dir)
        assert report.healthy
        assert report.as_dict()["catalog_ok"]
        assert report.as_dict()["index_count"] == 4

    def test_missing_shard_file_is_unhealthy(self, shard_dir):
        catalog = ShardCatalog.load(shard_dir)
        os.unlink(catalog.path_for(catalog.entries[0]))
        report = scrub_shards(shard_dir)
        assert not report.healthy
        assert "missing" in (report.manifest_error or "")

    def test_tampered_manifest_is_unhealthy(self, shard_dir):
        manifest = os.path.join(shard_dir, "prixshard.json")
        with open(manifest, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["shards"][0]["doc_count"] += 1  # checksum now stale
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        report = scrub_shards(shard_dir)
        assert not report.healthy
        assert not report.manifest_ok
        assert "checksum" in (report.manifest_error or "")
