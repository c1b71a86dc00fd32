"""One contract, two index kinds.

``repro.shard.open_index`` hands front ends either a monolithic
:class:`PrixIndex` or a :class:`ShardedIndex`; neither the CLI nor the
serving registry may care which.  Every test here runs unchanged over
both kinds -- through the handle's methods and through ``prix`` --
and must see the same answers.
"""

import json

import pytest

from repro.cli import main
from repro.exitcodes import EXIT_USAGE
from repro.prix.index import IndexOptions, PrixIndex
from repro.shard import build_shards, open_index, scrub_index
from repro.xmlkit.parser import parse_document

PATTERN = "//a[./b/c]/d"
NEW_DOC = "<a><b><c/></b><d>new</d></a>"


@pytest.fixture(scope="module")
def corpus():
    # Same-shaped documents: an insert reuses the trie path, so the
    # dynamic labeler's slack is never the thing under test.
    return [parse_document(f"<a><b><c/></b><d>v{i}</d></a>", doc_id=i + 1)
            for i in range(8)]


@pytest.fixture(scope="module")
def expected(corpus):
    """The answer both kinds must give, in canonical order."""
    with PrixIndex.build(corpus) as index:
        return sorted((m.doc_id, m.images) for m in index.query(PATTERN))


@pytest.fixture(params=["monolith", "2-shard directory"])
def index_handle(request, corpus, tmp_path):
    """Path of a saved index of the parametrized kind (dynamic labels,
    so it accepts inserts)."""
    options = IndexOptions(labeler="dynamic")
    if request.param == "monolith":
        options.path = str(tmp_path / "handle.idx")
        index = PrixIndex.build(corpus, options)
        index.save()
        index.close()
        return options.path
    target = str(tmp_path / "handle.shards")
    build_shards(corpus, target, shards=2, options=options)
    return target


class TestHandleMethods:
    def test_query_with_stats(self, index_handle, expected):
        with open_index(index_handle) as index:
            matches, stats = index.query_with_stats(PATTERN)
            assert [(m.doc_id, m.images) for m in matches] == expected
            assert matches.approximate is False
            assert stats.matches == len(expected)
            assert len(stats.per_shard) == stats.shards

    def test_stats_tell_cold_views_from_warm_ones(self, index_handle,
                                                  corpus):
        with open_index(index_handle) as index:
            _, cold = index.query_with_stats(PATTERN)
            _, warm = index.query_with_stats(PATTERN)
            _, idle = index.query_with_stats("//nowhere/b")
            _, flushed = index.query_with_stats(PATTERN, cold=True)
        # Every document holds the pattern; a first load decodes, a
        # repeat finds the view on its resident page, a flush drops it.
        assert cold.documents_loaded == cold.documents_decoded == len(corpus)
        assert (warm.documents_loaded, warm.documents_decoded) == (
            len(corpus), 0)
        assert (idle.documents_loaded, idle.documents_decoded) == (0, 0)
        assert flushed.documents_decoded == len(corpus)

    def test_backend_kwarg_reaches_every_file(self, index_handle, expected):
        with open_index(index_handle, backend="mmap",
                        pool_pages=64) as index:
            assert [(m.doc_id, m.images)
                    for m in index.query(PATTERN)] == expected

    def test_insert_at_next_doc_id_then_delete(self, index_handle, corpus,
                                               expected):
        with open_index(index_handle) as index:
            doc_id = index.next_doc_id()
            assert doc_id == max(doc.doc_id for doc in corpus) + 1
            index.insert_document(parse_document(NEW_DOC, doc_id))
            index.save()
        with open_index(index_handle) as index:
            assert index.doc_count == len(corpus) + 1
            assert index.next_doc_id() == doc_id + 1
            assert doc_id in index.query(PATTERN).doc_ids
            index.delete_document(doc_id)
            index.save()
            with pytest.raises(KeyError):
                index.delete_document(doc_id)
        with open_index(index_handle) as index:
            assert sorted((m.doc_id, m.images)
                          for m in index.query(PATTERN)) == expected

    def test_summary_is_json_ready(self, index_handle, corpus):
        with open_index(index_handle) as index:
            summary = index.summary()
        assert summary["documents"] == len(corpus)
        assert json.loads(json.dumps(summary)) == summary
        # Exactly one of the two shapes, never a mix.
        assert ("variants" in summary) != ("shards" in summary)
        if "shards" in summary:
            assert summary["shard_count"] == len(summary["shards"]) == 2
            assert summary["scatter"]["queries"] == 0
            assert sum(row["doc_count"]
                       for row in summary["shards"]) == len(corpus)
        else:
            assert set(summary["variants"]) == {"rp", "ep"}

    def test_explain_shows_a_plan(self, index_handle):
        with open_index(index_handle) as index:
            text = index.explain(PATTERN)
            assert text == index.explain(PATTERN, variant=None)
        assert f"query: {PATTERN}" in text
        assert "variant:" in text and "strategy:" in text

    def test_scrub_index(self, index_handle):
        report = scrub_index(index_handle)
        assert report.healthy
        assert json.loads(report.to_json())["catalog_ok"] is True
        assert "OK" in report.render()


class TestThroughTheCli:
    def test_query_stats_explain_scrub(self, index_handle, expected,
                                       corpus, capsys):
        assert main(["query", index_handle, PATTERN, "--explain"]) == 0
        out = capsys.readouterr().out
        docs = len({doc_id for doc_id, _ in expected})
        assert f"{len(expected)} match(es) in {docs} document(s)" in out
        assert "pages read" in out
        assert (f"documents: {len(corpus)} loaded, {len(corpus)} decoded"
                in out)
        assert main(["stats", index_handle]) == 0
        assert f"documents: {len(corpus)}" in capsys.readouterr().out
        assert main(["stats", index_handle, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target"] == index_handle
        assert payload["documents"] == len(corpus)
        assert main(["explain", index_handle, PATTERN]) == 0
        out = capsys.readouterr().out
        assert "variant:" in out and "strategy:" in out
        assert main(["scrub", index_handle]) == 0
        assert "OK" in capsys.readouterr().out

    def test_insert_then_delete(self, index_handle, corpus, tmp_path,
                                capsys):
        new_doc = tmp_path / "new.xml"
        new_doc.write_text(NEW_DOC, encoding="utf-8")
        doc_id = max(doc.doc_id for doc in corpus) + 1
        assert main(["insert", index_handle, str(new_doc)]) == 0
        assert (f"inserted document {doc_id}; index now holds "
                f"{len(corpus) + 1} documents") in capsys.readouterr().out
        assert main(["delete", index_handle, str(doc_id)]) == 0
        assert (f"index now holds {len(corpus)} documents"
                in capsys.readouterr().out)
        assert main(["delete", index_handle, str(doc_id)]) == 1

    def test_bad_xpath_is_a_usage_error(self, index_handle, capsys):
        for command in ("query", "explain"):
            assert main([command, index_handle, "//a[["]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("error [XPathSyntaxError]: ")
            assert "Traceback" not in err

    def test_unbuilt_variant_is_a_typed_one_liner(self, corpus, tmp_path,
                                                 capsys):
        path = str(tmp_path / "rp-only.idx")
        with PrixIndex.build(corpus, IndexOptions(
                path=path, variants=("rp",))) as index:
            index.save()
        assert main(["query", path, PATTERN, "--variant", "ep"]) \
            == EXIT_USAGE
        assert capsys.readouterr().err == \
            "error [KeyError]: variant 'ep' was not built\n"


class TestShardDirectoriesInEveryCommand:
    """What used to be ``[Errno 21] Is a directory``."""

    @pytest.fixture
    def shard_dir(self, corpus, tmp_path):
        target = str(tmp_path / "shards")
        build_shards(corpus, target, shards=2)
        return target

    def test_explain_prints_the_plan_per_shard(self, shard_dir, capsys):
        assert main(["explain", shard_dir, PATTERN]) == 0
        out = capsys.readouterr().out
        assert out.startswith("shard-0000:\nquery: ")
        assert "\nshard-0001:\nquery: " in out
        assert out.count("strategy:") == 2

    @pytest.mark.parametrize("command", ["checkpoint", "recover"])
    def test_single_file_maintenance_names_the_shard_form(
            self, shard_dir, command, capsys):
        assert main([command, shard_dir]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"'prix {command}' takes one index file" in captured.err
        assert "shard-NNNN.idx" in captured.err
        assert "Errno" not in captured.err
