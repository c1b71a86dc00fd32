"""CLI tests (build / query / stats round trips)."""

import json
import re

import pytest

from repro.cli import main


@pytest.fixture()
def xml_files(tmp_path):
    paths = []
    texts = [
        "<lib><book><author>Knuth</author><title>TAOCP</title></book></lib>",
        "<lib><book><author>Aho</author><title>Dragon</title></book>"
        "<journal><title>TODS</title></journal></lib>",
    ]
    for index, text in enumerate(texts):
        path = tmp_path / f"doc{index}.xml"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return paths


@pytest.fixture()
def built_index(tmp_path, xml_files, capsys):
    index_path = str(tmp_path / "cli.idx")
    assert main(["build", index_path] + xml_files) == 0
    capsys.readouterr()
    return index_path


class TestBuild:
    def test_build_from_files(self, tmp_path, xml_files, capsys):
        index_path = str(tmp_path / "out.idx")
        assert main(["build", index_path] + xml_files) == 0
        out = capsys.readouterr().out
        assert "parsed 2 document(s)" in out
        assert "index written" in out

    def test_build_from_corpus(self, tmp_path, capsys):
        index_path = str(tmp_path / "corpus.idx")
        assert main(["build", index_path, "--corpus", "dblp",
                     "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "120 documents" in out

    def test_build_without_input_fails(self, tmp_path, capsys):
        assert main(["build", str(tmp_path / "x.idx")]) == 2

    def test_build_bad_xml_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<a><b></a>", encoding="utf-8")
        assert main(["build", str(tmp_path / "x.idx"), str(bad)]) == 1

    def test_build_over_an_existing_index_is_refused(self, built_index,
                                                     xml_files, capsys):
        with open(built_index, "rb") as handle:
            before = handle.read()
        assert main(["build", built_index] + xml_files) == 2
        err = capsys.readouterr().err
        assert "error [FileExistsError]" in err and built_index in err
        with open(built_index, "rb") as handle:
            assert handle.read() == before

    def test_build_into_an_empty_precreated_file(self, tmp_path,
                                                 xml_files, capsys):
        index_path = tmp_path / "empty.idx"
        index_path.touch()
        assert main(["build", str(index_path)] + xml_files) == 0
        assert main(["query", str(index_path), "//book/author"]) == 0

    def test_failed_build_leaves_nothing_that_blocks_the_retry(
            self, tmp_path, xml_files, capsys):
        """A build that fails after its files exist (a 400-character tag
        outgrows a 256-byte page) takes them back with it."""
        long_tag = tmp_path / "long.xml"
        long_tag.write_text(f"<a><{'t' * 400}/></a>", encoding="utf-8")
        index_path = str(tmp_path / "cli.idx")
        flags = ["--page-size", "256", "--durable", "--guard"]
        assert main(["build", index_path, str(long_tag)] + flags) == 1
        assert "PageOverflowError" in capsys.readouterr().err
        assert not any(path.name.startswith("cli.idx")
                       for path in tmp_path.iterdir())
        assert main(["build", index_path] + xml_files + flags) == 0
        assert main(["query", index_path, "//book/author"]) == 0


class TestQuery:
    def test_query_finds_matches(self, built_index, capsys):
        assert main(["query", built_index,
                     '//book[./author="Knuth"]/title']) == 0
        out = capsys.readouterr().out
        assert "1 match(es) in 1 document(s)" in out

    def test_query_explain(self, built_index, capsys):
        assert main(["query", built_index, "//book/title",
                     "--explain", "--cold"]) == 0
        out = capsys.readouterr().out
        assert "variant=" in out
        assert re.search(r"filter: \d+ range queries \(\d+ issued\), ", out)
        assert "pages read" in out

    def test_query_variant_and_flags(self, built_index, capsys):
        assert main(["query", built_index, "//book/title",
                     "--variant", "rp", "--no-maxgap", "--ordered"]) == 0

    def test_query_limit(self, built_index, capsys):
        assert main(["query", built_index, "//lib//title",
                     "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "more)" in out

    def test_query_bad_xpath(self, built_index, capsys):
        # An unparsable query is the caller's mistake: EXIT_USAGE.
        assert main(["query", built_index, "//a[["]) == 2
        err = capsys.readouterr().err
        assert "error [XPathSyntaxError]" in err and "Traceback" not in err

    def test_query_refused_twig(self, built_index, capsys):
        # So is a well-formed query with nothing to sequence, or with
        # more branch arrangements than the engine will try.
        for xpath in ("//book", "//book" + "[./title]" * 8):
            assert main(["query", built_index, xpath,
                         "--variant", "rp"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error [UnsupportedTwigError]: ")
            assert "Traceback" not in err

    def test_query_missing_index(self, tmp_path, capsys):
        assert main(["query", str(tmp_path / "no.idx"), "//a/b"]) == 2
        err = capsys.readouterr().err
        assert "missing file" in err and "Traceback" not in err


class TestStats:
    def test_stats_output(self, built_index, capsys):
        assert main(["stats", built_index]) == 0
        out = capsys.readouterr().out
        assert "documents: 2" in out
        assert "catalog: 1 record(s), " in out
        assert "RPIndex" in out and "EPIndex" in out
        assert "trie nodes" in out


class TestExplainAndSplit:
    def test_explain_command(self, built_index, capsys):
        assert main(["explain", built_index, "//book/title"]) == 0
        out = capsys.readouterr().out
        assert "variant:" in out and "strategy:" in out

    def test_build_with_split(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.xml"
        corpus.write_text("<dblp><article><t>A</t></article>"
                          "<article><t>B</t></article></dblp>",
                          encoding="utf-8")
        index_path = str(tmp_path / "split.idx")
        assert main(["build", index_path, str(corpus), "--split"]) == 0
        out = capsys.readouterr().out
        assert "parsed 2 document(s)" in out
        assert main(["stats", index_path]) == 0
        assert "documents: 2" in capsys.readouterr().out


class TestInsertDelete:
    def test_insert_into_dynamic_index(self, tmp_path, capsys):
        index_path = str(tmp_path / "dyn.idx")
        doc = tmp_path / "doc.xml"
        doc.write_text("<a><b/></a>", encoding="utf-8")
        assert main(["build", index_path, str(doc),
                     "--labeler", "dynamic"]) == 0
        new_doc = tmp_path / "new.xml"
        new_doc.write_text("<a><b/><c/></a>", encoding="utf-8")
        assert main(["insert", index_path, str(new_doc)]) == 0
        out = capsys.readouterr().out
        assert "index now holds 2 documents" in out
        assert main(["query", index_path, "//a/c"]) == 0
        assert "1 match(es)" in capsys.readouterr().out

    def test_insert_into_bulk_index_advises_rebuild(self, tmp_path,
                                                    capsys):
        index_path = str(tmp_path / "bulk.idx")
        doc = tmp_path / "doc.xml"
        doc.write_text("<a><b/></a>", encoding="utf-8")
        assert main(["build", index_path, str(doc)]) == 0
        new_doc = tmp_path / "new.xml"
        new_doc.write_text("<x><y/></x>", encoding="utf-8")
        assert main(["insert", index_path, str(new_doc)]) == 1
        assert "--labeler dynamic" in capsys.readouterr().err

    def test_delete(self, tmp_path, capsys):
        index_path = str(tmp_path / "del.idx")
        docs = []
        for i in range(2):
            path = tmp_path / f"d{i}.xml"
            path.write_text(f"<a><b id=\"{i}\"/></a>", encoding="utf-8")
            docs.append(str(path))
        assert main(["build", index_path] + docs) == 0
        assert main(["delete", index_path, "1"]) == 0
        out = capsys.readouterr().out
        assert "index now holds 1 documents" in out
        assert main(["delete", index_path, "99"]) == 1
        # Each open -> mutate -> save -> close chains one record on.
        capsys.readouterr()
        assert main(["stats", index_path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["catalog_records"] == 2


@pytest.fixture()
def guarded_index(tmp_path, xml_files, capsys):
    index_path = str(tmp_path / "guard.idx")
    assert main(["build", index_path] + xml_files
                + ["--durable", "--guard", "--page-size", "256"]) == 0
    capsys.readouterr()
    return index_path


class TestGuardAndScrub:
    def test_build_guard_writes_sidecar(self, tmp_path, xml_files,
                                        capsys):
        index_path = str(tmp_path / "g.idx")
        assert main(["build", index_path] + xml_files
                    + ["--guard"]) == 0
        out = capsys.readouterr().out
        assert f"checksum sidecar at {index_path}.sum" in out
        import os
        assert os.path.exists(index_path + ".sum")

    def test_scrub_healthy_index(self, guarded_index, capsys):
        assert main(["scrub", guarded_index]) == 0
        out = capsys.readouterr().out
        assert "health" in out and "OK" in out

    def test_scrub_missing_index_is_usage_error(self, tmp_path, capsys):
        assert main(["scrub", str(tmp_path / "no.idx")]) == 2

    def test_corruption_exits_3_everywhere(self, guarded_index, capsys):
        # Checkpoint first so the WAL cannot repair the damage.
        assert main(["checkpoint", guarded_index]) == 0
        with open(guarded_index, "r+b") as handle:
            handle.seek(256 * 3)
            handle.write(b"\x00" * 256)
        capsys.readouterr()
        assert main(["scrub", guarded_index]) == 3
        out = capsys.readouterr().out
        assert "CORRUPT" in out
        assert main(["query", guarded_index, "//book/title"]) == 3
        err = capsys.readouterr().err
        assert "PageCorruptionError" in err and "Traceback" not in err

    def test_scrub_repairs_from_wal(self, guarded_index, capsys):
        with open(guarded_index, "r+b") as handle:
            handle.seek(256 * 3 + 11)
            byte = handle.read(1)
            handle.seek(-1, 1)
            handle.write(bytes([byte[0] ^ 0x20]))
        assert main(["scrub", guarded_index]) == 0
        out = capsys.readouterr().out
        assert "repaired    : 1" in out
        assert main(["query", guarded_index, "//book/title"]) == 0

    def test_garbage_superblock_exits_3(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.idx"
        bogus.write_bytes(b"not an index" * 100)
        assert main(["query", str(bogus), "//a/b"]) == 3
        err = capsys.readouterr().err
        assert "error [" in err and "Traceback" not in err


class TestQueryBudget:
    def test_budget_candidates_degrades(self, built_index, capsys):
        assert main(["query", built_index, "//book[./author]/title",
                     "--budget-candidates", "0"]) == 0
        out = capsys.readouterr().out
        assert "approximate result" in out
        assert "superset" in out
        assert "degraded: candidates budget exhausted" in out

    def test_budget_filter_exhaustion_is_error(self, built_index,
                                               capsys):
        assert main(["query", built_index, "//book/title",
                     "--budget-range-queries", "0"]) == 1
        err = capsys.readouterr().err
        assert "error [budget]" in err and "Traceback" not in err

    def test_generous_budget_matches_exact(self, built_index, capsys):
        assert main(["query", built_index, "//book/title"]) == 0
        exact = capsys.readouterr().out
        assert main(["query", built_index, "//book/title",
                     "--budget-candidates", "1000",
                     "--budget-ms", "60000"]) == 0
        assert capsys.readouterr().out == exact


class TestBackendFlag:
    def test_query_backends_answer_identically(self, built_index, capsys):
        assert main(["query", built_index, "//book/title"]) == 0
        exact = capsys.readouterr().out
        for backend in ("mmap", "arena"):
            assert main(["query", built_index, "//book/title",
                         "--backend", backend]) == 0
            assert capsys.readouterr().out == exact, backend

    def test_stats_backend_flag(self, built_index, capsys):
        for backend in ("mmap", "arena"):
            assert main(["stats", built_index, "--backend", backend]) == 0
            out = capsys.readouterr().out
            assert "documents: 2" in out, backend

    def test_unknown_backend_is_usage_error(self, built_index, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["query", built_index, "//a", "--backend", "floppy"])
        assert caught.value.code == 2


class TestScrubJson:
    def test_scrub_json_is_the_canonical_serializer(self, guarded_index,
                                                    capsys):
        # `prix scrub --json` and the server's /healthz share one
        # serializer: ScrubReport.to_json (docs/SERVING.md).
        import json

        from repro.prix.index import scrub_path
        assert main(["scrub", guarded_index, "--json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out) == json.loads(
            scrub_path(guarded_index).to_json())

    def test_scrub_json_reports_corruption_with_exit_3(self, guarded_index,
                                                       capsys):
        import json
        assert main(["checkpoint", guarded_index]) == 0
        with open(guarded_index, "r+b") as handle:
            handle.seek(256 * 3)
            handle.write(b"\x00" * 256)
        capsys.readouterr()
        assert main(["scrub", guarded_index, "--json"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["pages_corrupt"] != []


class TestServeParser:
    def test_serve_subcommand_is_registered(self):
        from repro.cli import make_parser
        args = make_parser().parse_args(
            ["serve", "x.idx", "--port", "0", "--backend", "arena",
             "--mount", "extra=y.idx", "--max-inflight", "4",
             "--budget-candidates", "100"])
        assert args.func.__name__ == "_cmd_serve"
        assert args.index == "x.idx"
        assert args.port == 0
        assert args.backend == "arena"
        assert args.mount == ["extra=y.idx"]
        assert args.max_inflight == 4

    def test_serve_defaults(self):
        from repro.cli import make_parser
        args = make_parser().parse_args(["serve", "x.idx"])
        assert args.port == 8399
        assert args.backend == "mmap"
