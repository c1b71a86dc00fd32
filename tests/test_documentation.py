"""Documentation consistency: the docs reference real files and symbols."""

import ast
import os
import re

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(name):
    with open(os.path.join(REPO, name), encoding="utf-8") as handle:
        return handle.read()


class TestDocsExist:
    @pytest.mark.parametrize("name", [
        "README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/PAPER_MAP.md"])
    def test_present_and_substantial(self, name):
        text = read(name)
        assert len(text) > 2000, f"{name} looks like a stub"

    def test_design_confirms_paper_identity(self):
        text = read("DESIGN.md")
        assert "Rao" in text and "ICDE 2004" in text


class TestReferencedPathsExist:
    def test_design_bench_targets_exist(self):
        text = read("DESIGN.md")
        for target in re.findall(r"`(benchmarks/[\w./]+\.py)`", text):
            assert os.path.exists(os.path.join(REPO, target)), target

    def test_paper_map_paths_exist(self):
        text = read("docs/PAPER_MAP.md")
        for target in re.findall(r"`((?:src/)?repro/[\w./]+\.py)", text):
            path = target if target.startswith("src/") else "src/" + target
            assert os.path.exists(os.path.join(REPO, path)), target
        for target in re.findall(r"`(tests/[\w./]+\.py)", text):
            assert os.path.exists(os.path.join(REPO, target)), target
        for target in re.findall(r"`(benchmarks/[\w./]+\.py)", text):
            assert os.path.exists(os.path.join(REPO, target)), target

    def test_readme_examples_exist(self):
        text = read("README.md")
        for target in re.findall(r"examples/(\w+\.py)", text):
            assert os.path.exists(os.path.join(REPO, "examples", target))

    def test_every_bench_is_indexed_in_design(self):
        text = read("DESIGN.md")
        bench_dir = os.path.join(REPO, "benchmarks")
        for name in sorted(os.listdir(bench_dir)):
            if name.startswith("bench_") and name.endswith(".py"):
                assert name in text, (
                    f"{name} missing from DESIGN.md experiment index")


class TestPaperMapSymbols:
    def test_mapped_tests_are_real(self):
        """Every `tests/...::symbol` reference resolves to a real name."""
        text = read("docs/PAPER_MAP.md")
        for path, symbol in re.findall(r"`(tests/[\w.]+\.py)::(\w+)", text):
            source = read(path)
            assert re.search(rf"(def|class)\s+{symbol}\b", source), (
                f"{path}::{symbol} not found")


class TestErrorTable:
    def test_serving_table_is_the_classifier_vocabulary(self):
        """docs/SERVING.md states the failure vocabulary once; its rows
        are exactly (code, HTTP status, exit code) as the code has them."""
        from repro.serve.protocol import ERROR_KINDS
        rows = re.findall(r"^\| `([a-z-]+)` \| (\d+) \| (\d+) \|",
                          read("docs/SERVING.md"), flags=re.MULTILINE)
        assert {code: (int(status), int(exit_code))
                for code, status, exit_code in rows} == ERROR_KINDS
        assert len(rows) == len(ERROR_KINDS)


class TestCheckerTable:
    def test_analysis_table_names_exactly_the_shipped_rules(self):
        """docs/ANALYSIS.md says once which checker owns which protocol;
        its source-test column is exactly the source checks of
        ``tests/test_source_invariants.py``."""
        tree = ast.parse(read("tests/test_source_invariants.py"))
        checks = {node.name for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name.startswith("test_")}
        section = read("docs/ANALYSIS.md").split(
            "## What is checked where")[1].split("\n## ")[0]
        cells = re.findall(
            r"^\| [^|]+ \| (`test_source_invariants::\w+`|—) \|", section,
            flags=re.MULTILINE)
        cited = [cell.strip("`").partition("::")[2] for cell in cells
                 if cell != "—"]
        assert len(cells) > len(checks)     # protocols without one
        assert sorted(cited) == sorted(checks)


class TestLayerTable:
    def test_architecture_table_is_the_layer_map(self):
        """docs/ARCHITECTURE.md tables the layer map once; its rows are
        exactly ``LAYERS`` (prefixes) and ``ALLOWED`` (imports)."""
        from test_source_invariants import ALLOWED, LAYERS
        section = read("docs/ARCHITECTURE.md").split(
            "## The layer map")[1].split("\n## ")[0]
        rows = re.findall(r"^\| `([a-z-]+)` \| ([^|]+) \| ([^|]+) \|$",
                          section, flags=re.MULTILINE)
        assert {layer: tuple(re.findall(r"`([\w.]+)`", prefixes))
                for layer, prefixes, _ in rows} == LAYERS
        assert {layer: tuple(re.findall(r"`([\w-]+)`", allowed))
                for layer, _, allowed in rows} == ALLOWED
        assert len(rows) == len(LAYERS)


class TestOptionTable:
    def test_readme_table_lists_exactly_the_index_options(self):
        """README states once which build options exist and which of
        them the index file remembers; its rows are ``IndexOptions``'s
        fields, and the remembered ones are what the catalog and the
        superblock actually hold."""
        import dataclasses

        from repro.prix.index import _LAYOUT_KEYS, IndexOptions
        rows = re.findall(r"^\| `(\w+)` \| [^|]+ \| ([^|]+) \|$",
                          read("README.md"), flags=re.MULTILINE)
        assert sorted(name for name, _ in rows) == sorted(
            field.name for field in dataclasses.fields(IndexOptions))
        remembered = {name for name, where in rows
                      if not where.startswith("—")}
        assert remembered == {"variants", "page_size", *_LAYOUT_KEYS}
