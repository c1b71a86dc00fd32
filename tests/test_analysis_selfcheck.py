"""Self-check: the shipped tree must satisfy its own linter.

This is the acceptance gate: ``prix lint src/repro benchmarks examples
tests`` exits 0 -- nothing is grandfathered, so a finding anywhere is
fixed or suppressed at its line -- and a deliberately introduced
violation (raw ``open()`` in the storage layer, unseeded RNG in a
dataset generator) makes the lint fail.
"""

import ast
import re
import shutil
from pathlib import Path

import pytest

from repro.analysis import SourceFile, lint_paths, rules_by_name
from repro.analysis.runner import iter_python_files
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
FULL_TREE = [SRC, REPO_ROOT / "benchmarks", REPO_ROOT / "examples",
             REPO_ROOT / "tests"]


def offenders(pattern, paths):
    """``file:line`` of every line of ``paths`` matching ``pattern``."""
    return [f"{path.relative_to(SRC)}:{number}"
            for path in paths
            for number, line in enumerate(
                path.read_text().splitlines(), start=1)
            if pattern.search(line)]


@pytest.fixture(scope="module")
def full_tree():
    """One lint of the whole tree, shared by the cleanliness checks."""
    return lint_paths(FULL_TREE)


def messages(findings, under):
    """``path:line: rule: message`` of the findings under ``under``."""
    return [f"{f.path}:{f.line}: {f.rule}: {f.message}" for f in findings
            if under in Path(f.path).resolve().parents]


class TestTreeIsClean:
    def test_src_repro_is_clean_under_all_rules(self, full_tree):
        assert messages(full_tree.findings, SRC) == []
        assert full_tree.errors == []
        # the whole package was seen
        assert len(list(iter_python_files([SRC]))) > 50

    def test_benchmarks_and_examples_are_clean(self, full_tree):
        for tree in ("benchmarks", "examples"):
            assert messages(full_tree.findings, REPO_ROOT / tree) == []

    def test_full_tree_is_clean(self, full_tree):
        """No baseline: every finding is fixed or suppressed at its line."""
        assert messages(full_tree.findings, REPO_ROOT) == []
        assert full_tree.exit_code == 0

    def test_suppressions_name_only_shipped_rules(self):
        """A directive for a rule that no longer exists silences nothing
        and hides that the rule is gone."""
        shipped = set(rules_by_name())
        stale = []
        for path in iter_python_files(FULL_TREE):
            source = SourceFile(path, path.read_text())
            named = set(source.file_suppressions).union(
                *source.line_suppressions.values())
            stale += [f"{path.relative_to(REPO_ROOT)}: {rule}"
                      for rule in sorted(named - shipped - {"all"})]
        assert stale == []


class TestTheLinterHasNoConfiguration:
    def test_no_config_files_and_no_toml_parsing(self):
        """The layer map is a constant beside the rule and nothing is
        grandfathered: no manifest, no baseline, no TOML reader."""
        gone = [".prixarch.toml", ".prixlint-baseline.json",
                "src/repro/analysis/baseline.py",
                "src/repro/analysis/__main__.py"]
        assert [name for name in gone if (REPO_ROOT / name).exists()] == []
        config = re.compile(r"\btoml(lib|i)?\b|_parse_toml|prixarch\.toml|"
                            r"prixlint-baseline|analysis\.baseline|"
                            r"grandfather")
        this_file = Path(__file__).resolve()
        assert [f"{path}:{number}"
                for path in iter_python_files(FULL_TREE)
                if path.resolve() != this_file
                for number, line in enumerate(
                    path.read_text().splitlines(), start=1)
                if config.search(line)] == []


class TestIndexKindStaysBehindTheShardPackage:
    def test_no_front_end_asks_which_kind_of_index_it_holds(self):
        """`open_index` / `scrub_index` are the only code that tells a
        monolithic index from a shard directory (docs/SHARDING.md)."""
        fork = re.compile(r"is_shard_directory\(|"
                          r"isinstance\([^)]*ShardedIndex\)")
        assert offenders(fork, [path for path in sorted(SRC.rglob("*.py"))
                                if path.parent != SRC / "shard"]) == []


class TestOnePageSubstrate:
    def test_storage_defines_exactly_one_pager_surface(self):
        """Backend kinds differ in the file-like object ``Pager`` is
        handed, never in a second class re-implementing its read and
        write path (which the runtime sanitizer would not patch)."""
        surface = {"allocate", "read", "read_raw", "write", "repair_write"}
        pagers = [f"{path.name}:{node.name}"
                  for path in sorted((SRC / "storage").glob("*.py"))
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.ClassDef)
                  and surface <= {item.name for item in node.body
                                  if isinstance(item, ast.FunctionDef)}]
        assert pagers == ["pager.py:Pager"]

    @staticmethod
    def subclasses_of(base, root):
        """``file:Class`` of every class under ``root`` naming ``base``
        among its bases."""
        return [f"{path.name}:{node.name}"
                for path in sorted(root.rglob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ClassDef)
                and base in {ast.unparse(b).rpartition(".")[2]
                             for b in node.bases}]

    def test_one_backend_class_and_no_protocol(self):
        """The product, the conformance test and the sanitizer all look
        at the same class: one ``BufferPool`` subclass owns the stack,
        and no structural ``Protocol`` restates its surface."""
        assert self.subclasses_of("BufferPool", SRC) == [
            "backend.py:FilePagerBackend"]
        assert self.subclasses_of("Protocol", SRC / "storage") == []

    def test_the_second_wiring_and_its_helpers_stay_deleted(self):
        """... and with the self-registration gone, nothing outside the
        linter's own documentation suppresses the layering rule."""
        gone = re.compile(r"StorageBackend|MmapBackend|create_backend|"
                          r"_open_guard|_open_wal|"
                          r"_register_with_sanitizer")
        assert offenders(gone, sorted(SRC.rglob("*.py"))) == []
        suppressed = re.compile(r"prixlint: disable=layering")
        assert offenders(
            suppressed, [path for path in sorted(SRC.rglob("*.py"))
                         if SRC / "analysis" not in path.parents]) == []


class TestOneReaderForAnIndexFile:
    """``repro.prix.index`` alone reads a superblock or a catalog record
    and ``PrixIndex.open`` alone recovers and attaches a saved index
    (docs/ARCHITECTURE.md); scrub is composed above storage."""

    def test_only_the_index_module_names_the_superblock(self):
        names = re.compile(r"_SUPERBLOCK|_parse_superblock|_SUPER_MAGIC")
        assert offenders(
            names, [path for path in sorted(SRC.rglob("*.py"))
                    if path != SRC / "prix" / "index.py"]) == []

    def test_storage_never_reaches_up_into_the_index(self):
        upward = re.compile(r"prixlint: disable=layering|"
                            r"^\s*(from|import)\s+repro\.prix\b")
        assert offenders(
            upward, sorted((SRC / "storage").glob("*.py"))) == []

    def test_the_second_readers_and_the_option_guesses_stay_deleted(self):
        gone = re.compile(r"open_from|recover_files|backend_from_files|"
                          r"_check_catalog|_infer_options|"
                          r'getattr\(self, "_options"')
        assert offenders(gone, sorted(SRC.rglob("*.py"))) == []


class TestViolationsAreCaught:
    """Copy src/repro aside, break an invariant, watch the lint fail."""

    def corrupt_and_lint(self, tmp_path, relative, mutate):
        workdir = tmp_path / "src" / "repro"
        shutil.copytree(SRC, workdir)
        target = workdir / relative
        target.write_text(mutate(target.read_text()))
        return lint_paths([workdir])

    def test_raw_open_in_bptree_fails_lint(self, tmp_path):
        result = self.corrupt_and_lint(
            tmp_path, Path("storage") / "bptree.py",
            lambda text: text + "\n_FH = open('/tmp/leak.bin', 'wb')\n")
        assert any(f.rule == "no-raw-io" for f in result.findings)
        assert result.exit_code == 1

    def test_unseeded_rng_in_dataset_generator_fails_lint(self, tmp_path):
        result = self.corrupt_and_lint(
            tmp_path, Path("datasets") / "dblp.py",
            lambda text: text.replace("rng = random.Random(seed)",
                                      "rng = random.Random()"))
        assert any(f.rule == "seeded-rng" for f in result.findings)
        assert result.exit_code == 1

    def test_float_into_counter_fails_lint(self, tmp_path):
        result = self.corrupt_and_lint(
            tmp_path, Path("storage") / "pager.py",
            lambda text: text.replace("self.stats.add(physical_reads=1)",
                                      "self.stats.add(physical_reads=1.0)"))
        assert any(f.rule == "stats-int-discipline"
                   for f in result.findings)

    def test_cli_exit_code_propagates(self, tmp_path, capsys):
        workdir = tmp_path / "src" / "repro"
        shutil.copytree(SRC, workdir)
        bptree = workdir / "storage" / "bptree.py"
        bptree.write_text(bptree.read_text()
                          + "\n_FH = open('/tmp/leak.bin', 'wb')\n")
        assert cli_main(["lint", str(workdir)]) == 1
        capsys.readouterr()
