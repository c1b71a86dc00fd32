"""prixarch tests: the manifest and the ``layering`` rule.

Covers the ``.prixarch.toml`` loader (including the 3.10 fallback
parser), the import-graph layering rule with witness chains and
suppressions, and the runner satellites (``--prune-baseline`` /
``--explain`` / zero-seeded ``rule_counts``).
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.arch import (LayeringRule, Manifest, ManifestError,
                                 check_layering, load_manifest,
                                 module_name_for, parse_manifest)
from repro.analysis.arch.manifest import _parse_toml_subset
from repro.analysis.core import SourceFile
from repro.analysis.reporting import render_json
from repro.analysis.runner import (ALL_RULES, LintResult, lint_paths, main,
                                   rules_by_name)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"

MANIFEST_TEXT = """
[prixarch]
version = 1

[layers]
foundation = ["repro.xmlkit", "repro.prufer"]
logical = ["repro.trie", "repro.prix"]
storage-api = ["repro.storage", "repro.storage.backend"]
storage-impl = ["repro.storage.pager"]
app = ["repro.cli"]

[allowed]
foundation = []
logical = ["foundation", "storage-api"]
storage-api = ["storage-impl"]
storage-impl = ["storage-api"]
app = "*"
"""


class TestManifest:
    def test_layer_membership_longest_prefix_wins(self):
        manifest = parse_manifest(MANIFEST_TEXT)
        assert manifest.layer_of("repro.storage.pager") == "storage-impl"
        assert manifest.layer_of("repro.storage.backend") == "storage-api"
        assert manifest.layer_of("repro.storage.records") == "storage-api"
        assert manifest.layer_of("repro.prix.index") == "logical"
        assert manifest.layer_of("repro.datasets") is None

    def test_star_means_unconstrained(self):
        manifest = parse_manifest(MANIFEST_TEXT)
        assert manifest.allowed_for("app") == "*"
        assert manifest.allowed_for("foundation") == frozenset()

    def test_allowed_naming_unknown_layer_rejected(self):
        with pytest.raises(ManifestError):
            Manifest({"a": ["pkg"]}, {"ghost": ["a"]})

    def test_layer_allowing_unknown_layer_rejected(self):
        with pytest.raises(ManifestError):
            Manifest({"a": ["pkg"]}, {"a": ["ghost"]})

    def test_duplicate_prefix_rejected(self):
        with pytest.raises(ManifestError):
            Manifest({"a": ["pkg"], "b": ["pkg"]}, {})

    def test_missing_layers_table_rejected(self):
        with pytest.raises(ManifestError):
            parse_manifest("[prixarch]\nversion = 1\n")

    def test_fallback_parser_matches_tomllib(self):
        """The 3.10 mini-parser and tomllib agree on the manifest subset."""
        tomllib = pytest.importorskip("tomllib")
        assert _parse_toml_subset(MANIFEST_TEXT, "m") == tomllib.loads(
            MANIFEST_TEXT)

    def test_fallback_parser_multiline_arrays(self):
        document = _parse_toml_subset(
            '[layers]\nfoo = [\n    "a",  # comment\n    "b",\n]\n', "m")
        assert document == {"layers": {"foo": ["a", "b"]}}

    def test_repository_manifest_parses(self):
        manifest = parse_manifest(
            (REPO_ROOT / ".prixarch.toml").read_text())
        assert manifest.layer_of("repro.prix.index") == "logical"
        assert manifest.layer_of("repro.storage.wal") == "storage-impl"
        assert manifest.layer_of("repro.storage.codec") == "storage-api"


class TestModuleNames:
    def test_repro_rooted_paths(self):
        assert (module_name_for("src/repro/storage/pager.py")
                == "repro.storage.pager")
        assert module_name_for("src/repro/storage/__init__.py") == \
            "repro.storage"

    def test_unrooted_paths_use_stem(self):
        assert module_name_for("tests/eviltwin_pool.py") == \
            "eviltwin_pool"


def _write_tree(tmp_path, files, manifest):
    (tmp_path / ".prixarch.toml").write_text(manifest)
    for name, text in files.items():
        (tmp_path / name).write_text(textwrap.dedent(text))
    return tmp_path


_SMALL_MANIFEST = """
[layers]
high = ["high"]
low = ["low"]

[allowed]
high = []
low = []
"""


class TestLayering:
    def test_direct_violation_reports_witness_chain(self, tmp_path):
        _write_tree(tmp_path,
                    {"high.py": "import low\n", "low.py": "X = 1\n"},
                    _SMALL_MANIFEST)
        result = lint_paths([tmp_path], rules=(LayeringRule,))
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert finding.rule == "layering"
        assert "high -> low" in finding.message
        assert finding.line == 1

    def test_indirect_violation_through_unlayered_module(self, tmp_path):
        _write_tree(tmp_path,
                    {"high.py": "import helper\n",
                     "helper.py": "import low\n",
                     "low.py": "X = 1\n"},
                    _SMALL_MANIFEST)
        result = lint_paths([tmp_path], rules=(LayeringRule,))
        assert len(result.findings) == 1
        assert "high -> helper -> low" in result.findings[0].message

    def test_sanctioned_doorway_stops_traversal(self, tmp_path):
        manifest = """
        [layers]
        high = ["high"]
        door = ["door"]
        low = ["low"]

        [allowed]
        high = ["door"]
        door = ["low"]
        low = []
        """
        _write_tree(tmp_path,
                    {"high.py": "import door\n",
                     "door.py": "import low\n",
                     "low.py": "X = 1\n"},
                    textwrap.dedent(manifest))
        result = lint_paths([tmp_path], rules=(LayeringRule,))
        assert result.findings == []

    def test_function_local_import_still_checked(self, tmp_path):
        _write_tree(tmp_path,
                    {"high.py": "def f():\n    import low\n    return low\n",
                     "low.py": "X = 1\n"},
                    _SMALL_MANIFEST)
        result = lint_paths([tmp_path], rules=(LayeringRule,))
        assert len(result.findings) == 1
        assert result.findings[0].line == 2

    def test_inline_suppression_silences(self, tmp_path):
        _write_tree(tmp_path,
                    {"high.py": "import low  # prixlint: disable=layering\n",
                     "low.py": "X = 1\n"},
                    _SMALL_MANIFEST)
        result = lint_paths([tmp_path], rules=(LayeringRule,))
        assert result.findings == []

    def test_no_manifest_means_no_findings(self, tmp_path):
        (tmp_path / "high.py").write_text("import low\n")
        (tmp_path / "low.py").write_text("X = 1\n")
        result = lint_paths([tmp_path], rules=(LayeringRule,))
        assert result.findings == []

    def test_src_tree_has_zero_layering_violations(self):
        """The PR acceptance bar: the shipped layer map holds."""
        result = lint_paths([SRC], rules=(LayeringRule,))
        assert result.findings == []

    def test_replanted_storage_impl_import_in_matcher_is_caught(self):
        """The one defect only this rule catches: a logical module
        naming the physical substrate (no test fails on it)."""
        sources = []
        for path in sorted(SRC.rglob("*.py")):
            text = path.read_text()
            if path.name == "matcher.py":
                text = "from repro.storage.pager import Pager\n" + text
            sources.append(SourceFile(str(path), text))
        findings = check_layering(
            sources, load_manifest(REPO_ROOT / ".prixarch.toml"))
        assert len(findings) == 1
        assert findings[0].path.endswith("prix/matcher.py")
        assert findings[0].line == 1
        assert ("repro.prix.matcher -> repro.storage.pager"
                in findings[0].message)


class TestRunnerSatellites:
    def test_prune_baseline_drops_stale_entries(self, tmp_path, capsys):
        target = tmp_path / "m.py"
        target.write_text("def f(pages=[]):\n    return pages\n")
        baseline_path = tmp_path / "baseline.json"
        assert main([str(target), "--write-baseline",
                     str(baseline_path)]) == 0
        document = json.loads(baseline_path.read_text())
        document["findings"].append({
            "rule": "no-raw-io", "path": "gone.py",
            "snippet": "open('x')", "count": 2})
        baseline_path.write_text(json.dumps(document))
        assert main([str(target), "--baseline", str(baseline_path),
                     "--prune-baseline"]) == 0
        out = capsys.readouterr().out
        assert "pruned 2 stale baseline entries" in out
        pruned = json.loads(baseline_path.read_text())
        assert [e["rule"] for e in pruned["findings"]] == \
            ["no-mutable-default-arg"]

    def test_prune_baseline_requires_baseline(self, tmp_path, capsys):
        assert main([str(tmp_path), "--prune-baseline"]) == 2
        assert "--prune-baseline requires" in capsys.readouterr().err

    def test_explain_prints_rationale(self, capsys):
        assert main(["--explain", "layering"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("layering:")
        assert ".prixarch.toml" in out

    def test_explain_unknown_rule_errors(self, capsys):
        assert main(["--explain", "ghost-rule"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_json_report_seeds_a_zero_for_every_rule_run(self):
        names = [rule.name for rule in ALL_RULES]
        document = json.loads(render_json(LintResult(), names))
        assert document["rule_counts"] == dict.fromkeys(names, 0)

    def test_layering_is_the_one_project_rule(self):
        registry = rules_by_name()
        assert registry["layering"] is LayeringRule
        assert len(registry) == 7
