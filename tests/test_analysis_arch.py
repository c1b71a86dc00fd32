"""prixarch tests: the layer map and the ``layering`` rule.

Covers the layer-map constant (``LAYERS`` / ``ALLOWED``), the
import-graph layering rule with witness chains and suppressions -- on
synthetic trees through :func:`check_layering` with a map of their own,
and on the real tree through ``prix lint`` -- and the runner satellites
(``--explain`` / zero-seeded ``rule_counts``).
"""

import json
import textwrap
from pathlib import Path

from repro.analysis.arch import (ALLOWED, LAYERS, LayeringRule, Manifest,
                                 check_layering, module_name_for)
from repro.analysis.core import SourceFile
from repro.analysis.reporting import render_json
from repro.analysis.runner import (ALL_RULES, LintResult, lint_paths,
                                   rules_by_name)
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


class TestManifest:
    def test_layer_membership_longest_prefix_wins(self):
        manifest = Manifest()
        assert manifest.layer_of("repro.storage.pager") == "storage-impl"
        assert manifest.layer_of("repro.storage.backend") == "storage-api"
        assert manifest.layer_of("repro.storage.records") == "storage-api"
        assert manifest.layer_of("repro.storage.codec") == "storage-api"
        assert manifest.layer_of("repro.storage.wal") == "storage-impl"
        assert manifest.layer_of("repro.prix.index") == "logical"
        assert manifest.layer_of("repro.datasets") is None

    def test_layer_map_is_consistent(self):
        """Every allowed dependency names a layer, every layer has an
        allowed set, and no module prefix is claimed by two layers."""
        assert set(ALLOWED) == set(LAYERS)
        for layer, allowed in ALLOWED.items():
            assert set(allowed) <= set(LAYERS) - {layer}, layer
        prefixes = [prefix for layer in LAYERS.values() for prefix in layer]
        assert len(prefixes) == len(set(prefixes))
        assert all(prefix.startswith("repro.") for prefix in prefixes)


class TestModuleNames:
    def test_repro_rooted_paths(self):
        assert (module_name_for("src/repro/storage/pager.py")
                == "repro.storage.pager")
        assert module_name_for("src/repro/storage/__init__.py") == \
            "repro.storage"

    def test_unrooted_paths_use_stem(self):
        assert module_name_for("tests/eviltwin_pool.py") == \
            "eviltwin_pool"


#: A two-layer map for synthetic trees whose files are known by stem.
_SMALL_MAP = Manifest({"high": ("high",), "low": ("low",)},
                      {"high": (), "low": ()})


def _layering(files, manifest=_SMALL_MAP):
    """Layering findings over in-memory files ``{name: source}``."""
    sources = [SourceFile(name, textwrap.dedent(text))
               for name, text in files.items()]
    return check_layering(sources, manifest)


class TestLayering:
    def test_direct_violation_reports_witness_chain(self):
        findings = _layering({"high.py": "import low\n",
                              "low.py": "X = 1\n"})
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "layering"
        assert "high -> low" in finding.message
        assert finding.line == 1

    def test_indirect_violation_through_unlayered_module(self):
        findings = _layering({"high.py": "import helper\n",
                              "helper.py": "import low\n",
                              "low.py": "X = 1\n"})
        assert len(findings) == 1
        assert "high -> helper -> low" in findings[0].message

    def test_sanctioned_doorway_stops_traversal(self):
        doorway = Manifest(
            {"high": ("high",), "door": ("door",), "low": ("low",)},
            {"high": ("door",), "door": ("low",), "low": ()})
        findings = _layering({"high.py": "import door\n",
                              "door.py": "import low\n",
                              "low.py": "X = 1\n"}, doorway)
        assert findings == []

    def test_function_local_import_still_checked(self):
        findings = _layering(
            {"high.py": "def f():\n    import low\n    return low\n",
             "low.py": "X = 1\n"})
        assert len(findings) == 1
        assert findings[0].line == 2

    def test_inline_suppression_silences(self):
        findings = _layering(
            {"high.py": "import low  # prixlint: disable=layering\n",
             "low.py": "X = 1\n"})
        assert findings == []

    def test_any_linted_tree_gets_the_shipped_map(self, tmp_path):
        """No file configures the rule: a tree shaped like the package
        is held to ``LAYERS`` wherever it lives."""
        for name, text in {"prix/matcher.py": "import repro.storage.pager\n",
                           "storage/pager.py": "X = 1\n"}.items():
            path = tmp_path / "repro" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        result = lint_paths([tmp_path], rules=(LayeringRule,))
        assert [f.rule for f in result.findings] == ["layering"]
        assert ("repro.prix.matcher -> repro.storage.pager"
                in result.findings[0].message)

    def test_src_tree_has_zero_layering_violations(self, capsys):
        """The PR acceptance bar: the shipped layer map holds."""
        assert cli_main(["lint", "--rules", "layering", str(SRC)]) == 0
        assert capsys.readouterr().out.startswith("0 finding(s)")

    def test_replanted_storage_impl_import_in_matcher_is_caught(self):
        """The one defect only this rule catches: a logical module
        naming the physical substrate (no test fails on it)."""
        sources = []
        for path in sorted(SRC.rglob("*.py")):
            text = path.read_text()
            if path.name == "matcher.py":
                text = "from repro.storage.pager import Pager\n" + text
            sources.append(SourceFile(str(path), text))
        findings = check_layering(sources, Manifest())
        assert len(findings) == 1
        assert findings[0].path.endswith("prix/matcher.py")
        assert findings[0].line == 1
        assert ("repro.prix.matcher -> repro.storage.pager"
                in findings[0].message)


class TestRunnerSatellites:
    def test_explain_prints_rationale(self, capsys):
        assert cli_main(["lint", "--explain", "layering"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("layering:")
        assert "LAYERS" in out and "ALLOWED" in out

    def test_explain_unknown_rule_errors(self, capsys):
        assert cli_main(["lint", "--explain", "ghost-rule"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_json_report_seeds_a_zero_for_every_rule_run(self):
        names = [rule.name for rule in ALL_RULES]
        document = json.loads(render_json(LintResult(), names))
        assert document["rule_counts"] == dict.fromkeys(names, 0)

    def test_layering_is_the_one_project_rule(self):
        registry = rules_by_name()
        assert registry["layering"] is LayeringRule
        assert len(registry) == 7
