"""Engine-level prixlint tests: suppressions, baselines, reporters,
discovery, exit codes, and the ``prix lint`` CLI wiring."""

import json

import pytest

from repro.analysis.baseline import (BaselineError, apply_baseline,
                                     load_baseline, write_baseline)
from repro.analysis.core import SourceFile, check_source
from repro.analysis.runner import (ALL_RULES, iter_python_files, lint_paths,
                                   main, rules_by_name)
from repro.analysis.rules_io import NoRawIoRule
from repro.cli import main as cli_main

STORAGE_PATH = "src/repro/storage/bptree.py"
RAW_OPEN = "handle = open('f.bin', 'rb')\n"


class TestSuppressions:
    def test_line_suppression_silences_named_rule(self):
        code = "handle = open('f')  # prixlint: disable=no-raw-io\n"
        source = SourceFile(STORAGE_PATH, code)
        assert check_source(source, [NoRawIoRule]) == []

    def test_line_suppression_is_rule_specific(self):
        code = "handle = open('f')  # prixlint: disable=seeded-rng\n"
        source = SourceFile(STORAGE_PATH, code)
        assert len(check_source(source, [NoRawIoRule])) == 1

    def test_disable_all_silences_everything(self):
        code = "handle = open('f')  # prixlint: disable=all\n"
        source = SourceFile(STORAGE_PATH, code)
        assert check_source(source, ALL_RULES) == []

    def test_file_level_suppression(self):
        code = ("# prixlint: disable-file=no-raw-io\n"
                "a = open('f')\nb = open('g')\n")
        source = SourceFile(STORAGE_PATH, code)
        assert check_source(source, [NoRawIoRule]) == []

    def test_suppression_only_covers_its_line(self):
        code = ("a = open('f')  # prixlint: disable=no-raw-io\n"
                "b = open('g')\n")
        source = SourceFile(STORAGE_PATH, code)
        findings = check_source(source, [NoRawIoRule])
        assert [finding.line for finding in findings] == [2]


class TestBaseline:
    def make_findings(self, tmp_path, code=RAW_OPEN * 1):
        target = tmp_path / "src" / "repro" / "storage" / "bptree.py"
        target.parent.mkdir(parents=True)
        target.write_text(code)
        return lint_paths([tmp_path]), target

    def test_round_trip_grandfathers_findings(self, tmp_path):
        result, _ = self.make_findings(tmp_path)
        assert result.findings
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, result.findings)
        rebaselined = lint_paths([tmp_path / "src"],
                                 baseline=load_baseline(baseline_file))
        assert rebaselined.findings == []
        assert len(rebaselined.grandfathered) == len(result.findings)
        assert rebaselined.exit_code == 0

    def test_new_occurrence_still_fails(self, tmp_path):
        result, target = self.make_findings(tmp_path)
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, result.findings)
        # A second raw open -- even the same snippet text -- exceeds the
        # baselined count and must surface as new.
        target.write_text(RAW_OPEN + "x = 1\n" + RAW_OPEN)
        rebaselined = lint_paths([tmp_path / "src"],
                                 baseline=load_baseline(baseline_file))
        assert len(rebaselined.findings) == 1
        assert rebaselined.exit_code == 1

    def test_line_drift_does_not_invalidate_baseline(self, tmp_path):
        result, target = self.make_findings(tmp_path)
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, result.findings)
        target.write_text("import struct\n\n\n" + RAW_OPEN)
        rebaselined = lint_paths([tmp_path / "src"],
                                 baseline=load_baseline(baseline_file))
        assert rebaselined.findings == []

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(BaselineError):
            load_baseline(bad)
        bad.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(BaselineError):
            load_baseline(bad)

    def test_apply_baseline_respects_counts(self, tmp_path):
        result, _ = self.make_findings(tmp_path, RAW_OPEN + RAW_OPEN)
        assert len(result.findings) == 2
        baseline = {result.findings[0].baseline_key: 1}
        new, grandfathered = apply_baseline(result.findings, baseline)
        assert len(new) == 1 and len(grandfathered) == 1


class TestRunner:
    def write_dirty_tree(self, tmp_path):
        target = tmp_path / "src" / "repro" / "storage" / "bptree.py"
        target.parent.mkdir(parents=True)
        target.write_text(RAW_OPEN)
        return tmp_path / "src"

    def test_discovery_skips_pycache(self, tmp_path):
        (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__" / "mod.py").write_text("x = 1\n")
        files = list(iter_python_files([tmp_path]))
        assert [path.name for path in files] == ["mod.py"]

    def test_exit_codes(self, tmp_path, capsys):
        dirty = self.write_dirty_tree(tmp_path)
        assert main([str(dirty)]) == 1
        (dirty / "repro" / "storage" / "bptree.py").write_text("x = 1\n")
        assert main([str(dirty)]) == 0

    def test_syntax_error_reported_as_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        assert main([str(bad)]) == 2
        out = capsys.readouterr().out
        assert "invalid syntax" in out and "error(s)" in out

    def test_missing_path_is_an_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "no-such-dir")]) == 2
        assert "path does not exist" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        dirty = self.write_dirty_tree(tmp_path)
        assert main([str(dirty), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 1
        assert payload["findings"][0]["rule"] == "no-raw-io"
        assert payload["findings"][0]["line"] == 1

    def test_json_rule_counts_list_every_rule_run(self, tmp_path, capsys):
        dirty = self.write_dirty_tree(tmp_path)
        assert main([str(dirty), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        # Every rule reports explicitly even at zero, so the CI
        # artifact proves each check ran.
        assert payload["rule_counts"] == {
            **dict.fromkeys(rules_by_name(), 0), "no-raw-io": 1}
        assert main([str(dirty), "--format", "json",
                     "--rules", "seeded-rng"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rule_counts"] == {"seeded-rng": 0}

    def test_json_rule_counts_include_grandfathered(self, tmp_path,
                                                    capsys):
        dirty = self.write_dirty_tree(tmp_path)
        baseline_file = tmp_path / "base.json"
        assert main([str(dirty), "--write-baseline",
                     str(baseline_file)]) == 0
        capsys.readouterr()
        assert main([str(dirty), "--baseline", str(baseline_file),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["rule_counts"]["no-raw-io"] == 1  # still counted

    def test_rules_filter_and_unknown_rule(self, tmp_path, capsys):
        dirty = self.write_dirty_tree(tmp_path)
        assert main([str(dirty), "--rules", "seeded-rng"]) == 0
        assert main([str(dirty), "--rules", "no-such-rule"]) == 2

    def test_list_rules_names_all_seven(self, capsys):
        assert main(["--list-rules"]) == 0
        listed = [line.split(":")[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert listed == sorted([
            "no-raw-io", "seeded-rng", "stats-int-discipline",
            "resource-safety", "no-mutable-default-arg",
            "no-bare-except", "layering"])
        assert listed == sorted(rules_by_name())

    def test_write_baseline_flag(self, tmp_path, capsys):
        dirty = self.write_dirty_tree(tmp_path)
        baseline_file = tmp_path / "base.json"
        assert main([str(dirty), "--write-baseline",
                     str(baseline_file)]) == 0
        assert main([str(dirty), "--baseline", str(baseline_file)]) == 0
        assert main([str(dirty), "--baseline",
                     str(tmp_path / "missing.json")]) == 2


class TestCliIntegration:
    def test_prix_lint_subcommand(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "storage" / "bptree.py"
        target.parent.mkdir(parents=True)
        target.write_text(RAW_OPEN)
        assert cli_main(["lint", str(tmp_path / "src")]) == 1
        assert "no-raw-io" in capsys.readouterr().out
        target.write_text("x = 1\n")
        assert cli_main(["lint", str(tmp_path / "src")]) == 0

    def test_prix_lint_json(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n")
        assert cli_main(["lint", str(tmp_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
