"""Engine-level prixlint tests: suppressions, reporters, discovery,
exit codes, and the ``prix lint`` command line."""

import json

from repro.analysis.core import SourceFile, check_source
from repro.analysis.runner import ALL_RULES, iter_python_files, rules_by_name
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
        assert cli_main(["lint", str(dirty)]) == 1
        (dirty / "repro" / "storage" / "bptree.py").write_text("x = 1\n")
        assert cli_main(["lint", str(dirty)]) == 0

    def test_syntax_error_reported_as_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        assert cli_main(["lint", str(bad)]) == 2
        out = capsys.readouterr().out
        assert "invalid syntax" in out and "error(s)" in out

    def test_missing_path_is_an_error(self, tmp_path, capsys):
        assert cli_main(["lint", str(tmp_path / "no-such-dir")]) == 2
        assert "path does not exist" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        dirty = self.write_dirty_tree(tmp_path)
        assert cli_main(["lint", str(dirty), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 1
        assert payload["findings"][0]["rule"] == "no-raw-io"
        assert payload["findings"][0]["line"] == 1

    def test_json_rule_counts_list_every_rule_run(self, tmp_path, capsys):
        dirty = self.write_dirty_tree(tmp_path)
        assert cli_main(["lint", str(dirty), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        # Every rule reports explicitly even at zero, so the CI
        # artifact proves each check ran.
        assert payload["rule_counts"] == {
            **dict.fromkeys(rules_by_name(), 0), "no-raw-io": 1}
        assert cli_main(["lint", str(dirty), "--format", "json",
                         "--rules", "seeded-rng"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rule_counts"] == {"seeded-rng": 0}

    def test_rules_filter_and_unknown_rule(self, tmp_path, capsys):
        dirty = self.write_dirty_tree(tmp_path)
        assert cli_main(["lint", str(dirty), "--rules", "seeded-rng"]) == 0
        assert cli_main(["lint", str(dirty), "--rules", "no-such-rule"]) == 2

    def test_list_rules_names_all_seven(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        listed = [line.split(":")[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert listed == sorted([
            "no-raw-io", "seeded-rng", "stats-int-discipline",
            "resource-safety", "no-mutable-default-arg",
            "no-bare-except", "layering"])
        assert listed == sorted(rules_by_name())


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
