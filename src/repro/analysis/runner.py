"""File discovery, orchestration and the ``prix lint`` command line.

Exit codes: 0 = clean, 1 = findings, 2 = usage error or a file that
could not be parsed.  ``prix lint`` in ``repro.cli`` and
``python -m repro.analysis`` both route through :func:`main`.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.arch import (LayeringRule, ManifestError, check_layering,
                                 find_manifest, load_manifest)
from repro.analysis.baseline import (BaselineError, apply_baseline,
                                     load_baseline, write_baseline)
from repro.analysis.core import SourceFile, check_source
from repro.analysis.reporting import render_json, render_text
from repro.analysis.rules_determinism import SeededRngRule
from repro.analysis.rules_hygiene import (NoBareExceptRule,
                                          NoMutableDefaultArgRule)
from repro.analysis.rules_io import NoRawIoRule, ResourceSafetyRule
from repro.analysis.rules_stats import StatsIntDisciplineRule

#: Every shipped rule, in reporting order: the six per-file AST rules,
#: then the whole-project ``layering`` rule.
ALL_RULES = (
    NoRawIoRule,
    SeededRngRule,
    StatsIntDisciplineRule,
    ResourceSafetyRule,
    NoMutableDefaultArgRule,
    NoBareExceptRule,
    LayeringRule,
)

#: Directory names never descended into during discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list = field(default_factory=list)
    grandfathered: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # (path, message)
    files_checked: int = 0

    @property
    def exit_code(self):
        if self.errors:
            return 2
        return 1 if self.findings else 0


def rules_by_name():
    """Mapping of rule name to rule class."""
    return {rule.name: rule for rule in ALL_RULES}


def iter_python_files(paths):
    """Yield every ``.py`` file under the given files/directories."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    yield candidate
        elif path.suffix == ".py" or path.is_file():
            yield path


def _display_path(path):
    """Stable path used in reports and baseline keys.

    Paths inside the working tree are reported relative to the current
    directory so the same finding keys identically whether the linter
    was invoked with relative or absolute arguments.
    """
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def _load_manifest_for(paths, result):
    """Locate and parse ``.prixarch.toml`` for the linted tree, if any."""
    roots = [str(raw) for raw in paths if Path(raw).exists()]
    manifest_path = find_manifest(roots or ["."])
    if manifest_path is None:
        return None
    try:
        return load_manifest(manifest_path)
    except (OSError, ManifestError) as error:
        result.errors.append((str(manifest_path), str(error)))
        return None


def lint_paths(paths, rules=None, baseline=None):
    """Lint files/directories and return a :class:`LintResult`.

    ``baseline`` is a key multiset from
    :func:`repro.analysis.baseline.load_baseline`; matching findings are
    reported separately and do not affect the exit code.  Every file is
    parsed once; the per-file rules visit it, then ``layering`` runs
    over all parsed files at once.
    """
    rules = ALL_RULES if rules is None else tuple(rules)
    result = LintResult()
    findings = []
    sources = []
    for raw in paths:
        # A typo'd path must not produce a green "0 findings in 0 files".
        if not Path(raw).exists():
            result.errors.append((str(raw), "path does not exist"))
    for path in iter_python_files(paths):
        display = _display_path(path)
        try:
            source = SourceFile(display, path.read_text(encoding="utf-8"))
        except (OSError, SyntaxError, UnicodeDecodeError,
                ValueError) as err:
            result.errors.append((display, str(err)))
            continue
        result.files_checked += 1
        sources.append(source)
        findings.extend(check_source(source, rules))
    if LayeringRule in rules and sources:
        manifest = _load_manifest_for(paths, result)
        findings.extend(check_layering(sources, manifest))
    findings.sort(key=lambda finding: finding.sort_key)
    if baseline:
        result.findings, result.grandfathered = apply_baseline(findings,
                                                               baseline)
    else:
        result.findings = findings
    return result


def add_lint_arguments(parser):
    """Attach the lint options to an argparse parser (shared with the
    ``prix lint`` subcommand)."""
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--format", choices=["text", "json"],
                        default="text", dest="format",
                        help="report format")
    parser.add_argument("--baseline", metavar="FILE",
                        help="JSON baseline of grandfathered findings")
    parser.add_argument("--write-baseline", metavar="FILE",
                        help="record current findings as the baseline "
                             "and exit 0")
    parser.add_argument("--rules", metavar="NAME[,NAME...]",
                        help="run only these rules")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every rule with its description")
    parser.add_argument("--prune-baseline", action="store_true",
                        help="rewrite --baseline FILE keeping only "
                             "entries that still match a finding")
    parser.add_argument("--explain", metavar="RULE",
                        help="print a rule's rationale, then exit")
    return parser


def explain_rule(rule_class, out):
    """Print one rule's rationale: description plus class docstring.

    Every rule's docstring is its design rationale -- why the invariant
    matters for the reproduction.
    """
    print(f"{rule_class.name}: {rule_class.description}", file=out)
    doc = inspect.getdoc(rule_class)
    if doc:
        print("", file=out)
        print(doc, file=out)


def run_lint(args, out=None, err=None):
    """Execute a parsed lint invocation; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    registry = rules_by_name()
    if args.list_rules:
        for name in sorted(registry):
            print(f"{name}: {registry[name].description}", file=out)
        return 0
    if args.explain:
        rule_class = registry.get(args.explain)
        if rule_class is None:
            print(f"error: unknown rule {args.explain!r} "
                  f"(try --list-rules)", file=err)
            return 2
        explain_rule(rule_class, out)
        return 0

    rules = ALL_RULES
    if args.rules:
        names = [name.strip() for name in args.rules.split(",")
                 if name.strip()]
        unknown = [name for name in names if name not in registry]
        if unknown:
            print(f"error: unknown rule(s): {', '.join(unknown)} "
                  f"(try --list-rules)", file=err)
            return 2
        rules = tuple(registry[name] for name in names)

    baseline = None
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, BaselineError) as error:
            print(f"error: {error}", file=err)
            return 2

    if args.prune_baseline and not args.baseline:
        print("error: --prune-baseline requires --baseline FILE",
              file=err)
        return 2

    result = lint_paths(args.paths, rules=rules, baseline=baseline)

    if args.prune_baseline:
        old_total = sum(baseline.values()) if baseline else 0
        write_baseline(args.baseline, result.grandfathered)
        kept = len(result.grandfathered)
        pruned = old_total - kept
        print(f"pruned {pruned} stale baseline entr"
              f"{'y' if pruned == 1 else 'ies'} from {args.baseline} "
              f"({kept} kept)", file=out)
        return 0 if not result.errors else 2

    if args.write_baseline:
        all_findings = result.findings + result.grandfathered
        count = write_baseline(args.write_baseline, all_findings)
        print(f"wrote {count} baseline entr"
              f"{'y' if count == 1 else 'ies'} to {args.write_baseline}",
              file=out)
        return 0 if not result.errors else 2

    if args.format == "json":
        out.write(render_json(result, [rule.name for rule in rules]))
    else:
        out.write(render_text(result))
    return result.exit_code


def main(argv=None):
    """Entry point for ``python -m repro.analysis``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="prixlint: static invariant checks for the PRIX "
                    "reproduction (I/O accounting, determinism, resource "
                    "safety)")
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
