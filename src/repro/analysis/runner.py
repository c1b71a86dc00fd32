"""File discovery, orchestration and the ``prix lint`` command line.

Exit codes: 0 = clean, 1 = findings, 2 = usage error or a file that
could not be parsed.  ``prix lint`` (``repro.cli``) is the one command
line; it parses with :func:`add_lint_arguments` and runs
:func:`run_lint`.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.arch import LayeringRule, Manifest, check_layering
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
    """Stable path used in reports.

    Paths inside the working tree are reported relative to the current
    directory so the same finding reads identically whether the linter
    was invoked with relative or absolute arguments.
    """
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_paths(paths, rules=None):
    """Lint files/directories and return a :class:`LintResult`.

    Every file is parsed once; the per-file rules visit it, then
    ``layering`` runs over all parsed files at once.
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
    if LayeringRule in rules:
        findings.extend(check_layering(sources, Manifest()))
    result.findings = sorted(findings, key=lambda finding: finding.sort_key)
    return result


def add_lint_arguments(parser):
    """Attach the lint options to the ``prix lint`` subcommand's parser."""
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--format", choices=["text", "json"],
                        default="text", dest="format",
                        help="report format")
    parser.add_argument("--rules", metavar="NAME[,NAME...]",
                        help="run only these rules")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every rule with its description")
    parser.add_argument("--explain", metavar="RULE",
                        help="print a rule's rationale, then exit")
    return parser


def run_lint(args):
    """Execute a parsed lint invocation; returns the process exit code.

    ``--explain RULE`` prints the rule's class docstring: every rule's
    docstring is its design rationale -- why the invariant matters for
    the reproduction.
    """
    registry = rules_by_name()
    if args.list_rules:
        for name in sorted(registry):
            print(f"{name}: {registry[name].description}")
        return 0
    if args.explain:
        rule_class = registry.get(args.explain)
        if rule_class is None:
            print(f"error: unknown rule {args.explain!r} "
                  f"(try --list-rules)", file=sys.stderr)
            return 2
        print(f"{rule_class.name}: {rule_class.description}\n")
        print(inspect.getdoc(rule_class))
        return 0

    rules = ALL_RULES
    if args.rules:
        names = [name.strip() for name in args.rules.split(",")
                 if name.strip()]
        unknown = [name for name in names if name not in registry]
        if unknown:
            print(f"error: unknown rule(s): {', '.join(unknown)} "
                  f"(try --list-rules)", file=sys.stderr)
            return 2
        rules = tuple(registry[name] for name in names)

    result = lint_paths(args.paths, rules=rules)

    if args.format == "json":
        sys.stdout.write(render_json(result, [rule.name for rule in rules]))
    else:
        sys.stdout.write(render_text(result))
    return result.exit_code

