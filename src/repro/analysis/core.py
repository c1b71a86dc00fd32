"""Core machinery of ``prixlint``: findings, rules, suppressions.

The linter is a thin framework over :mod:`ast`.  A :class:`SourceFile`
parses one module and collects its suppression comments; a :class:`Rule`
is an ``ast.NodeVisitor`` that emits :class:`Finding` objects while it
walks the tree; :func:`check_source` runs every applicable rule over one
file and filters out suppressed findings.

Suppression syntax (checked against the physical line a finding is
reported on)::

    handle = open(path)        # prixlint: disable=no-raw-io
    rng = random.Random()      # prixlint: disable=seeded-rng,no-raw-io
    frame = open(path).read()  # prixlint: disable=all

A whole file can opt out of a rule with a comment anywhere in it::

    # prixlint: disable-file=resource-safety
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import PurePath

#: A per-line directive: one or more comma-separated rule names.
_LINE_SUPPRESS = re.compile(r"#\s*prixlint:\s*disable=([A-Za-z0-9_,\- ]+)")
#: A whole-file directive, matched anywhere in the file.
_FILE_SUPPRESS = re.compile(r"#\s*prixlint:\s*disable-file=([A-Za-z0-9_,\- ]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""

    @property
    def sort_key(self):
        return (self.path, self.line, self.col, self.rule)

    @property
    def baseline_key(self):
        """Line-number-independent identity used by the baseline file.

        Keyed on (rule, path, snippet) so a grandfathered finding stays
        matched when unrelated edits shift it to a different line.
        """
        return (self.rule, self.path, self.snippet)

    def as_dict(self):
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "col": self.col, "message": self.message,
                "snippet": self.snippet}


def _split_rules(text):
    return {name.strip() for name in text.split(",") if name.strip()}


class SourceFile:
    """A parsed module plus its suppression directives."""

    def __init__(self, path, text):
        self.path = str(path)
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=self.path)
        self.file_suppressions = set()
        self.line_suppressions = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _FILE_SUPPRESS.search(line)
            if match:
                self.file_suppressions |= _split_rules(match.group(1))
                continue
            match = _LINE_SUPPRESS.search(line)
            if match:
                self.line_suppressions[lineno] = _split_rules(match.group(1))

    def snippet(self, lineno):
        """The stripped physical line a finding points at."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def is_suppressed(self, finding):
        """True when a directive silences this finding."""
        for scope in (self.file_suppressions,
                      self.line_suppressions.get(finding.line, ())):
            if "all" in scope or finding.rule in scope:
                return True
        return False

    @property
    def parts(self):
        """Path components, used by rules that scope themselves by package."""
        return PurePath(self.path).parts


class Rule(ast.NodeVisitor):
    """Base class for one lint rule.

    Subclasses set :attr:`name` / :attr:`description`, override
    ``visit_*`` methods, and call :meth:`report` for each violation.  A
    fresh instance is created per file, so visitors may keep per-file
    state in ``__init__`` without cross-file leakage.
    """

    name = ""
    description = ""

    def __init__(self):
        self.source = None
        self.findings = []

    def applies_to(self, source):
        """Whether this rule should run over ``source`` at all."""
        return True

    def run(self, source):
        """Visit the file's AST and return the findings."""
        self.source = source
        self.findings = []
        self.visit(source.tree)
        return self.findings

    def report(self, node, message):
        """Record a violation anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        self.findings.append(Finding(
            rule=self.name, path=self.source.path, line=line, col=col,
            message=message, snippet=self.source.snippet(line)))


def path_in_packages(source, packages):
    """True when the file lives under one of the dotted package paths.

    ``packages`` is an iterable of part-tuples such as
    ``(("repro", "storage"), ("repro", "trie"))``; matching is by
    consecutive path components so both repository-relative and absolute
    paths resolve the same way.
    """
    parts = source.parts
    for package in packages:
        width = len(package)
        for start in range(len(parts) - width + 1):
            if parts[start:start + width] == package:
                return True
    return False


class ImportTracker:
    """Resolves which local names refer to a watched stdlib module.

    Rules that care about ``os``/``io``/``random`` mix this in to map
    aliases (``import random as rnd``) and from-imports
    (``from os import remove as rm``) back to canonical
    ``module.function`` pairs.
    """

    watched_modules = ()

    def __init__(self):
        super().__init__()
        #: local alias -> module name (``rnd`` -> ``random``)
        self.module_aliases = {}
        #: local name -> (module, original function name)
        self.imported_members = {}

    def visit_Import(self, node):
        for alias in node.names:
            if alias.name in self.watched_modules:
                self.module_aliases[alias.asname or alias.name] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module in self.watched_modules:
            for alias in node.names:
                self.imported_members[alias.asname or alias.name] = (
                    node.module, alias.name)
        self.generic_visit(node)

    def resolve_call(self, node):
        """Map a ``Call`` node to ``(module, function)`` or ``None``."""
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                          ast.Name):
            module = self.module_aliases.get(func.value.id)
            if module is not None:
                return module, func.attr
        if isinstance(func, ast.Name):
            member = self.imported_members.get(func.id)
            if member is not None:
                return member
        return None


def check_source(source, rule_classes):
    """Run every applicable rule over one file; returns sorted findings."""
    findings = []
    for rule_class in rule_classes:
        rule = rule_class()
        if not rule.applies_to(source):
            continue
        findings.extend(finding for finding in rule.run(source)
                        if not source.is_suppressed(finding))
    return sorted(findings, key=lambda finding: finding.sort_key)
