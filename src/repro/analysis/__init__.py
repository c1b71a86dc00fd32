"""prixlint: AST-based invariant checks for the PRIX reproduction.

The paper's headline numbers rest on invariants Python cannot express in
types: page traffic must flow through the :class:`Pager` so the
"Disk IO pages" columns stay truthful, every RNG must be explicitly
seeded so corpora are reproducible, and storage handles must be flushed
so benchmarks measure real pages.  This package enforces them
statically; see ``docs/ANALYSIS.md`` for the rule catalogue.

Programmatic use::

    from repro.analysis import ALL_RULES, lint_paths
    result = lint_paths(["src/repro"])
    assert not result.findings

Command line: ``prix lint [paths]``.
"""

from repro.analysis.core import (Finding, Rule, SourceFile, check_source)
from repro.analysis.runner import (ALL_RULES, LintResult, lint_paths,
                                   rules_by_name)

__all__ = [
    "ALL_RULES", "Finding", "LintResult", "Rule", "SourceFile",
    "check_source", "lint_paths", "rules_by_name",
]
