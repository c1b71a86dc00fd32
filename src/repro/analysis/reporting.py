"""Text and JSON reporters for lint results."""

from __future__ import annotations

import json
from collections import Counter


def render_text(result):
    """Human-readable report, one line per finding plus a summary."""
    lines = []
    for finding in result.findings:
        lines.append(f"{finding.path}:{finding.line}:{finding.col + 1}: "
                     f"{finding.rule}: {finding.message}")
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    for path, message in result.errors:
        lines.append(f"{path}: error: {message}")
    summary = (f"{len(result.findings)} finding(s) in "
               f"{result.files_checked} file(s)")
    if result.errors:
        summary += f", {len(result.errors)} error(s)"
    lines.append(summary)
    return "\n".join(lines) + "\n"


def render_json(result, rule_names=()):
    """Machine-readable report mirroring the text reporter's content.

    ``rule_counts`` tallies the findings per rule.  Every rule in
    ``rule_names`` -- the rules the run applied -- is present, zero
    included, so the CI lint artifact shows each check ran even on a
    clean tree.
    """
    counts = Counter(dict.fromkeys(rule_names, 0))
    counts.update(f.rule for f in result.findings)
    document = {
        "files_checked": result.files_checked,
        "findings": [finding.as_dict() for finding in result.findings],
        "errors": [{"path": path, "message": message}
                   for path, message in result.errors],
        "rule_counts": dict(counts),
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
