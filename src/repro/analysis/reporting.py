"""Text and JSON reporters for lint results."""

from __future__ import annotations

import json
from collections import Counter


def render_text(result, show_grandfathered=False):
    """Human-readable report, one line per finding plus a summary."""
    lines = []
    for finding in result.findings:
        lines.append(f"{finding.path}:{finding.line}:{finding.col + 1}: "
                     f"{finding.rule}: {finding.message}")
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    if show_grandfathered:
        for finding in result.grandfathered:
            lines.append(f"{finding.path}:{finding.line}:{finding.col + 1}: "
                         f"{finding.rule}: [baseline] {finding.message}")
    for path, message in result.errors:
        lines.append(f"{path}: error: {message}")
    summary = (f"{len(result.findings)} finding(s) in "
               f"{result.files_checked} file(s)")
    if result.grandfathered:
        summary += f", {len(result.grandfathered)} grandfathered by baseline"
    if result.errors:
        summary += f", {len(result.errors)} error(s)"
    lines.append(summary)
    return "\n".join(lines) + "\n"


def render_json(result, rule_names=()):
    """Machine-readable report mirroring the text reporter's content.

    ``rule_counts`` tallies every rule that fired (new and
    grandfathered findings both count -- the number answers "how much
    of this pattern exists", not "how much is new").  Every rule in
    ``rule_names`` -- the rules the run applied -- is present, zero
    included, so the CI lint artifact shows each check ran even on a
    clean tree.
    """
    counts = Counter(dict.fromkeys(rule_names, 0))
    counts.update(f.rule for f in result.findings)
    counts.update(f.rule for f in result.grandfathered)
    document = {
        "files_checked": result.files_checked,
        "findings": [finding.as_dict() for finding in result.findings],
        "grandfathered": [finding.as_dict()
                          for finding in result.grandfathered],
        "errors": [{"path": path, "message": message}
                   for path, message in result.errors],
        "rule_counts": dict(counts),
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
