"""Plain-text table rendering for the benchmark harness.

Each benchmark regenerates one table or figure of the paper; these helpers
print the measured rows next to the paper's published values so the shape
comparison (who wins, by what factor) is immediate, and append every table
to :data:`RESULTS_PATH` (``benchmarks/results.txt`` in a bench run) for the
EXPERIMENTS.md record.
"""

from __future__ import annotations

#: File every persisted table is appended to, or None (print only).
#: Set by whoever owns the file: ``benchmarks/conftest.py`` points it at
#: the ``results.txt`` beside itself (or ``REPRO_RESULTS``) and
#: truncates that at session start, so a copy of ``benchmarks/`` writes
#: its own file, not the checkout this package was imported from.
RESULTS_PATH = None


def format_table(title, headers, rows):
    """Render an aligned text table."""
    columns = [str(h) for h in headers]
    text_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in columns]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(cell.ljust(w)
                               for cell, w in zip(row, widths)))
    return "\n".join(lines)


def render_table(title, headers, rows, echo=True, persist=True):
    """Print a table and append it to the shared results file."""
    text = format_table(title, headers, rows)
    if echo:
        print("\n" + text + "\n")
    if persist and RESULTS_PATH is not None:
        try:
            with open(RESULTS_PATH, "a", encoding="utf-8") as handle:
                handle.write(text + "\n\n")
        except OSError:
            pass
    return text


def ratio(numerator, denominator):
    """Human-readable ratio with divide-by-zero care."""
    if denominator == 0:
        return "inf" if numerator else "1.0x"
    return f"{numerator / denominator:.1f}x"
