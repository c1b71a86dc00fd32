"""``python -m prixbench compare A.json B.json``.

One row per (end-to-end metric, workload): both medians, both spreads
and a verdict by the metric's bound in ``BENCHMARK.json``:

- ``worse``: B's median is worse than A's by more than the bound;
- ``better``: B's median is better than A's by more than the bound;
- ``unresolved``: either side's inter-quartile spread is wider than the
  bound, so a difference of that size could be noise -- never ``same``;
- ``same``: otherwise.

Exits non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json

from prixbench import runner


def _load(path):
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    return {report["workload"]: report["end_to_end"]
            for report in document["reports"] if not report["trace"]}


def verdict(metric, before, after):
    """Judge one (metric, workload) pair of ``{median, iqr}`` rows."""
    bound = metric["bound"]
    base = abs(before["median"])
    if base == 0:
        return "same" if after["median"] == 0 else "unresolved"
    change = (after["median"] - before["median"]) / base
    if metric["better"] == "higher":
        change = -change
    if change > bound:
        return "worse"
    spread = max(before["iqr"] / base,
                 after["iqr"] / abs(after["median"] or base))
    if spread > bound:
        return "unresolved"
    return "better" if change < -bound else "same"


def main(path_a, path_b):
    spec = runner.benchmark_spec()
    side_a, side_b = _load(path_a), _load(path_b)
    counts = {}
    print(f"{'workload':16s} {'metric':28s} {'A':>12s} {'B':>12s} "
          f"{'change':>8s} {'iqr A':>7s} {'iqr B':>7s} {'bound':>6s}  verdict")
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in side_a or name not in side_b:
            continue
        for metric in spec["end_to_end"]:
            before = side_a[name][metric["name"]]
            after = side_b[name][metric["name"]]
            result = verdict(metric, before, after)
            counts[result] = counts.get(result, 0) + 1
            base = abs(before["median"]) or 1.0
            print(f"{name:16s} {metric['name']:28s} "
                  f"{before['median']:12.4f} {after['median']:12.4f} "
                  f"{(after['median'] - before['median']) / base:+8.1%} "
                  f"{before['iqr'] / base:7.1%} "
                  f"{after['iqr'] / (abs(after['median']) or 1.0):7.1%} "
                  f"{metric['bound']:6.1%}  {result}")
    print(", ".join(f"{count} {result}"
                    for result, count in sorted(counts.items())))
    return 1 if counts.get("worse") else 0
