"""EXPLAIN for twig queries: show how PRIX will execute a pattern.

Produces a human-readable account of the matching pipeline for one
query against one index: the optimizer's variant choice (with the label
frequencies behind it), every branch arrangement's Prufer sequence with
edge specs and MaxGap relationship kinds, the strategy the matcher's
own ``strategy="auto"`` test (:func:`~repro.prix.matcher.
rare_label_candidates`) resolves to on this index, and, when the trie
walk filters an unordered twig of several arrangements, the path it
filters on (:func:`~repro.prix.matcher.filter_path`).
"""

from __future__ import annotations

from io import StringIO

from repro.prix.matcher import filter_path, prepare, rare_label_candidates
from repro.query.xpath import parse_xpath
from repro.xmlkit.tree import VALUE_LABEL_PREFIX


def _show_label(label):
    if label is None:
        return "*"
    if label.startswith(VALUE_LABEL_PREFIX):
        return f'"{label[len(VALUE_LABEL_PREFIX):]}"'
    return label


def _show_spec(spec):
    if spec.is_plain_child:
        return "/"
    if spec.max_steps is None:
        if spec.min_steps == 1:
            return "//"
        return f"//(>={spec.min_steps})"
    return f"/(={spec.min_steps})"


def explain(index, pattern, variant=None):
    """Return a multi-line explanation of the execution plan.

    ``pattern`` is an XPath string, a twig pattern or a
    :class:`~repro.prix.matcher.PreparedQuery`.
    """
    if isinstance(pattern, str):
        pattern = parse_xpath(pattern)
    query = prepare(pattern)
    out = StringIO()
    out.write(f"query: {query.pattern.source or '(twig)'}\n")

    chosen = variant or index.choose_variant(query)
    out.write(f"variant: {chosen}")
    if query.pattern.has_values():
        out.write("  (value predicates -> EPIndex, Section 5.6)\n")
    else:
        out.write("  (value-free: first-label trie-node frequencies: ")
        parts = []
        for name in sorted(index.variants()):
            variant_index = index._variants[name]
            plan, = query.plans(variant_index.extended, ordered=True)
            first = plan.qlps[0] if plan.qlps else None
            count = variant_index.label_counts.get(first, 0)
            parts.append(f"{name}:{_show_label(first)}={count}")
        out.write(", ".join(parts) + ")\n")

    variant_index = index._variants[chosen]
    counts = variant_index.label_counts
    plans = query.plans(variant_index.extended)
    out.write(f"arrangements: {len(plans)}\n")
    for number, plan in enumerate(plans, start=1):
        labels = " ".join(_show_label(label) for label in plan.qlps)
        out.write(f"  [{number}] LPS(Q) = {labels}\n")
        out.write(f"      NPS(Q) = "
                  f"{' '.join(map(str, plan.qnps))}\n")
        specs = ", ".join(
            f"{node}{_show_spec(plan.specs[node])}"
            for node in sorted(plan.specs))
        out.write(f"      edges  = {specs}\n")
        if plan.rel_kinds:
            out.write(f"      maxgap pairs = "
                      f"{' '.join(plan.rel_kinds)}\n")

    if plans and plans[0].qlps:
        rare = min(plans[0].qlps, key=lambda label: counts.get(label, 0))
        rare_nodes = counts.get(rare, 0)
        out.write(f"rarest label: {_show_label(rare)} "
                  f"({rare_nodes} trie nodes)\n")
        candidates = rare_label_candidates(plans[0], variant_index)
        if candidates is not None:
            out.write("strategy: document-at-a-time candidate scan "
                      f"(rare label pins down {len(candidates)} "
                      "documents)\n")
        elif len(plans) == 1:
            out.write("strategy: trie traversal (Algorithm 1)\n")
        else:
            out.write("strategy: trie traversal (Algorithm 1) of the "
                      "filter path, then every arrangement inside its "
                      "documents\n")
            path, plan, nodes = filter_path(query, variant_index)
            labels = " ".join(_show_label(label) for label in plan.qlps)
            out.write(f"filter path: {path.source}  LPS = {labels}  "
                      f"(first label {_show_label(plan.qlps[0])}: "
                      f"{nodes} trie nodes)\n")
    return out.getvalue()
