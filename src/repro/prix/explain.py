"""EXPLAIN for twig queries: print the :class:`~repro.prix.matcher.Route`
the planner decides for a pattern on an index -- the one the matcher
runs: the variant and why, every branch arrangement's Prufer sequence
with edge specs and MaxGap relationship kinds, and what drives
Algorithm 1.
"""

from __future__ import annotations

from io import StringIO

from repro.prix.matcher import plan_route, prepare
from repro.query.xpath import parse_xpath
from repro.xmlkit.tree import VALUE_LABEL_PREFIX


def _show_label(label):
    if label.startswith(VALUE_LABEL_PREFIX):
        return f'"{label[len(VALUE_LABEL_PREFIX):]}"'
    return label


def _show_spec(spec):
    if spec.is_plain_child:
        return "/"
    if spec.max_steps is not None:
        return f"/(={spec.min_steps})"
    return "//" if spec.min_steps == 1 else f"//(>={spec.min_steps})"


def explain(index, pattern, variant=None):
    """The route ``pattern`` (an XPath string, twig pattern or
    :class:`~repro.prix.matcher.PreparedQuery`) takes on ``index``, as
    text; ``variant`` forces one, as in a query."""
    if isinstance(pattern, str):
        pattern = parse_xpath(pattern)
    query = prepare(pattern)
    route = plan_route(query, index._variants, variant)
    out = StringIO()
    out.write(f"query: {query.pattern.source or '(twig)'}\n")
    why = route.why
    if route.first_labels:
        why += ": " + ", ".join(f"{name}:{_show_label(label)}={nodes}"
                                for name, label, nodes in route.first_labels)
    out.write(f"variant: {route.variant}  ({why})\n")

    out.write(f"arrangements: {len(route.plans)}\n")
    for number, plan in enumerate(route.plans, start=1):
        labels = " ".join(_show_label(label) for label in plan.qlps)
        specs = ", ".join(f"{node}{_show_spec(plan.specs[node])}"
                          for node in sorted(plan.specs))
        out.write(f"  [{number}] LPS(Q) = {labels}\n"
                  f"      NPS(Q) = {' '.join(map(str, plan.qnps))}\n"
                  f"      edges  = {specs}\n")
        if plan.rel_kinds:
            out.write(f"      maxgap pairs = "
                      f"{' '.join(plan.rel_kinds)}\n")

    label, nodes, documents = route.rare
    out.write(f"rarest label: {_show_label(label)} ({nodes} trie nodes)\n")
    if route.walked is None:
        out.write("strategy: document-at-a-time candidate scan "
                  f"(rare label pins down {len(documents)} documents)\n")
    elif route.path is None:
        out.write("strategy: trie traversal (Algorithm 1)\n")
    else:
        out.write("strategy: trie traversal (Algorithm 1) of the "
                  "filter path, then every arrangement inside its "
                  "documents\n")
        labels = " ".join(_show_label(label) for label in route.walked.qlps)
        out.write(f"filter path: {route.path.source}  LPS = {labels}  "
                  f"(first label {_show_label(route.walked.qlps[0])}: "
                  f"{route.path_nodes} trie nodes)\n")
    return out.getvalue()
