"""The ``layering`` rule: the one whole-project prixlint rule.

Unlike the per-file AST rules it needs every analyzed file at once (the
import graph spans modules), so the runner hands all parsed sources to
:func:`check_layering` after the per-file pass.  :class:`LayeringRule`
subclasses :class:`~repro.analysis.core.Rule` only to share the
registry, the ``--rules`` selector, ``--explain`` and suppression
comments.
"""

from __future__ import annotations

from pathlib import PurePath

from repro.analysis.arch.imports import (build_import_graph, collect_imports,
                                         layering_violations,
                                         module_name_for)
from repro.analysis.core import Finding, Rule


class LayeringRule(Rule):
    """Enforce the layer map over the import graph.

    The map is code: ``LAYERS`` and ``ALLOWED`` in
    ``repro.analysis.arch.manifest``.  A module in a layer may import
    its own layer and the layers ``ALLOWED`` lists for it -- reaching
    any other layer, directly or laundered through unlayered helper
    modules, is a violation.  The finding shows the BFS-shortest
    witness import chain and anchors at the import statement that
    starts it.  Deliberate exceptions carry
    ``# prixlint: disable=layering`` on the import line.
    """

    name = "layering"
    description = ("imports must respect the layer map "
                   "(logical code reaches storage only via storage-api)")

    def applies_to(self, source):
        return False        # whole-project: see check_layering


def check_layering(sources, manifest):
    """Layering findings over parsed ``sources`` under ``manifest``.

    Same suppression semantics as the per-file pass: an inline
    ``# prixlint: disable=layering`` on the anchored import line (or a
    file-level directive) silences the finding.
    """
    by_module = {module_name_for(source.path): source for source in sources}
    graph = build_import_graph({
        name: collect_imports(
            source.tree, name,
            is_package=PurePath(source.path).name == "__init__.py")
        for name, source in by_module.items()})
    findings = []
    for module, chain, edge in layering_violations(graph, manifest):
        layer = manifest.layer_of(module)
        allowed = manifest.allowed[layer]
        source = by_module[module]
        finding = Finding(
            rule=LayeringRule.name, path=source.path, line=edge.lineno,
            col=edge.col, snippet=source.snippet(edge.lineno),
            message=(f"layer '{layer}' module reaches layer "
                     f"'{manifest.layer_of(chain[-1])}' "
                     f"({' -> '.join(chain)}); '{layer}' may only import: "
                     f"{', '.join(sorted(allowed)) or 'nothing'}"))
        if not source.is_suppressed(finding):
            findings.append(finding)
    return sorted(findings, key=lambda finding: finding.sort_key)
