"""Import-graph extraction and the layering check.

:func:`module_name_for` maps a source path to a dotted module name (the
``repro`` package root anchors the name; files outside it are known by
their bare stem).  :func:`collect_imports` pulls every ``import`` /
``from ... import`` out of a parsed tree, including function-local
imports -- a lazy import is still an architectural dependency, and the
ones that are deliberate escape hatches carry an inline
``# prixlint: disable=layering`` where reviewers can see them.

:func:`layering_violations` walks the project import graph from every
layered module.  An edge into the module's own layer or into a layer it
is allowed to depend on is sanctioned and traversal *stops* there (the
doorway's own dependencies are the doorway's business); an edge into an
unlayered module keeps the search going, because an indirect dependency
laundered through helper modules is still a violation.  Reaching any
other layered module reports the BFS-shortest witness chain, so the
finding shows exactly how the forbidden layer is reached.
"""

from __future__ import annotations

import ast
from collections import deque
from pathlib import PurePath


def module_name_for(path):
    """Dotted module name for a file path.

    ``src/repro/storage/pager.py`` -> ``repro.storage.pager``;
    ``__init__.py`` names the package itself.  Files outside a
    ``repro`` package root fall back to their bare stem, which keeps
    test fixtures addressable by test-local layer maps.
    """
    parts = list(PurePath(path).parts)
    stem = PurePath(parts[-1]).stem
    try:
        root = parts.index("repro")
    except ValueError:
        return stem
    dotted = parts[root:-1] + ([] if stem == "__init__" else [stem])
    return ".".join(dotted)


class ImportEdge:
    """One import statement: target module, location, resolution hints."""

    __slots__ = ("target", "lineno", "col", "member")

    def __init__(self, target, lineno, col, member=None):
        self.target = target        # dotted module named by the import
        self.lineno = lineno
        self.col = col
        self.member = member        # from X import <member>, else None

    def __repr__(self):             # pragma: no cover - debugging aid
        return f"ImportEdge({self.target!r}, line {self.lineno})"


def _resolve_relative(module, level, current_module, is_package):
    """Absolute module for a ``from ...X import Y`` with ``level`` dots."""
    parts = current_module.split(".")
    # A package's first dot refers to itself; a module's to its parent.
    keep = len(parts) - level + (1 if is_package else 0)
    if keep < 0:
        return module or ""
    base = parts[:keep]
    if module:
        base.append(module)
    return ".".join(base)


def collect_imports(tree, current_module, is_package=False):
    """All import edges in ``tree``, including nested/function-local ones."""
    edges = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                edges.append(ImportEdge(alias.name, node.lineno,
                                        node.col_offset))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                target = _resolve_relative(node.module, node.level,
                                           current_module, is_package)
            else:
                target = node.module or ""
            if not target:
                continue
            for alias in node.names:
                edges.append(ImportEdge(target, node.lineno,
                                        node.col_offset, member=alias.name))
    return edges


def resolve_edge_target(edge, known_modules):
    """The project module an edge lands on, or None for external imports.

    ``from repro.storage import pager`` names the submodule when it is
    part of the project; otherwise the import binds an attribute of the
    package and the dependency is on the package itself.  Plain
    ``import a.b.c`` depends on the full dotted path, but when only a
    prefix of it is a project module (namespace tricks) the longest
    known prefix wins.
    """
    if edge.member is not None:
        submodule = f"{edge.target}.{edge.member}"
        if submodule in known_modules:
            return submodule
    parts = edge.target.split(".")
    for width in range(len(parts), 0, -1):
        candidate = ".".join(parts[:width])
        if candidate in known_modules:
            return candidate
    return None


def build_import_graph(modules):
    """Project-internal adjacency: module -> {target: first ImportEdge}.

    ``modules`` maps dotted names to lists of :class:`ImportEdge`.
    External (stdlib/third-party) targets are dropped; parallel edges
    keep only the earliest import site for stable witness reporting.
    """
    known = set(modules)
    graph = {}
    for name, edges in modules.items():
        adjacency = {}
        for edge in sorted(edges, key=lambda e: (e.lineno, e.col)):
            target = resolve_edge_target(edge, known)
            if target is None or target == name:
                continue
            adjacency.setdefault(target, edge)
        graph[name] = adjacency
    return graph


def layering_violations(graph, manifest):
    """Shortest forbidden-dependency chains under ``manifest``.

    Yields ``(module, chain, edge)`` where ``chain`` is the module list
    from the violating module to the forbidden one (inclusive) and
    ``edge`` is the import statement in ``module`` that starts the
    chain -- the line the finding anchors to.
    """
    violations = []
    for module in sorted(graph):
        layer = manifest.layer_of(module)
        if layer is None:
            continue
        allowed = manifest.allowed[layer]
        # BFS over edges; stop at sanctioned layered modules, pass
        # through unlayered ones, report the first hit per target.
        queue = deque([(module, (module,))])
        seen = {module}
        reported = set()
        while queue:
            current, chain = queue.popleft()
            for target in sorted(graph.get(current, ())):
                if target in seen:
                    continue
                seen.add(target)
                target_layer = manifest.layer_of(target)
                next_chain = chain + (target,)
                if target_layer is None:
                    queue.append((target, next_chain))
                    continue
                if target_layer == layer or target_layer in allowed:
                    continue
                if target_layer not in reported:
                    reported.add(target_layer)
                    first_edge = graph[module][next_chain[1]]
                    violations.append((module, next_chain, first_edge))
    return violations
