"""prixarch: the ``layering`` rule and the layer map it enforces.

The one whole-project prixlint rule: imports must respect the layer map
(:data:`~repro.analysis.arch.manifest.LAYERS` /
:data:`~repro.analysis.arch.manifest.ALLOWED`) -- the logical index
layers reach storage only through the storage-api seam -- with
BFS-shortest witness chains on violations (``docs/ARCHITECTURE.md``).
"""

from repro.analysis.arch.imports import module_name_for
from repro.analysis.arch.manifest import ALLOWED, LAYERS, Manifest
from repro.analysis.arch.rules import LayeringRule, check_layering

__all__ = [
    "ALLOWED",
    "LAYERS",
    "LayeringRule",
    "Manifest",
    "check_layering",
    "module_name_for",
]
