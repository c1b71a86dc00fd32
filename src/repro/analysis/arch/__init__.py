"""prixarch: the ``layering`` rule and the manifest it enforces.

The one whole-project prixlint rule: imports must respect the
``.prixarch.toml`` layer map -- the logical index layers reach storage
only through the storage-api seam -- with BFS-shortest witness chains
on violations (``docs/ARCHITECTURE.md``).
"""

from repro.analysis.arch.imports import module_name_for
from repro.analysis.arch.manifest import (Manifest, ManifestError,
                                          find_manifest, load_manifest,
                                          parse_manifest)
from repro.analysis.arch.rules import LayeringRule, check_layering

__all__ = [
    "LayeringRule",
    "Manifest",
    "ManifestError",
    "check_layering",
    "find_manifest",
    "load_manifest",
    "module_name_for",
    "parse_manifest",
]
