"""The layer map the ``layering`` rule enforces (``docs/ARCHITECTURE.md``).

:data:`LAYERS` names each layer's dotted module prefixes and
:data:`ALLOWED` the other layers each may import.  Layer membership is
by *longest dotted-prefix match*: a module belongs to the layer whose
listed prefix matches the most leading components of its dotted name
(``repro.storage.pager`` is storage-impl even though ``repro.storage``
is storage-api).  Modules matching no prefix (``repro.cli``,
``repro.datasets``, ``repro.bench``, ``repro.baselines``,
``repro.analysis``, tests, benchmarks, examples) are unlayered: they
carry no import constraints themselves, but the layering rule
traverses *through* them when hunting indirect violations.
"""

from __future__ import annotations

#: layer -> dotted module prefixes.
LAYERS = {
    # Pure algorithmic core: Prufer sequences and the XML toolkit.
    "foundation": ("repro.xmlkit", "repro.prufer"),
    # The logical index layers of the paper: virtual trie, PRIX index
    # and query processor.
    "logical": ("repro.trie", "repro.prix", "repro.query"),
    # The sanctioned doorway: the one backend class and open_backend,
    # the B+-tree / record-store page layouts, codecs, typed errors and
    # I/O statistics.
    "storage-api": ("repro.storage", "repro.storage.backend",
                    "repro.storage.bptree", "repro.storage.records",
                    "repro.storage.codec", "repro.storage.errors",
                    "repro.storage.stats"),
    # The prix serve process (docs/SERVING.md).
    "serving": ("repro.serve",),
    # Shard catalog, parallel builder, scatter-gather, rebalance
    # (docs/SHARDING.md): mounted *by* serving, never importing it.
    "shard": ("repro.shard",),
    # Physical substrate: pagers, buffer pool, WAL, checksum guard,
    # recovery, latches, fault injection.  Nothing above storage-api
    # may name these modules.
    "storage-impl": ("repro.storage.pager", "repro.storage.buffer_pool",
                     "repro.storage.wal", "repro.storage.guard",
                     "repro.storage.recovery", "repro.storage.latch",
                     "repro.storage.faults"),
}

#: layer -> the other layers its modules may import.
ALLOWED = {
    "foundation": (),
    "logical": ("foundation", "storage-api"),
    "storage-api": ("storage-impl",),
    "serving": ("foundation", "logical", "storage-api", "shard"),
    "shard": ("foundation", "logical", "storage-api"),
    "storage-impl": ("storage-api",),
}


class Manifest:
    """Layer lookup over a layer map -- the shipped one by default."""

    def __init__(self, layers=LAYERS, allowed=ALLOWED):
        #: layer -> the other layers its modules may import
        self.allowed = allowed
        self._prefix_to_layer = {prefix: name
                                 for name, prefixes in layers.items()
                                 for prefix in prefixes}

    def layer_of(self, module):
        """Layer name for a dotted module, or None when unlayered."""
        parts = module.split(".")
        for width in range(len(parts), 0, -1):
            layer = self._prefix_to_layer.get(".".join(parts[:width]))
            if layer is not None:
                return layer
        return None
