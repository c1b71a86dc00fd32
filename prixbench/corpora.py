"""Corpora the workloads run on, pinned by content hash.

Documents come from ``repro.datasets.get_corpus`` (deterministic
generators); the hash of their serialized XML is recorded in
``prixbench/expected/corpora.json``.  A drifted generator would silently
change every timing and every expected answer, so :func:`check_pinned`
fails the run before anything is timed.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

from prixbench import BENCH_DIR
from repro.datasets import get_corpus
from repro.xmlkit.serializer import serialize

PINNED_PATH = os.path.join(BENCH_DIR, "expected", "corpora.json")

#: Document counts per (scale, corpus key).  ``full`` is what the driver
#: measures; ``tiny`` exists for the self-tests.  ``swissprot_shard`` is
#: the corpus ``shard4_scatter`` splits four ways.
SIZES = {
    "full": {"dblp": 2000, "swissprot": 600, "treebank": 800,
             "swissprot_shard": 1200},
    "tiny": {"dblp": 120, "swissprot": 40, "treebank": 60,
             "swissprot_shard": 80},
}


class CorpusDriftError(RuntimeError):
    """A generated corpus no longer matches its pinned hash."""


@dataclass
class CorpusData:
    """One generated corpus plus the facts the workloads need about it."""

    key: str
    scale: str
    documents: list
    texts: list          # serialized XML per document, in order
    xml_bytes: int
    sha256: str

    @property
    def pin_name(self):
        return f"{self.key}-{self.scale}"


def generator_name(key):
    """The ``repro.datasets`` generator behind a corpus key."""
    return key.split("_")[0]


def generate(key, scale):
    """Only the documents (the part of corpus loading set-up pays)."""
    return get_corpus(generator_name(key), SIZES[scale][key]).documents


def load(key, scale):
    """Generate a corpus and derive its serialized size and hash."""
    documents = generate(key, scale)
    texts = [serialize(document) for document in documents]
    digest = hashlib.sha256()
    xml_bytes = 0
    for text in texts:
        raw = text.encode("utf-8")
        xml_bytes += len(raw)
        digest.update(raw)
        digest.update(b"\n")
    return CorpusData(key, scale, documents, texts, xml_bytes,
                      digest.hexdigest())


def read_pinned():
    with open(PINNED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check_pinned(corpus):
    """Raise :class:`CorpusDriftError` unless the corpus hash is pinned."""
    expected = read_pinned().get(corpus.pin_name)
    if expected != corpus.sha256:
        raise CorpusDriftError(
            f"corpus {corpus.pin_name} hashes to {corpus.sha256[:16]}..., "
            f"prixbench/expected pins {str(expected)[:16]}...; the "
            "generators changed, so pinned answers no longer apply "
            "(re-pin with `python -m prixbench pin`)")
