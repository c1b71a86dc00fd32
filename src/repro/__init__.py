"""PRIX reproduction: Indexing and Querying XML Using Prufer Sequences.

This package is a full, from-scratch Python reproduction of the PRIX system
(Rao and Moon, ICDE 2004) together with every substrate the paper depends on:

- :mod:`repro.xmlkit` -- XML parser (on expat) and an ordered labeled tree model,
- :mod:`repro.datasets` -- synthetic DBLP/SWISSPROT/TREEBANK-like corpora,
- :mod:`repro.storage` -- paged storage, buffer pool and a disk-based B+-tree,
- :mod:`repro.prufer` -- Prufer sequence construction and reconstruction,
- :mod:`repro.trie` -- containment labeling of the virtual trie, streamed
  from the sorted sequences,
- :mod:`repro.prix` -- the PRIX index and the filter/refine query pipeline,
- :mod:`repro.query` -- an XPath-subset parser producing twig patterns,
- :mod:`repro.baselines` -- ViST, TwigStack and TwigStackXB,
- :mod:`repro.bench` -- the experiment harness regenerating every table/figure.

Quickstart::

    from repro import PrixIndex, parse_xpath
    from repro.datasets import dblp

    corpus = dblp(n_records=500, seed=7)
    index = PrixIndex.build(corpus.documents)
    matches = index.query(parse_xpath('//inproceedings[./author="A. Turing"]'))
"""

import os as _os

from repro.prix.index import PrixIndex
from repro.prix.matcher import TwigMatch
from repro.query.xpath import parse_xpath
from repro.query.twig import TwigPattern, TwigNode, Axis
from repro.xmlkit.parser import parse_document
from repro.xmlkit.tree import Document, XMLNode

__all__ = [
    "Axis",
    "Document",
    "PrixIndex",
    "TwigMatch",
    "TwigNode",
    "TwigPattern",
    "XMLNode",
    "parse_document",
    "parse_xpath",
]

__version__ = "1.0.0"

# PRIX_SANITIZE=1 turns on the runtime resource-protocol sanitizer for
# the whole process (see repro.analysis.sanitizer) -- CI runs one test
# shard this way so flush, WAL and latch discipline is asserted
# dynamically too.
if _os.environ.get("PRIX_SANITIZE", "") not in ("", "0"):
    from repro.analysis.sanitizer import enable as _enable_sanitizer
    _enable_sanitizer()
