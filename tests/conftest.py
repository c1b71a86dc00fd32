"""Shared fixtures for the test suite."""

import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from repro.datasets import (dblp, figure1_documents, figure2_document,
                            swissprot, treebank)
from repro.prix.index import PrixIndex
from repro.storage.backend import DEFAULT_PAGE_SIZE, open_backend
from repro.xmlkit.tree import Document, XMLNode


@pytest.fixture(params=["file", "arena"])
def make_backend(request, tmp_path):
    """Factory for the parametrized page substrates.

    Storage tests taking this fixture run twice -- once with the one
    :class:`Pager` holding a real file (``file``), once holding an
    in-memory buffer (``arena``) -- asserting the substrates are
    observationally identical: same page contents, same ``IOStats``
    movements, same typed errors.  The fixture owns every backend it
    hands out and closes them at teardown; ``factory.kind`` exposes
    which substrate the current parametrization runs on.
    """
    opened = []

    def factory(page_size=DEFAULT_PAGE_SIZE, pool_pages=8, guard=False):
        path = (str(tmp_path / f"backend{len(opened)}.db")
                if request.param == "file" else None)
        backend = open_backend(path, page_size, pool_pages=pool_pages,
                               guard=guard)
        opened.append(backend)
        return backend

    factory.kind = request.param
    yield factory
    for backend in opened:
        backend.close()


@pytest.fixture(scope="session")
def fig2_doc():
    """The paper's Figure 2(a) tree."""
    return figure2_document()


@pytest.fixture(scope="session")
def fig1_docs():
    return figure1_documents()


@pytest.fixture(scope="session")
def tiny_dblp():
    return dblp(n_records=120)


@pytest.fixture(scope="session")
def tiny_swissprot():
    return swissprot(n_entries=40)


@pytest.fixture(scope="session")
def tiny_treebank():
    return treebank(n_sentences=60)


@pytest.fixture(scope="session")
def tiny_indexes(tiny_dblp, tiny_swissprot, tiny_treebank):
    """PRIX indexes over the three tiny corpora."""
    return {
        "dblp": PrixIndex.build(tiny_dblp.documents),
        "swissprot": PrixIndex.build(tiny_swissprot.documents),
        "treebank": PrixIndex.build(tiny_treebank.documents),
    }
