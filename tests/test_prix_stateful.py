"""Stateful property test: an index maintained by inserts and deletes is
always equivalent to one built from scratch over the same documents.

The probe queries run after *every* step against the same live index,
so each step -- a delete, a re-insert of the same tree under a fresh id,
a ``save()`` that appends the catalog to the record pages -- happens
with the decoded document views of the previous probes still memoised
on their resident pages.  A view that went stale across a mutation
shows up as a disagreement with ``baselines.naive``.
"""

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from helpers import make_random_tree
from repro.baselines.naive import naive_matches
from repro.prix.incremental import RebuildRequiredError
from repro.prix.index import IndexOptions, PrixIndex
from repro.query.xpath import parse_xpath
from repro.xmlkit.tree import Document

PROBE_QUERIES = [parse_xpath(xpath) for xpath in
                 ("//a/b", "//a//c", "//b[./a]", "//c/*", '//a[./d="v1"]',
                  "//d//d")]

DYNAMIC = IndexOptions(labeler="dynamic", alpha=4)


def answers(index, pattern):
    return {(m.doc_id, m.canonical) for m in index.query(pattern)}


class IndexMaintenanceMachine(RuleBasedStateMachine):
    """Insert/delete random documents; the live index must always agree
    with a from-scratch build over the current document set."""

    @initialize(seed=st.integers(min_value=0, max_value=2 ** 31))
    def setup(self, seed):
        self.rng = random.Random(seed)
        self.documents = {}
        self.next_id = 1
        first = self._new_document()
        self.index = PrixIndex.build([first], DYNAMIC)
        self.documents[first.doc_id] = first

    def _new_document(self):
        document = Document(
            make_random_tree(self.rng, max_nodes=10, tags="abcd",
                             values=("v1", "v2")),
            doc_id=self.next_id)
        self.next_id += 1
        return document

    @rule()
    def insert(self):
        document = self._new_document()
        try:
            self.index.insert_document(document)
            self.documents[document.doc_id] = document
        except RebuildRequiredError:
            # Documented recovery path: the record is already cataloged,
            # so the rebuilt index contains the document.
            self.documents[document.doc_id] = document
            self.index = self.index.rebuilt(DYNAMIC)

    @precondition(lambda self: len(self.documents) > 1)
    @rule()
    def delete(self):
        doc_id = self.rng.choice(sorted(self.documents))
        self.index.delete_document(doc_id)
        del self.documents[doc_id]

    @precondition(lambda self: len(self.documents) > 1)
    @rule()
    def reinsert_under_fresh_id(self):
        """The same tree comes back as a new document: its old record
        (and any memoised view of it) must not answer for the new id."""
        doc_id = self.rng.choice(sorted(self.documents))
        self.index.delete_document(doc_id)
        root = self.documents.pop(doc_id).root
        document = Document(root, doc_id=self.next_id)
        self.next_id += 1
        self.documents[document.doc_id] = document
        try:
            self.index.insert_document(document)
        except RebuildRequiredError:
            self.index = self.index.rebuilt(DYNAMIC)

    @rule()
    def save(self):
        """Appends the catalog blob to the current record page and
        rewrites the superblock, under warm views."""
        self.index.save()

    @rule()
    def rebuild(self):
        if self.documents:
            self.index = self.index.rebuilt(DYNAMIC)

    @invariant()
    def agrees_with_fresh_build(self):
        if not self.documents:
            return
        fresh = PrixIndex.build(list(self.documents.values()), DYNAMIC)
        for pattern in PROBE_QUERIES:
            live = answers(self.index, pattern)
            assert live == answers(fresh, pattern)
            assert live == {(document.doc_id, embedding)
                            for document in self.documents.values()
                            for embedding in naive_matches(document,
                                                           pattern)}


IndexMaintenanceMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=8, deadline=None)
TestIndexMaintenance = IndexMaintenanceMachine.TestCase
