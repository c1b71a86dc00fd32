"""Stateful property test: an index maintained by inserts and deletes is
always equivalent to one built from scratch over the same documents.

The probe queries run after *every* step against the same live index,
so each step -- a delete, a re-insert of the same tree under a fresh id,
a ``save()`` that appends the catalog to the record pages -- happens
with the decoded document views of the previous probes still memoised
on their resident pages.  A view that went stale across a mutation
shows up as a disagreement with ``baselines.naive``.

The file-backed twin runs the same rules on a durable index and adds
``reopen``: every ``save()`` after the first appends only what changed,
chained to the record before it, and what ``PrixIndex.open`` folds back
out of that chain must be the live object's catalog, field for field.
"""

import os
import random
import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from helpers import catalog_state, make_random_tree
from repro.baselines.naive import naive_matches
from repro.prix.incremental import RebuildRequiredError
from repro.prix.index import IndexOptions, PrixIndex
from repro.query.xpath import parse_xpath
from repro.xmlkit.tree import Document, XMLNode

PROBE_QUERIES = [parse_xpath(xpath) for xpath in
                 ("//a/b", "//a//c", "//b[./a]", "//c/*", '//a[./d="v1"]',
                  "//d//d")]

DYNAMIC = IndexOptions(labeler="dynamic")


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
        self.index = PrixIndex.build([first], self.options())
        self.documents[first.doc_id] = first

    def options(self):
        """Build options of the next index this machine lays out."""
        return DYNAMIC

    def teardown(self):
        self.index.close()

    def _rebuild(self):
        old, self.index = self.index, self.index.rebuilt(self.options())
        old.close()

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
            self._rebuild()

    @rule(fanout=st.integers(min_value=2, max_value=12))
    def insert_novel(self, fanout):
        """A tag no document has used, over more children than any
        node of the random trees: the label dictionary grows and
        MaxGap widens, which a re-insert never does."""
        root = XMLNode(f"n{self.next_id}")
        for _ in range(fanout):
            root.append(XMLNode(self.rng.choice("abcd")))
        document = Document(root, doc_id=self.next_id)
        self.next_id += 1
        self.documents[document.doc_id] = document
        try:
            self.index.insert_document(document)
        except RebuildRequiredError:
            self._rebuild()

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
            self._rebuild()

    @rule()
    def save(self):
        """Appends the catalog blob to the current record page and
        rewrites the superblock, under warm views."""
        self.index.save()

    @rule()
    def rebuild(self):
        if self.documents:
            self._rebuild()

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


class DurableMaintenanceMachine(IndexMaintenanceMachine):
    """The same machine over a durable index file, closed and reopened
    along the way."""

    def options(self):
        if not hasattr(self, "directory"):
            self.directory = tempfile.mkdtemp(prefix="prix-stateful-")
            self.builds = 0
        self.builds += 1
        self.path = os.path.join(self.directory, f"{self.builds}.idx")
        return IndexOptions(labeler="dynamic", path=self.path,
                            durable=True)

    def teardown(self):
        super().teardown()
        shutil.rmtree(self.directory)

    @rule()
    def reopen(self):
        self.index.save()
        before = catalog_state(self.index)
        self.index.close()
        self.index = PrixIndex.open(self.path)
        assert catalog_state(self.index) == before


IndexMaintenanceMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=8, deadline=None)
TestIndexMaintenance = IndexMaintenanceMachine.TestCase
DurableMaintenanceMachine.TestCase.settings = settings(
    max_examples=8, stateful_step_count=10, deadline=None)
TestDurableIndexMaintenance = DurableMaintenanceMachine.TestCase
