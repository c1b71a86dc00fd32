"""Workload generator tests: sampled twigs must occur in the corpus."""

import random

import pytest

from repro.baselines.naive import naive_matches
from repro.bench.generator import sample_twig
from repro.datasets import dblp, treebank
from repro.prix.index import PrixIndex


class TestSampleTwig:
    @pytest.fixture(scope="class")
    def corpus(self):
        return dblp(60).documents

    @pytest.fixture(scope="class")
    def index(self, corpus):
        with PrixIndex.build(corpus) as index:
            yield index

    def test_sampled_twig_always_matches(self, corpus, index):
        rng = random.Random(1)
        for _ in range(20):
            pattern = sample_twig(corpus, rng)
            assert len(index.query(pattern)) >= 1

    def test_matches_oracle(self, corpus, index):
        rng = random.Random(2)
        for _ in range(10):
            pattern = sample_twig(corpus, rng)
            got = {(m.doc_id, m.canonical) for m in index.query(pattern)}
            want = {(d.doc_id, emb) for d in corpus
                    for emb in naive_matches(d, pattern)}
            assert got == want

    def test_varied_selectivity(self, corpus, index):
        rng = random.Random(3)
        counts = {len(index.query(sample_twig(corpus, rng)))
                  for _ in range(30)}
        assert len(counts) >= 5  # genuinely varied cardinalities

    def test_deep_corpus(self):
        docs = treebank(30).documents
        rng = random.Random(4)
        with PrixIndex.build(docs) as index:
            for _ in range(10):
                pattern = sample_twig(docs, rng)
                assert len(index.query(pattern)) >= 1

    def test_deterministic_given_rng(self, corpus):
        first = sample_twig(corpus, random.Random(7)).nodes()
        second = sample_twig(corpus, random.Random(7)).nodes()
        assert [(n.label, n.axis, n.is_value) for n in first] == \
            [(n.label, n.axis, n.is_value) for n in second]
