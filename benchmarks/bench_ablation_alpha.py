"""Ablation A3: alpha-prefix pre-allocation in the dynamic labeler.

Section 5.2.1: ViST's dynamic labeling scheme "suffers from scope
underflows for long sequences and large alphabet sizes, which makes it
difficult to implement"; PRIX mitigates this by pre-allocating number
ranges for the in-memory trie of length-alpha LPS prefixes, sized by
sequence frequency and length.

Two measurements:

- *coverage*: how many trie nodes the dynamic scheme labels before its
  first underflow, as alpha grows (pre-allocation pushes the failure
  deeper; the index build recovers by falling back to bulk DFS labels),
- *shallow corpora*: with the paper's 8-byte ranges, DBLP-like corpora
  (short sequences) label completely with no underflow at all.
"""

from repro.bench.reporting import render_table
from repro.datasets import get_corpus
from repro.prufer.sequence import regular_sequence
from repro.trie.labeling import DynamicLabeler
from repro.trie.trie import SequenceTrie

ALPHAS = (0, 2, 4, 8, 16, 32)


def build_trie(corpus_name):
    corpus = get_corpus(corpus_name, "small")
    trie = SequenceTrie()
    for doc in corpus.documents:
        trie.insert(regular_sequence(doc).lps, doc.doc_id)
    return trie


def test_ablation_alpha_coverage():
    total_nodes = build_trie("treebank").node_count
    coverage = {}
    for alpha in ALPHAS:
        labeler = DynamicLabeler(max_range=2 ** 63, alpha=alpha,
                                 fanout_guess=16)
        labeler.label(build_trie("treebank"))
        coverage[alpha] = (labeler.labeled_before_underflow,
                           labeler.underflows)

    render_table(
        f"Ablation A3: dynamic labeling coverage vs alpha "
        f"(TREEBANK trie, {total_nodes} nodes, 8-byte root range)",
        ["alpha", "nodes labeled before underflow", "underflows"],
        [[alpha, coverage[alpha][0], coverage[alpha][1]]
         for alpha in ALPHAS])

    # Pre-allocation monotonically (weakly) deepens coverage.
    values = [coverage[alpha][0] for alpha in ALPHAS]
    assert all(a <= b for a, b in zip(values, values[1:])), values
    assert values[-1] > 2 * values[0], (
        "pre-allocation should push the first underflow much deeper")

    # Shallow sequences (DBLP-like) never underflow with 8-byte ranges:
    # the regime the paper's experiments ran in.
    dblp_labeler = DynamicLabeler(max_range=2 ** 63, alpha=4)
    dblp_labeler.label(build_trie("dblp"))
    assert dblp_labeler.underflows == 0
    render_table(
        "Ablation A3b: shallow corpus (DBLP) under the same scheme",
        ["corpus", "underflows"],
        [["dblp (small)", dblp_labeler.underflows]])
