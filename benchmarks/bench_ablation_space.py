"""Ablation A4: index-size growth -- PRIX linear vs ViST quadratic.

Section 2 / Section 5.2.2: for a unary (skinny) tree with n nodes, ViST's
structure-encoded sequence totals O(n^2) characters (every node carries
its full root path), while PRIX's Prufer sequence is linear in n.  The
sweep doubles n and reports both footprints, plus the real corpora's
sequence volumes.
"""

from repro.baselines.vist import total_sequence_text
from repro.bench.harness import environment
from repro.bench.reporting import render_table
from repro.prufer.sequence import regular_sequence
from repro.xmlkit.tree import Document, element

SIZES = (25, 50, 100, 200, 400)


def unary_document(n):
    root = element("t")
    node = root
    for _ in range(n - 1):
        node = node.append(element("t"))
    return Document(root, 1)


def prix_text(document):
    seq = regular_sequence(document)
    return sum(len(label) for label in seq.lps)


def test_ablation_space_growth():
    rows = []
    prix_sizes = []
    vist_sizes = []
    for n in SIZES:
        doc = unary_document(n)
        prix_size = prix_text(doc)
        vist_size = total_sequence_text(doc)
        prix_sizes.append(prix_size)
        vist_sizes.append(vist_size)
        rows.append([n, prix_size, vist_size,
                     f"{vist_size / prix_size:.1f}x"])

    render_table(
        "Ablation A4: sequence text on a unary n-node tree",
        ["n", "PRIX chars (O(n))", "ViST chars (O(n^2))", "ViST/PRIX"],
        rows)

    # PRIX grows linearly: doubling n doubles the size (within slack).
    for smaller, larger in zip(prix_sizes, prix_sizes[1:]):
        assert larger <= 2.3 * smaller
    # ViST grows quadratically: doubling n roughly quadruples the size.
    for smaller, larger in zip(vist_sizes, vist_sizes[1:]):
        assert larger >= 3.3 * smaller

    # Real corpora: PRIX's trie node count is linear in total tree nodes.
    corpus_rows = []
    for name in ("dblp", "swissprot", "treebank"):
        env = environment(name)
        total_nodes = sum(doc.size for doc in env.corpus.documents)
        stats = env.prix.trie_stats("rp")
        corpus_rows.append([name, total_nodes, stats.node_count,
                            stats.total_sequence_length])
        assert stats.node_count <= total_nodes
    render_table(
        "Ablation A4b: PRIX trie size vs corpus nodes (linear bound)",
        ["Corpus", "Tree nodes", "Trie nodes", "Total LPS length"],
        corpus_rows)
