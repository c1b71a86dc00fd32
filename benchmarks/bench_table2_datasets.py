"""Table 2: dataset statistics.

Paper values (full UW snapshots):

    Dataset    Size(MB)  Elements  Attributes  Max-depth  Sequences
    DBLP       134       3332130   404276      6          328858
    SWISSPROT  115       2977031   2189859     5          50000
    TREEBANK   86        2437666   1           36         56385

Our corpora are laptop-scale but preserve the structural signature:
DBLP-like has the most sequences and is shallow; SWISSPROT-like is
attribute-heavy and shallow; TREEBANK-like is by far the deepest and has
no attributes.
"""

from repro.bench.harness import environment
from repro.bench.reporting import render_table
from repro.datasets import corpus_stats

PAPER_ROWS = {
    "dblp": ("134 MB", 3332130, 404276, 6, 328858),
    "swissprot": ("115 MB", 2977031, 2189859, 5, 50000),
    "treebank": ("86 MB", 2437666, 1, 36, 56385),
}


def test_table2_dataset_stats():
    stats = {}
    for name in ("dblp", "swissprot", "treebank"):
        corpus = environment(name).corpus
        stats[name] = corpus_stats(corpus)

    rows = []
    for name, measured in stats.items():
        paper = PAPER_ROWS[name]
        rows.append([
            name,
            f"{measured.size_mbytes:.2f} MB (paper {paper[0]})",
            f"{measured.n_elements} (paper {paper[1]})",
            f"{measured.n_attributes} (paper {paper[2]})",
            f"{measured.max_depth} (paper {paper[3]})",
            f"{measured.n_sequences} (paper {paper[4]})",
        ])
    render_table(
        "Table 2: datasets (measured vs paper)",
        ["Dataset", "Size", "Elements", "Attributes", "Max-depth",
         "Sequences"],
        rows)

    # Shape assertions mirroring the paper's signature.
    assert stats["treebank"].max_depth > stats["dblp"].max_depth
    assert stats["treebank"].max_depth > stats["swissprot"].max_depth
    assert stats["treebank"].n_attributes == 0
    assert stats["swissprot"].n_attributes > stats["dblp"].n_attributes
    assert stats["dblp"].n_sequences >= stats["swissprot"].n_sequences
