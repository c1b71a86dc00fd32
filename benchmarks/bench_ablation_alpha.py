"""Ablation A3: novel inserts absorbed, bulk vs dynamic labels (§5.2.1).

Section 5.2.1 keeps unallocated scope in the trie's containment ranges
so that documents can be inserted without a rebuild; ViST's dynamic
scheme "suffers from scope underflows for long sequences and large
alphabet sizes".  The dynamic labeler here numbers the trie with the
bulk labeler's one DFS, but strides its counter to fill the 8-byte
range, so every node keeps one stride of free ids past its last child.
(The alpha-prefix pre-allocation it replaced ran out within the first
20-43 of TREEBANK's 742 trie nodes, fell back to gap-free labels, and
absorbed none of these inserts.)

Per corpus, at the "small" scale: documents the corpus does not hold
(a larger run of the same generator, minus every document text the
corpus has) are inserted into a bulk-labelled and a dynamic-labelled
build.  A bulk build refuses each at its first new trie node; a
dynamic one carves them all, and then answers every Table 3 query as
its ``rebuilt()`` does.
"""

from repro.bench.reporting import render_table
from repro.bench.workloads import queries_for
from repro.datasets import get_corpus
from repro.prix.incremental import RebuildRequiredError
from repro.prix.index import IndexOptions, PrixIndex
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serializer import serialize

CORPORA = ("dblp", "swissprot", "treebank")
SCALE = {"dblp": 600, "swissprot": 150, "treebank": 250}
NOVEL = 20


def novel_documents(name, corpus):
    """``NOVEL`` documents of a larger run that ``corpus`` lacks."""
    known = {serialize(document) for document in corpus.documents}
    larger = get_corpus(name, len(corpus.documents) + 2 * NOVEL).documents
    return [document for document in larger
            if serialize(document) not in known][-NOVEL:]


def absorb(index, documents):
    """Insert ``documents``; return how many landed."""
    landed = 0
    doc_id = index.next_doc_id()
    for offset, document in enumerate(documents):
        try:
            index.insert_document(parse_document(serialize(document),
                                                 doc_id + offset))
            landed += 1
        except RebuildRequiredError:
            pass
    return landed


def answers(index, xpath):
    return sorted((match.doc_id, match.canonical)
                  for match in index.query(xpath))


def test_ablation_novel_inserts():
    rows = []
    for name in CORPORA:
        corpus = get_corpus(name, SCALE[name])
        novel = novel_documents(name, corpus)
        landed = {}
        for labeler in ("bulk", "dynamic"):
            with PrixIndex.build(corpus.documents,
                                 IndexOptions(labeler=labeler)) as index:
                nodes = index.trie_stats("ep").node_count
                landed[labeler] = absorb(index, novel)
                if labeler == "dynamic":
                    carved = index.trie_stats("ep").node_count - nodes
                    with index.rebuilt() as rebuilt:
                        same = all(answers(index, spec.xpath)
                                   == answers(rebuilt, spec.xpath)
                                   for spec in queries_for(name))
        rows.append([name, len(corpus.documents), len(novel),
                     landed["bulk"], landed["dynamic"], carved,
                     "yes" if same else "NO"])
        assert landed == {"bulk": 0, "dynamic": len(novel)}, name
        assert same, name

    render_table(
        "Ablation A3: novel inserts absorbed, bulk vs dynamic labels "
        "(strided DFS, 8-byte root range)",
        ["corpus", "documents", "novel", "absorbed (bulk)",
         "absorbed (dynamic)", "EP trie nodes carved",
         "answers = rebuilt()"],
        rows)
