"""Figure 1(b): ViST's false alarm, and PRIX's refinement rejecting it.

The query twig B[./C][./D] occurs in Doc1 only; Doc2 splits the C and D
under two different B elements.  ViST's structure-encoded subsequence
matching cannot tell the two apart and reports both documents; PRIX's
refinement-by-connectedness (Theorem 2) rejects Doc2.

Beyond the two-document example, a scaled corpus of such traps measures
the false-alarm *rate* each system produces.
"""

from repro.baselines.vist import VistIndex
from repro.bench.reporting import render_table
from repro.datasets import figure1_documents, figure1_query
from repro.prix.index import PrixIndex
from repro.query.xpath import parse_xpath
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager
from repro.xmlkit.parser import parse_document


def build_trap_corpus(n_docs=200):
    """Half true matches, half Figure 1(b)-style traps."""
    docs = []
    for index in range(n_docs):
        if index % 2 == 0:
            text = "<A><B><C/><D/></B><E/></A>"          # true match
        else:
            text = "<A><B><C/></B><B><D/></B><E/></A>"   # trap
        docs.append(parse_document(text, index + 1))
    return docs


def test_fig1b_false_alarm():
    doc1, doc2 = figure1_documents()
    query = figure1_query()

    prix = PrixIndex.build([doc1, doc2])
    vist_pool = BufferPool(Pager.in_memory())
    vist = VistIndex.build([doc1, doc2], vist_pool)

    prix_docs = {m.doc_id for m in prix.query(query)}
    vist_docs, _ = vist.query(query)

    # Scaled trap corpus: measure false-alarm rates.
    trap_docs = build_trap_corpus()
    true_docs = {d.doc_id for d in trap_docs if d.doc_id % 2 == 1}
    prix_large = PrixIndex.build(trap_docs)
    vist_large_pool = BufferPool(Pager.in_memory())
    vist_large = VistIndex.build(trap_docs, vist_large_pool)
    pattern = parse_xpath("//B[./C][./D]")
    prix_found = {m.doc_id for m in prix_large.query(pattern)}
    vist_found, _ = vist_large.query(pattern)

    render_table(
        "Figure 1(b): false alarms (query //B[./C][./D])",
        ["System", "Fig1 docs reported", "Trap corpus: reported",
         "true", "false alarms"],
        [["PRIX", sorted(prix_docs), len(prix_found), len(true_docs),
          len(prix_found - true_docs)],
         ["ViST", sorted(vist_docs), len(vist_found), len(true_docs),
          len(vist_found - true_docs)]])

    assert prix_docs == {1}, "PRIX must not report the false alarm"
    assert vist_docs == {1, 2}, "ViST reports Doc2: the false alarm"
    assert prix_found == true_docs, "PRIX: exactly the true documents"
    assert vist_found > true_docs, "ViST: false alarms on every trap"
    assert len(vist_found - true_docs) == len(trap_docs) // 2
    prix.close()
    prix_large.close()
