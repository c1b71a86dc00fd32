"""Delete / re-insert churn on a saved index answers like a rebuild.

A dynamic, durable, guarded build of the dblp and swissprot corpora
takes seeded delete / re-insert cycles -- a delete of a random live
document, then the re-insert of the record deleted longest ago under a
fresh id -- with a ``save()`` every ``save_every`` mutations, as
prixbench's ``churn_mixed`` runs them.  Afterwards every Table 3 query
of the corpus, ordered and unordered, must answer on the live index and
on the reopened file as on :meth:`PrixIndex.rebuilt`, and ``prix
scrub`` must find the file healthy.

Tier-1 runs a few cycles over the ``tiny`` corpora, whose Docid ranges
fit one leaf.  The ``medium`` corpora (the full prixbench scale) reach
Docid ranges over several leaves and deep same-label trie paths; CI
runs them, tier-1 does not::

    PYTHONPATH=src python tests/test_churn_parity.py --scale medium --cycles 200
"""

import argparse
import os
import random
import sys
import tempfile

from repro.bench.workloads import queries_for
from repro.prix.index import IndexOptions, PrixIndex, scrub_path
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serializer import serialize

CORPORA = ("dblp", "swissprot")
OPTIONS = {"labeler": "dynamic", "durable": True, "wal_sync": "commit",
           "guard": True}


def answers(index, xpath, ordered):
    return {(match.doc_id, match.canonical)
            for match in index.query(xpath, ordered=ordered)}


def churn(corpus, path, cycles, save_every=20, seed=7):
    """Build ``corpus`` at ``path``, run the cycles and close it;
    return the live document count."""
    rng = random.Random(seed)
    texts = {document.doc_id: serialize(document)
             for document in corpus.documents}
    deleted = []
    with PrixIndex.build(corpus.documents,
                         IndexOptions(path=path, **OPTIONS)) as index:
        live = sorted(texts)
        next_id = index.next_doc_id()
        for mutation in range(1, 2 * cycles + 1):
            if mutation % 2:
                doc_id = live.pop(rng.randrange(len(live)))
                index.delete_document(doc_id)
                deleted.append(texts.pop(doc_id))
            else:
                texts[next_id] = deleted.pop(0)
                index.insert_document(parse_document(texts[next_id],
                                                     next_id))
                live.append(next_id)
                next_id += 1
            if mutation % save_every == 0:
                index.save()
        index.save()
        return index.doc_count


def mismatches(name, path):
    """``[(xpath, ordered, where)]`` for every Table 3 query on which
    the live file (reopened) or a rebuild of it disagree."""
    wrong = []
    with PrixIndex.open(path) as index, index.rebuilt() as rebuilt:
        for spec in queries_for(name):
            for ordered in (True, False):
                if answers(index, spec.xpath, ordered) != \
                        answers(rebuilt, spec.xpath, ordered):
                    wrong.append((spec.xpath, ordered))
    return wrong


def check(corpora, directory, cycles, save_every=20):
    """Churn each corpus; return ``{name: problems}`` (empty if clean)."""
    problems = {}
    for name, corpus in sorted(corpora.items()):
        path = os.path.join(directory, f"{name}.idx")
        count = churn(corpus, path, cycles, save_every)
        found = []
        if count != len(corpus.documents):
            found.append(f"{count} documents, not {len(corpus.documents)}")
        found += [f"{xpath} (ordered={ordered}) differs from rebuilt()"
                  for xpath, ordered in mismatches(name, path)]
        if not scrub_path(path).healthy:
            found.append("scrub reports the file unhealthy")
        problems[name] = found
    return problems


def test_churned_tiny_corpora_answer_like_a_rebuild(tiny_dblp,
                                                    tiny_swissprot,
                                                    tmp_path):
    problems = check({"dblp": tiny_dblp, "swissprot": tiny_swissprot},
                     str(tmp_path), cycles=30, save_every=10)
    assert problems == {"dblp": [], "swissprot": []}


def main(argv=None):
    from repro.datasets.registry import get_corpus
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", default="medium")
    parser.add_argument("--cycles", type=int, default=200)
    parser.add_argument("--save-every", type=int, default=20)
    args = parser.parse_args(argv)
    corpora = {name: get_corpus(name, args.scale) for name in CORPORA}
    with tempfile.TemporaryDirectory() as directory:
        problems = check(corpora, directory, args.cycles, args.save_every)
    for name, found in sorted(problems.items()):
        print(f"{name} ({args.scale}, {args.cycles} cycles): "
              + ("; ".join(found) if found else "answers like rebuilt(), "
                 "scrub healthy"))
    return 1 if any(problems.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
