"""``python -m prixbench pin``: regrow ``prixbench/expected/``.

Writes the corpus hashes and, per corpus, the twig pool with its oracle
answers.  Deterministic: running it at the commit that defined the
benchmark reproduces the checked-in files byte for byte.  It is not run
by the benchmark itself; pinned inputs are data.
"""

from __future__ import annotations

import json

from prixbench import corpora, twigs


def main():
    hashes = {}
    for key in corpora.SIZES["full"]:
        corpus = corpora.load(key, "full")
        hashes[corpus.pin_name] = corpus.sha256
        pool = twigs.grow_pool(corpus)
        counts = {}
        for twig in pool["twigs"]:
            counts[twig["card"]] = counts.get(twig["card"], 0) + 1
        print(f"{corpus.pin_name}: {len(corpus.documents)} documents, "
              f"{corpus.xml_bytes} XML bytes, pool {counts}")
        with open(twigs.pool_path(corpus.pin_name), "w",
                  encoding="utf-8") as handle:
            json.dump(pool, handle, indent=0, sort_keys=True)
            handle.write("\n")
    with open(corpora.PINNED_PATH, "w", encoding="utf-8") as handle:
        json.dump(hashes, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0
