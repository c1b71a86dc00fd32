"""The introduction's motivation: holistic vs decomposed twig matching.

PRIX's opening argument (Sections 1-2): approaches that break a twig
into binary ancestor-descendant joins, or into root-to-leaf paths merged
afterwards, can produce intermediate results far exceeding the final
answer -- "the cost of post-processing may not always be trivial".  This
benchmark quantifies that on the SWISSPROT corpus, whose Piroplasmida
near-misses were planted precisely to create discardable partial
matches: binary structural joins vs TwigStack's path solutions vs PRIX.
"""

import time

from repro.baselines.structjoin import binary_twig_join
from repro.baselines.twigstack import twig_stack
from repro.bench.harness import environment
from repro.bench.reporting import render_table

QUERIES = ("Q5", "Q6")


def test_intro_decomposition_overhead():
    env = environment("swissprot")
    rows = []
    measured = {}
    for qid in QUERIES:
        pattern = env.pattern(qid)

        prix = env.run_prix(qid)

        env._stream_pool.flush_and_clear()
        started = time.perf_counter()
        ts_matches, ts_stats = twig_stack(pattern, env.streams)
        ts_elapsed = time.perf_counter() - started

        env._stream_pool.flush_and_clear()
        started = time.perf_counter()
        bj_matches, bj_stats = binary_twig_join(pattern, env.streams)
        bj_elapsed = time.perf_counter() - started

        assert ts_matches == bj_matches
        assert prix.matches <= len(bj_matches)
        measured[qid] = (prix, ts_stats, bj_stats, len(bj_matches))
        rows.append([
            qid, len(bj_matches),
            f"{prix.elapsed:.4f}s",
            f"{ts_elapsed:.4f}s ({ts_stats.path_solutions} path sols)",
            f"{bj_elapsed:.4f}s ({bj_stats.pairs_produced} edge pairs, "
            f"{bj_stats.path_tuples} path tuples)",
        ])

    render_table(
        "Intro motivation: holistic vs decomposed twig matching "
        "(SWISSPROT)",
        ["Query", "Final matches", "PRIX (holistic)",
         "TwigStack (holistic paths)", "Binary joins (decomposed)"],
        rows)

    # The decomposition's intermediate pair lists dwarf the answers.
    for qid in QUERIES:
        _, _, bj_stats, final = measured[qid]
        assert bj_stats.pairs_produced > 10 * max(final, 1), (
            f"{qid}: expected intermediate blow-up, got "
            f"{bj_stats.pairs_produced} pairs for {final} matches")
