"""Ablation A1: the MaxGap optimization (Section 5.4, Theorem 4).

The trie-traversal strategy is forced so the measurements isolate
Algorithm 1's filtering work (the document-at-a-time fallback has its
own pruning, verified equivalent by the test suite).  A twig with
several branch arrangements is filtered on one root-to-leaf path and
then checked inside the path's documents with per-label bounds, so on
those rows the per-node column differs from the per-label one only
through the path's walk.

MaxGap pruning discards trie descendants whose level gap exceeds the
bound for the adjacent query labels' relationship.  The ablation runs
every Table 3 query with pruning on and off and reports the reduction in
trie nodes visited, verifying (a) identical answers and (b) reduced work.
"""

from repro.bench.harness import environment
from repro.bench.reporting import ratio, render_table
from repro.bench.workloads import QUERIES


def test_ablation_maxgap():
    rows = []
    total_off = 0
    total_label = 0
    total_node = 0
    for spec in QUERIES:
        env = environment(spec.corpus)
        off = env.run_prix(spec.qid, use_maxgap=False, strategy="trie")
        label = env.run_prix(spec.qid, use_maxgap=True, strategy="trie")
        node = env.prix.query_with_stats(
            env.pattern(spec.qid), strategy="trie",
            maxgap_granularity="node", cold=True)[1]
        assert off.matches == label.matches == node.matches, (
            f"{spec.qid}: Theorem 4 violated -- answers changed")
        total_off += off.extra["nodes_visited"]
        total_label += label.extra["nodes_visited"]
        total_node += node.filter.nodes_visited
        rows.append([
            spec.qid,
            f"{off.extra['nodes_visited']} nodes / {off.elapsed:.4f}s",
            f"{label.extra['nodes_visited']} nodes "
            f"(pruned {label.extra['pruned']})",
            f"{node.filter.nodes_visited} nodes "
            f"(pruned {node.filter.pruned_by_maxgap})",
            ratio(off.extra["nodes_visited"],
                  max(node.filter.nodes_visited, 1)),
        ])

    render_table(
        "Ablation A1: MaxGap pruning (off / per-label / per-trie-node; "
        "unordered twigs' in-document check uses per-label bounds)",
        ["Query", "OFF", "per-label (Thm 4)", "per-node (fine, Sec 5.4)",
         "OFF/node"],
        rows)

    assert total_label <= total_off, "pruning must never increase work"
    assert total_node <= total_label, (
        "finer-grained MaxGap must prune at least as hard")
