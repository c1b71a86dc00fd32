"""Per-layer metrics of one traced run.

Conventions (also in the README):

- query-path ``*.self_ms`` is self time per *query operation* of the
  traced rounds; build/write-path ``*.self_ms`` (``xmlkit``, ``prufer``,
  ``trie.labeling``, ``storage.bptree.insert/delete``) is self time per
  *call*;
- read-path counters (``filtering.*``, ``storage.pool.*``,
  ``storage.guard.*``) are per query operation, write-path counters
  (``storage.wal.*``, ``storage.physical_writes``) per mutation;
- numbers derived from operation latencies (``class.*``, ``serve.*``,
  ``index.*.p50_ms``, ``write_p50_ms``) come from the *untraced* rounds
  of the traced run, so the wrappers do not inflate them.
"""

from __future__ import annotations

from prixbench import stats

QUERY_IDS = tuple(f"Q{number}" for number in range(1, 10))

FILTER_LAYERS = ("filtering.find_subsequences",
                 "filtering.symbol_index.range_query",
                 "filtering.docid_index.documents_in",
                 "storage.bptree.range_scan")
FETCH_LAYERS = ("storage.pool.get", "storage.records.read",
                "index.view_loader", "refinement.refine",
                "matcher.run_query")


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _flat(rounds):
    return [outcome for outcomes in rounds.outcomes for outcome in outcomes
            if not outcome.error]


def compute(workload, *, base, traced, tracer, setup_totals, io_delta,
            extras):
    """``{metric name: value}``; names absent here are reported as 0."""
    totals = tracer.totals()
    in_rounds = {}
    for name, row in totals.items():
        before = setup_totals.get(name, {})
        in_rounds[name] = {key: row[key] - before.get(key, 0)
                           for key in row}

    traced_ops = _flat(traced)
    base_ops = _flat(base)
    queries = [op for op in traced_ops if op.op.kind == "query"]
    mutations = [op for op in traced_ops
                 if op.op.kind in ("delete", "insert")]
    n_queries = len(queries)
    op_seconds = sum(op.seconds for op in traced_ops)

    def self_per_query(name):
        return _ratio(in_rounds.get(name, {}).get("self_s", 0.0) * 1e3,
                      n_queries)

    def self_per_call(name, table=totals):
        row = table.get(name)
        return _ratio(row["self_s"] * 1e3, row["calls"]) if row else 0.0

    def calls_per_query(name):
        return _ratio(in_rounds.get(name, {}).get("calls", 0), n_queries)

    def counter(key):
        return _ratio(sum(op.stats.get(key) or 0 for op in queries),
                      n_queries)

    def share(names):
        return _ratio(sum(in_rounds.get(name, {}).get("self_s", 0.0)
                          for name in names), op_seconds)

    def p50_ms(ops):
        return stats.median([op.seconds * 1e3 for op in ops]) if ops else 0.0

    values = {
        "query.parse_xpath.self_ms": self_per_query("query.parse_xpath"),
        "query.arrangements.self_ms": self_per_query("query.arrangements"),
        "query.arrangements.count": counter("arrangements"),
        "plan.build_plan.self_ms": self_per_query("plan.build_plan"),
        "plan.build_plan.calls": calls_per_query("plan.build_plan"),
        "filtering.find_subsequences.self_ms":
            self_per_query("filtering.find_subsequences"),
        "filtering.range_queries": counter("range_queries"),
        "filtering.nodes_visited": counter("nodes_visited"),
        "filtering.pruned_by_maxgap": counter("pruned_by_maxgap"),
        "filtering.candidates": counter("candidates"),
        "filtering.candidates_per_node_visited":
            _ratio(counter("candidates"), counter("nodes_visited")),
        "filtering.symbol_index.range_query.self_ms":
            self_per_query("filtering.symbol_index.range_query"),
        "filtering.docid_index.documents_in.self_ms":
            self_per_query("filtering.docid_index.documents_in"),
        "matcher.run_query.self_ms": self_per_query("matcher.run_query"),
        "matcher.document_strategy_share": _ratio(
            sum("document" in (op.stats.get("strategy") or "")
                for op in queries), n_queries),
        "refinement.refine.self_ms": self_per_query("refinement.refine"),
        "refinement.refine.calls": calls_per_query("refinement.refine"),
        "refinement.accept_ratio": _ratio(counter("candidates_accepted"),
                                          counter("candidates_refined")),
        "index.view_loader.self_ms": self_per_query("index.view_loader"),
        "index.view_loader.calls": calls_per_query("index.view_loader"),
        "index.choose_variant.self_ms":
            self_per_query("index.choose_variant"),
        "xmlkit.parse_document.self_ms":
            self_per_call("xmlkit.parse_document"),
        "prufer.sequences.self_ms": self_per_call("prufer.sequences"),
        "trie.labeling.self_ms": self_per_call("trie.labeling"),
        "storage.bptree.range_scan.self_ms":
            self_per_query("storage.bptree.range_scan"),
        "storage.bptree.range_scan.calls":
            calls_per_query("storage.bptree.range_scan"),
        "storage.bptree.insert.self_ms":
            self_per_call("storage.bptree.insert", in_rounds),
        "storage.bptree.delete.self_ms":
            self_per_call("storage.bptree.delete", in_rounds),
        "storage.pool.get.self_ms": self_per_query("storage.pool.get"),
        "storage.records.read.self_ms":
            self_per_query("storage.records.read"),
        "storage.records.read.calls":
            calls_per_query("storage.records.read"),
        "shard.query_with_stats.self_ms":
            self_per_query("shard.query_with_stats"),
        "pages_per_query": counter("physical_reads"),
        "share.filter_bptree": share(FILTER_LAYERS),
        "share.fetch_refine": share(FETCH_LAYERS),
        "trace.overhead_ratio": _ratio(stats.median(traced.busy),
                                       stats.median(base.busy)),
        "trace.self_time_coverage": _ratio(
            sum(row["self_s"] for row in in_rounds.values()), op_seconds),
    }

    loads, repeated = tracer.view_loads
    values["index.view_loader.repeat_ratio"] = _ratio(repeated, loads)

    # Storage counters over the traced rounds.
    def io(key):
        return sum(getattr(delta, key) for delta in io_delta)
    logical, physical = io("logical_reads"), io("physical_reads")
    n_mutations = len(mutations)
    values.update({
        "storage.pool.logical_reads": _ratio(logical, n_queries),
        "storage.pool.physical_reads": _ratio(physical, n_queries),
        "storage.pool.hit_ratio": (1.0 - _ratio(physical, logical)
                                   if logical else 0.0),
        "storage.pool.evictions": _ratio(io("evictions"), n_queries),
        "storage.guard.verifications":
            _ratio(io("guard_verifications"), n_queries),
        "storage.guard.repairs": _ratio(io("guard_repairs"), n_queries),
        "storage.wal.bytes": _ratio(io("wal_bytes"), n_mutations),
        "storage.wal.fsyncs": _ratio(io("wal_fsyncs"), n_mutations),
        "storage.physical_writes":
            _ratio(io("physical_writes"), n_mutations),
    })
    inserted_bytes = sum(op.stats.get("xml_bytes", 0) for op in mutations)
    values["storage.wal.bytes_per_input_byte"] = _ratio(io("wal_bytes"),
                                                       inserted_bytes)

    # Set-up facts (one traced set-up).
    facts = workload.facts
    values["index.build.docs_per_s"] = _ratio(workload.doc_count,
                                              facts.get("build_s", 0.0))
    values["index.open.ms"] = facts.get("open_s", 0.0) * 1e3
    if workload.name == "shard4_scatter":
        values["shard.build.elapsed_s"] = facts.get("build_s", 0.0)

    # Latency-derived numbers, from the untraced rounds.
    base_queries = [op for op in base_ops if op.op.kind == "query"]
    for qid in QUERY_IDS:
        values[f"class.{qid}.p50_ms"] = p50_ms(
            [op for op in base_queries if op.op.label == qid])
    by_kind = {kind: [op for op in base_ops if op.op.kind == kind]
               for kind in ("delete", "insert", "save")}
    for kind, name in (("insert", "index.insert_document.p50_ms"),
                       ("delete", "index.delete_document.p50_ms"),
                       ("save", "index.save.p50_ms")):
        values[name] = p50_ms(by_kind[kind])
    writes = by_kind["delete"] + by_kind["insert"]
    if writes:
        saved = sum(op.seconds for op in by_kind["save"])
        values["write_p50_ms"] = p50_ms(writes) + saved * 1e3 / len(writes)

    per_shard = [op.stats["per_shard"] for op in queries
                 if op.stats.get("per_shard")]
    if per_shard:
        visited = sum(len(rows) for rows in per_shard)
        useful = sum(row["matches"] > 0 for rows in per_shard
                     for row in rows)
        values["shard.shards_visited_per_query"] = visited / len(per_shard)
        values["shard.useful_visit_ratio"] = _ratio(useful, visited)

    if workload.name == "serve_c2":
        values.update(_serve(workload, base, base_queries))
    values.update(extras)
    return values


def _serve(workload, base, base_queries):
    client = [op.seconds * 1e3 for op in base_queries]
    engine = [op.stats["elapsed_ms"] for op in base_queries]
    overhead = [c - e for c, e in zip(client, engine)]
    sizes = [op.stats["response_bytes"] for op in base_queries]
    requests = sum(len(outcomes) for outcomes in base.outcomes)
    refused = sum(bool(outcome.error) for outcomes in base.outcomes
                  for outcome in outcomes)
    # Attempts are counted since set-up: warm-up, base and traced rounds.
    sent = workload.round_no * len(workload.ops)
    return {
        "serve.client_ms": stats.median(client),
        "serve.engine_ms": stats.median(engine),
        "serve.overhead_ms": stats.median(overhead),
        "serve.overhead_share": _ratio(stats.median(overhead),
                                       stats.median(client)),
        "serve.response_bytes": stats.median(sizes),
        "serve.rejected_ratio": _ratio(refused, requests),
        "serve.retries_per_request":
            _ratio(sum(workload.attempts) - sent, sent),
        "serve.query_p99_ms": stats.percentile(client, 99),
    }
