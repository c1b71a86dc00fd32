"""Command-line interface for the PRIX index.

Usage::

    python -m repro.cli build INDEX.idx doc1.xml doc2.xml ...
    python -m repro.cli build INDEX.idx --corpus dblp --scale small
    python -m repro.cli build SHARDS/ --corpus dblp --shards 4 --workers 4
    python -m repro.cli query INDEX.idx '//book[./author="Knuth"]/title'
    python -m repro.cli stats INDEX.idx

``build`` indexes XML files (one document each) or one of the bundled
synthetic corpora; ``query`` runs a twig query and prints matches with
execution statistics; ``stats`` summarizes a saved index.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.datasets import get_corpus, list_corpora
# The exit codes scripts branch on, and the exception classifier behind
# them, live in repro.exitcodes: prix serve answers with the same ones.
from repro.exitcodes import (EXIT_CODES, EXIT_CORRUPTION, EXIT_USAGE,
                             classify, describe)
from repro.prix.budget import QueryBudget, add_budget_flags, number_flag
from repro.prix.index import IndexOptions, PrixIndex
from repro.shard import open_index, scrub_index
from repro.xmlkit.parser import parse_document, split_documents


def _cmd_build(args):
    if args.corpus:
        corpus = get_corpus(args.corpus, args.scale)
        documents = corpus.documents
        print(f"generated corpus {args.corpus!r} "
              f"({len(documents)} documents)")
    elif args.files:
        documents = []
        for path in args.files:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            if args.split:
                documents.extend(split_documents(
                    text, start_id=len(documents) + 1))
            else:
                documents.append(parse_document(text,
                                                len(documents) + 1))
        print(f"parsed {len(documents)} document(s)")
    else:
        print("error: provide XML files or --corpus", file=sys.stderr)
        return EXIT_USAGE

    options = IndexOptions(path=None if args.shards else args.index,
                           page_size=args.page_size,
                           labeler=args.labeler,
                           durable=args.durable,
                           guard=args.guard)
    if args.shards:
        from repro.shard import build_shards
        report = build_shards(documents, args.index, shards=args.shards,
                              workers=args.workers, options=options)
        for row in report.shards:
            print(f"  {row.name}: {row.doc_count} document(s) "
                  f"[{row.low}..{row.high}], {row.trie_nodes} trie "
                  f"nodes, {row.build_seconds * 1000:.0f} ms")
        print(f"sharded index written to {args.index} "
              f"({len(report.shards)} shard(s), {args.workers} "
              f"worker(s), {report.elapsed_seconds:.2f} s)")
        return 0

    with PrixIndex.build(documents, options) as index:
        index.save()
        if index.durable:
            print(f"write-ahead log at {args.index}.wal")
        if args.guard:
            print(f"checksum sidecar at {args.index}.sum")
        for variant, row in index.summary()["variants"].items():
            print(f"  {variant}: {row['trie_nodes']} trie nodes over "
                  f"{row['total_symbols']} sequence symbols")
    print(f"index written to {args.index}")
    return 0


def _make_budget(args):
    """The QueryBudget the ``--budget-*`` flags ask for, or None."""
    budget = QueryBudget.from_flags(args)
    return None if budget.unlimited else budget


def _cmd_query(args):
    with open_index(args.index, backend=args.backend) as index:
        matches, stats = index.query_with_stats(
            args.xpath, ordered=args.ordered, variant=args.variant,
            use_maxgap=not args.no_maxgap, cold=args.cold,
            budget=_make_budget(args))
        by_doc = {}
        for match in matches:
            by_doc.setdefault(match.doc_id, []).append(match)
        if matches.approximate:
            # The degradation contract (docs/ROBUSTNESS.md): these are
            # the filter phase's candidate documents, a guaranteed
            # superset of the exact answer's documents (Theorems 1-2).
            print(f"approximate result: {len(by_doc)} candidate "
                  f"document(s), a superset of the exact answer")
            print(f"  degraded: {matches.degradation_reason}")
            for doc_id in sorted(by_doc)[:args.limit]:
                print(f"  doc {doc_id} (unrefined candidate)")
            if len(by_doc) > args.limit:
                print(f"  ... ({len(by_doc) - args.limit} more)")
        else:
            print(f"{len(matches)} match(es) in {len(by_doc)} document(s)")
            limit = args.limit
            shown = 0
            for doc_id in sorted(by_doc):
                for match in by_doc[doc_id]:
                    if shown >= limit:
                        print(f"  ... ({len(matches) - shown} more)")
                        return 0
                    print(f"  doc {doc_id}: {dict(match.images)}")
                    shown += 1
        if args.explain:
            print(f"\nvariant={stats.variant} strategy={stats.strategy} "
                  f"arrangements={stats.arrangements}")
            if stats.shards:
                scattered = ", ".join(
                    f"{row['shard']}={row['matches']}"
                    for row in stats.per_shard)
                print(f"shards: {stats.shards} ({scattered})")
            print(f"filter: {stats.filter.range_queries} range queries "
                  f"({stats.filter.probes_issued} issued), "
                  f"{stats.filter.nodes_visited} trie nodes, "
                  f"{stats.filter.pruned_by_maxgap} pruned by MaxGap")
            print(f"refinement: {stats.candidates_refined} candidates, "
                  f"{stats.candidates_accepted} accepted")
            print(f"documents: {stats.documents_loaded} loaded, "
                  f"{stats.documents_decoded} decoded")
            print(f"I/O: {stats.physical_reads} pages read "
                  f"({'cold' if args.cold else 'warm'}); "
                  f"elapsed {stats.elapsed_seconds * 1000:.2f} ms")
        return 0


def _cmd_insert(args):
    with open_index(args.index) as index:
        doc_id = args.doc_id
        if doc_id is None:
            doc_id = index.next_doc_id()
        with open(args.file, "r", encoding="utf-8") as handle:
            document = parse_document(handle.read(), doc_id)
        from repro.prix.incremental import RebuildRequiredError
        try:
            index.insert_document(document)
        except RebuildRequiredError as error:
            print(f"error: {error}\nthe index has no insertion slack; "
                  f"rebuild it with --labeler dynamic (for a shard "
                  f"directory, run 'prix rebalance')", file=sys.stderr)
            return 1
        index.save()
        print(f"inserted document {doc_id}; index now holds "
              f"{index.doc_count} documents")
        return 0


def _cmd_delete(args):
    with open_index(args.index) as index:
        try:
            index.delete_document(args.doc_id)
        except KeyError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        index.save()
        print(f"deleted document {args.doc_id}; index now holds "
              f"{index.doc_count} documents")
        return 0


def _cmd_explain(args):
    with open_index(args.index) as index:
        print(index.explain(args.xpath, variant=args.variant), end="")
    return 0


def _not_one_file(args):
    """``recover``/``checkpoint`` replay or truncate one file's log."""
    print(f"error: 'prix {args.command}' takes one index file, but "
          f"{args.index} is a directory; for a shard directory run it on "
          f"each shard file ({os.path.join(args.index, 'shard-NNNN.idx')})",
          file=sys.stderr)
    return EXIT_USAGE


def _cmd_recover(args):
    from repro.storage.recovery import recover_path
    if os.path.isdir(args.index):
        return _not_one_file(args)
    result = recover_path(args.index, args.wal)
    if result.clean:
        print("nothing to redo; index is consistent")
    else:
        print(f"replayed {result.commits_applied} committed batch(es): "
              f"{result.pages_applied} page(s) redone, "
              f"{result.pages_discarded} uncommitted image(s) discarded, "
              f"{result.truncated_bytes} torn byte(s) truncated")
    if args.no_checkpoint:
        return 0
    # Checkpoint so the replayed tail is not replayed again on the next
    # open; this also verifies the recovered index actually opens.
    with PrixIndex.open(args.index, durable=True, wal_path=args.wal) as index:
        index.checkpoint()
        print(f"checkpointed; index holds {index.doc_count} documents")
    return 0


def _cmd_checkpoint(args):
    if os.path.isdir(args.index):
        return _not_one_file(args)
    with PrixIndex.open(args.index, durable=True, wal_path=args.wal) as index:
        before = index._pool.wal.size_bytes
        index.checkpoint()
        after = index._pool.wal.size_bytes
        print(f"checkpoint complete; log truncated "
              f"{before} -> {after} bytes")
    return 0


def _cmd_scrub(args):
    # For a directory, any unhealthy index file (or shard manifest)
    # under it yields the single corruption exit code.
    report = scrub_index(args.index, wal_path=args.wal,
                         stamp_missing=args.stamp)
    if args.json:
        # The canonical serialization -- byte-identical to what the
        # serving tier's /healthz endpoint caches (docs/SERVING.md).
        print(report.to_json(indent=2))
    else:
        print(report.render())
    return 0 if report.healthy else EXIT_CORRUPTION


def _cmd_serve(args):
    from repro.serve.server import run
    return run(args)


def _cmd_client(args):
    from repro.serve.client import ClientError, PrixServeClient
    import json
    client = PrixServeClient(args.url, retries=args.retries,
                             timeout=args.timeout, seed=args.retry_seed)
    try:
        result = client.query(args.xpath, index=args.index,
                              ordered=args.ordered, variant=args.variant,
                              use_maxgap=not args.no_maxgap,
                              limit=args.limit,
                              deadline_ms=args.deadline_ms)
    except ClientError as error:
        # The typed hierarchy mirrors repro.exitcodes, so the process
        # exit status matches what the equivalent local 'prix query'
        # would have returned for the same failure.
        print(f"error [{type(error).__name__}]: {error}", file=sys.stderr)
        return error.exit_code
    print(json.dumps(result, sort_keys=True, indent=2))
    return 0


def _cmd_stats(args):
    import json
    with open_index(args.index, backend=args.backend) as index:
        summary = index.summary()
    if args.json:
        # Machine-readable, like 'prix scrub --json': canonical keys to
        # scrape instead of parsing the human rendering below.
        print(json.dumps({"target": args.index, **summary},
                         sort_keys=True, indent=2))
        return 0
    print(f"documents: {summary['documents']}")
    if "catalog_records" in summary:
        print(f"catalog: {summary['catalog_records']} record(s), "
              f"{summary['catalog_bytes']} bytes")
    if "shards" in summary:
        print(f"shards: {summary['shard_count']} "
              f"(generation {summary['generation']})")
        for row in summary["shards"]:
            print(f"  {row['shard']}: {row['doc_count']} doc(s) "
                  f"[{row['low']}..{row['high']}] in {row['file']}")
    for variant, row in summary.get("variants", {}).items():
        kind = ("Extended-Prufer (EPIndex)" if variant == "ep"
                else "Regular-Prufer (RPIndex)")
        print(f"\n{variant} -- {kind}")
        print(f"  sequences        : {row['sequences']}")
        print(f"  total symbols    : {row['total_symbols']}")
        print(f"  trie nodes       : {row['trie_nodes']}")
        print(f"  root-leaf paths  : {row['paths']}")
        print(f"  best path sharing: {row['max_path_sharing']} docs")
    return 0


def _cmd_rebalance(args):
    from repro.shard import compact, rebalance
    if args.compact:
        report = compact(args.index, workers=args.workers)
    else:
        report = rebalance(args.index, shards=args.shards,
                           workers=args.workers)
    print(f"generation {report.generation}: {report.shards} shard(s), "
          f"{report.doc_count} document(s)")
    print(f"  reused      : {report.reused}")
    print(f"  rebuilt     : {report.rebuilt}")
    print(f"  moved docs  : {report.moved_documents}")
    print(f"  elapsed     : {report.elapsed_seconds:.2f} s")
    return 0


def make_parser():
    """Build the argparse command-line parser."""
    parser = argparse.ArgumentParser(
        prog="prix", description="PRIX XML twig-query index (ICDE 2004)")
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="build and save an index")
    build.add_argument("index", help="output index file")
    build.add_argument("files", nargs="*", help="XML files (one doc each)")
    build.add_argument("--corpus", choices=list_corpora(),
                       help="use a bundled synthetic corpus instead")
    build.add_argument("--scale", default="small",
                       help="corpus scale (tiny/small/medium/large or int)")
    build.add_argument("--page-size", type=number_flag(int, 1),
                       default=8192)
    build.add_argument("--split", action="store_true",
                       help="treat each root child as its own document "
                            "(DBLP-style corpus files)")
    build.add_argument("--labeler", choices=["bulk", "dynamic"],
                       default="bulk",
                       help="trie labeling: 'dynamic' leaves slack for "
                            "later 'insert' commands")
    build.add_argument("--durable", action="store_true",
                       help="write-ahead log every mutation to "
                            "INDEX.wal so a crash is recoverable "
                            "with 'prix recover'")
    build.add_argument("--guard", action="store_true",
                       help="keep per-page checksums in INDEX.sum; "
                            "reads verify, repair from the WAL, or fail "
                            "with a typed corruption error")
    build.add_argument("--shards", type=number_flag(int, 1), metavar="N",
                       help="partition into N doc-id-range shards; "
                            "INDEX becomes a directory holding one "
                            "index file per shard plus a checksummed "
                            "prixshard.json manifest (docs/SHARDING.md)")
    build.add_argument("--workers", type=number_flag(int, 1), default=1,
                       metavar="W",
                       help="build shards with W processes (with "
                            "--shards; output is identical at any W)")
    build.set_defaults(func=_cmd_build)

    query = commands.add_parser("query", help="run a twig query")
    query.add_argument("index", help="index file or shard directory")
    query.add_argument("xpath", help="XPath-subset twig query")
    query.add_argument("--ordered", action="store_true",
                       help="match the twig's branch order only")
    query.add_argument("--variant", choices=["rp", "ep"],
                       help="force an index variant")
    query.add_argument("--no-maxgap", action="store_true",
                       help="disable Theorem 4 pruning")
    query.add_argument("--cold", action="store_true",
                       help="flush the buffer pool first")
    query.add_argument("--limit", type=number_flag(int, 0), default=20,
                       help="max matches to print")
    query.add_argument("--explain", action="store_true",
                       help="print execution statistics")
    add_budget_flags(query)
    query.add_argument("--backend", choices=["file", "mmap", "arena"],
                       default="file",
                       help="storage backend to open the index with: "
                            "'file' (writable pager), 'mmap' (read-only "
                            "shared pages) or 'arena' (warm in-memory "
                            "snapshot, no disk I/O after open)")
    query.set_defaults(func=_cmd_query)

    insert = commands.add_parser(
        "insert", help="insert one XML document into a saved index "
                       "(requires an index built with --labeler dynamic)")
    insert.add_argument("index", help="index file")
    insert.add_argument("file", help="XML file (one document)")
    insert.add_argument("--doc-id", type=int, default=None,
                        help="document id (default: next free)")
    insert.set_defaults(func=_cmd_insert)

    delete = commands.add_parser(
        "delete", help="remove one document from a saved index")
    delete.add_argument("index", help="index file")
    delete.add_argument("doc_id", type=int, help="document id")
    delete.set_defaults(func=_cmd_delete)

    explain_cmd = commands.add_parser(
        "explain", help="show the execution plan for a query")
    explain_cmd.add_argument("index", help="index file")
    explain_cmd.add_argument("xpath", help="XPath-subset twig query")
    explain_cmd.add_argument("--variant", choices=["rp", "ep"])
    explain_cmd.set_defaults(func=_cmd_explain)

    stats = commands.add_parser(
        "stats", help="summarize a saved index or shard directory")
    stats.add_argument("index", help="index file or shard directory")
    stats.add_argument("--backend", choices=["file", "mmap", "arena"],
                       default="file",
                       help="storage backend to open the index with")
    stats.add_argument("--json", action="store_true",
                       help="emit a machine-readable summary (mirrors "
                            "'prix scrub --json')")
    stats.set_defaults(func=_cmd_stats)

    rebalance_cmd = commands.add_parser(
        "rebalance", help="re-cut a shard directory into near-equal "
                          "doc-id ranges, publishing a new manifest "
                          "generation (docs/SHARDING.md)")
    rebalance_cmd.add_argument("index", help="shard directory")
    rebalance_cmd.add_argument("--shards", type=number_flag(int, 1),
                               default=None, metavar="N",
                               help="target shard count (default: keep)")
    rebalance_cmd.add_argument("--workers", type=number_flag(int, 1),
                               default=1, metavar="W",
                               help="rebuild processes")
    rebalance_cmd.add_argument("--compact", action="store_true",
                               help="rebuild every shard from its live "
                                    "documents, dropping deleted-doc "
                                    "residue")
    rebalance_cmd.set_defaults(func=_cmd_rebalance)

    # Function-local import: importing repro.cli as a library never
    # drags the serving tier in.
    serve = commands.add_parser(
        "serve", help="serve twig queries over HTTP from one or more "
                      "saved indexes (see docs/SERVING.md)")
    from repro.serve.server import add_serve_arguments
    add_serve_arguments(serve)
    serve.set_defaults(func=_cmd_serve)

    client_cmd = commands.add_parser(
        "client", help="query a running 'prix serve' over HTTP with "
                       "retry/backoff and typed errors (see "
                       "docs/ROBUSTNESS.md)")
    client_cmd.add_argument("url",
                            help="server base URL, e.g. "
                                 "http://127.0.0.1:8399")
    client_cmd.add_argument("xpath", help="XPath-subset twig query")
    client_cmd.add_argument("--index", default="default",
                            help="mount name to query (default: default)")
    client_cmd.add_argument("--ordered", action="store_true",
                            help="match the twig's branch order only")
    client_cmd.add_argument("--variant", choices=["rp", "ep"],
                            help="force an index variant")
    client_cmd.add_argument("--no-maxgap", action="store_true",
                            help="disable Theorem 4 pruning")
    client_cmd.add_argument("--limit", type=int, default=None,
                            help="max matches in the response")
    client_cmd.add_argument("--retries", type=int, default=5,
                            help="max retries for retryable failures "
                                 "(transport errors, 408/429/500/503)")
    client_cmd.add_argument("--retry-seed", type=int, default=0,
                            help="seed for the backoff jitter RNG "
                                 "(deterministic, replayable)")
    client_cmd.add_argument("--timeout", type=float, default=30.0,
                            help="per-request socket timeout in seconds")
    client_cmd.add_argument("--deadline-ms", type=float, default=None,
                            metavar="MS",
                            help="propagate this deadline to the server "
                                 "via the X-Prix-Deadline-Ms header")
    client_cmd.set_defaults(func=_cmd_client)

    recover = commands.add_parser(
        "recover", help="replay the committed write-ahead-log tail into "
                        "a crashed index, then checkpoint it")
    recover.add_argument("index", help="index file")
    recover.add_argument("--wal", default=None,
                         help="log file (default: INDEX.wal)")
    recover.add_argument("--no-checkpoint", action="store_true",
                         help="replay only; keep the log as-is")
    recover.set_defaults(func=_cmd_recover)

    checkpoint = commands.add_parser(
        "checkpoint", help="flush a durable index and truncate its log")
    checkpoint.add_argument("index", help="index file")
    checkpoint.add_argument("--wal", default=None,
                            help="log file (default: INDEX.wal)")
    checkpoint.set_defaults(func=_cmd_checkpoint)

    scrub = commands.add_parser(
        "scrub", help="sweep every page and the catalog of an index, "
                      "verifying checksums and repairing from the WAL "
                      "where possible; a directory argument scrubs "
                      "every index found under it")
    scrub.add_argument("index", help="index file or directory")
    scrub.add_argument("--wal", default=None,
                       help="log file to repair from (default: INDEX.wal)")
    scrub.add_argument("--stamp", action="store_true",
                       help="adopt unstamped pages: checksum their "
                            "current content so later reads are verified")
    scrub.add_argument("--json", action="store_true",
                       help="emit the report as JSON (the same "
                            "serialization the serve tier's /healthz "
                            "endpoint returns)")
    scrub.set_defaults(func=_cmd_scrub)
    return parser


def main(argv=None):
    """CLI entry point; returns a process exit code.

    Failures surface as one-line typed errors, never tracebacks, with
    the code telling scripts *what kind* of failure
    (:func:`repro.exitcodes.classify`, as for a ``prix serve`` error
    body): ``EXIT_USAGE`` (2) for a missing input file or unparsable
    query, ``EXIT_CORRUPTION`` (3) for checksum, superblock, or
    write-ahead-log corruption (including recovery failures),
    ``EXIT_TIMEOUT`` (4), ``EXIT_ERROR`` (1) for everything else.
    """
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as error:  # noqa: BLE001 - boundary by design
        kind = classify(error)
        label = ("budget" if kind == "budget-exhausted"
                 else type(error).__name__)
        print(f"error [{label}]: {describe(error)}", file=sys.stderr)
        return EXIT_CODES[kind]


if __name__ == "__main__":
    sys.exit(main())
