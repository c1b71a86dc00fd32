"""Command line of the benchmark.

``python3 -m prixbench --workload W --seed N --seconds S --trace 0|1``
is the form ``BENCHMARK.json`` declares: one workload, one mode, and the
contract's result object as the last line of standard output.

``python -m prixbench run --workload all --trace --out FILE`` writes a
full report (every workload, both modes) that ``python -m prixbench
compare A.json B.json`` judges against the bounds, and
``python -m prixbench pin`` regrows ``prixbench/expected/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from prixbench import DEFAULT_SEED, REPO_ROOT, SRC_DIR

WORKLOAD_NAMES = ("trie_warm", "auto_smallpool", "serve_c2",
                  "shard4_scatter", "churn_mixed")


def _parser():
    parser = argparse.ArgumentParser(
        prog="python -m prixbench",
        description="the PRIX reproduction's benchmark")
    parser.add_argument("command", nargs="?", default="run",
                        choices=("run", "compare", "pin"))
    parser.add_argument("files", nargs="*",
                        help="compare: two report files, A then B")
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long (default: the "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="measure exactly this many rounds instead")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run, per-layer metrics only")
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    parser.add_argument("--clients", type=int, default=None,
                        help="serve_c2 client threads (default 2)")
    parser.add_argument("--out", default=None,
                        help="write the full report to this file")
    return parser


def host_info():
    """What a reader needs to judge the numbers: CPUs, Python, commit."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"    # a checkout that is not a git repository
    return {"host_cpus": os.cpu_count() or 1,
            "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit}


def _print_table(report):
    rows = report["per_layer"] if report["trace"] else report["end_to_end"]
    mode = "traced" if report["trace"] else "end to end"
    print(f"## {report['workload']} ({mode}): {report['rounds']} rounds x "
          f"{report['ops_per_round']} ops, {report['wall_s']:.1f} s wall, "
          f"{report['failed']} of {report['attempted']} ops failed")
    for name, row in rows.items():
        if report["trace"]:
            print(f"  {name:46s} {row['value']:14.4f} {row['unit']}")
        else:
            print(f"  {name:30s} {row['median']:14.4f} {row['unit']:8s} "
                  f"iqr {row['iqr']:.4f} n={row['n']}")
    if not report["trace"]:
        raw = report["as_measured"]
        print(f"  host factor {report['host_factor']['median']:.3f}; as "
              f"measured: p50 {raw['query_p50_ms']:.4f} ms, p95 "
              f"{raw['query_p95_ms']:.4f} ms, {raw['throughput_qps']:.2f} "
              "ops/s")
    for failure in report["failures"]:
        print(f"  FAILED op {failure['op_id']} round {failure['round']} "
              f"({failure['kind']}): {failure['reason']}")


def _run_isolated(args, name, mode):
    """One (workload, mode) of an all-workload run, in its own process:
    peak RSS and collector state must not carry over between them."""
    from prixbench.runner import OUT_DIR
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"report-{name}-{mode}-{os.getpid()}.json")
    command = [sys.executable, "-m", "prixbench", "--workload", name,
               "--trace", str(mode), "--seed", str(args.seed),
               "--scale", args.scale, "--out", path]
    for flag, value in (("--seconds", args.seconds),
                        ("--rounds", args.rounds),
                        ("--clients", args.clients)):
        if value is not None:
            command += [flag, str(value)]
    try:
        done = subprocess.run(command, cwd=REPO_ROOT, text=True,
                              capture_output=True)
        # The child's last line is its contract result; the table is ours.
        print("\n".join(done.stdout.splitlines()[1:-1]))
        if not os.path.exists(path):
            raise RuntimeError(f"{name} (trace {mode}) produced no "
                               f"report:\n{done.stderr}")
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)["reports"][0]
    finally:
        if os.path.exists(path):
            os.unlink(path)


def _run(args):
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print("prixbench: no src/repro beside the benchmark; it measures "
              "the program in its own checkout", file=sys.stderr)
        return 2
    from prixbench import runner

    spec = runner.benchmark_spec()
    host = host_info()
    limit = min(host["host_cpus"], 2)
    if args.clients is not None and args.clients > limit:
        print(f"prixbench: --clients {args.clients} exceeds "
              f"min(nproc, 2) = {limit}", file=sys.stderr)
        return 2
    if host["host_cpus"] == 1:
        print("warning: host_cpus == 1; serve_c2 clients and the shard "
              "build share one core, so their numbers show overhead only")
    seconds = args.seconds
    if seconds is None and args.rounds is None:
        seconds = float(spec["run_seconds"])
    print(f"# prixbench: host_cpus={host['host_cpus']} "
          f"python={host['python']} commit={host['commit'][:12]} "
          f"seed={args.seed} scale={args.scale} "
          + (f"rounds={args.rounds}" if args.rounds is not None
             else f"seconds={seconds:g}"))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    modes = (0, 1) if (args.workload == "all" and args.trace) \
        else (args.trace,)

    if len(names) * len(modes) > 1:
        reports = [_run_isolated(args, name, mode)
                   for name in names for mode in modes]
    else:
        reports = [runner.run_workload(
            names[0], args.seed, seconds=seconds, rounds=args.rounds,
            trace=bool(modes[0]), scale=args.scale, clients=args.clients)]
        _print_table(reports[0])
    failed = sum(report["failed"] for report in reports)
    if args.out:
        document = dict(host, seed=args.seed, scale=args.scale,
                        seconds=seconds, rounds=args.rounds,
                        reports=reports)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if len(reports) == 1:
        print(json.dumps(runner.contract_line(reports[0])))
    return 1 if failed else 0


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.command == "compare":
        from prixbench import compare
        if len(args.files) != 2:
            print("compare needs two report files", file=sys.stderr)
            return 2
        return compare.main(*args.files)
    if args.command == "pin":
        from prixbench import pin
        return pin.main()
    return _run(args)
