"""prixbench: the repo's one benchmark (see ``prixbench/README.md``).

Five named workloads, end-to-end metrics with regression bounds, and
per-layer traced numbers, all declared in the root ``BENCHMARK.json``.
The package measures the program *from outside*: it only calls public
functions of ``src/repro`` and owns its inputs.

Importing the package puts the checkout's ``src/`` first on ``sys.path``
so the code measured is the code beside the benchmark, never an
installed copy.
"""

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(REPO_ROOT, "prixbench")
SRC_DIR = os.path.join(REPO_ROOT, "src")

if os.path.isdir(os.path.join(SRC_DIR, "repro")) and SRC_DIR not in sys.path:
    sys.path.insert(0, SRC_DIR)

#: Seed of the pinned twig pools and the default ``--seed``.
DEFAULT_SEED = 2004
