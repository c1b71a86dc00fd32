"""Source invariants that no behavioural test would catch.

Each check walks the project's own trees (``src/repro``, ``benchmarks``,
``examples``, ``tests``) with :mod:`ast` and asserts that nothing
offends.  A check is here only because planting its defect in the tree
made no other test fail -- the audit table in ``ROADMAP.md``
("Settled") names the test that catches every other planted defect.
Exceptions are the explicit ``(file, function)`` allowlists below; there
is no suppression comment.

The structural guards after the checks keep deleted designs deleted:
one page substrate, one reader for an index file, no per-mount failure
state, and no test harness in the product's import graph.
"""

import ast
import os
import re
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
TREES = (SRC, REPO_ROOT / "benchmarks", REPO_ROOT / "examples",
         REPO_ROOT / "tests")


def python_files(*roots):
    """Every ``.py`` file under ``roots`` (default: the whole tree)."""
    return [path for root in roots or TREES
            for path in sorted(root.rglob("*.py"))
            if "__pycache__" not in path.parts]


@pytest.fixture(scope="module")
def trees():
    """Every file of the tree, parsed once for the checks below."""
    return {path: ast.parse(path.read_text(), filename=str(path))
            for path in python_files()}


def by_function(tree):
    """``(enclosing function name, node)`` for every node of ``tree``;
    the name is ``""`` at module level."""
    stack = [(tree, "")]
    while stack:
        node, function = stack.pop()
        for child in ast.iter_child_nodes(node):
            yield function, child
            stack.append((child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef))
                else function))


def where(path, function, node):
    return (f"{path.relative_to(REPO_ROOT)}:{node.lineno} "
            f"in {function or '<module>'}")


# -- raw file I/O --------------------------------------------------------
#
# The paper's "Disk IO pages" columns count what the Pager reads and
# writes.  An ``open()`` or ``os`` file call elsewhere in the paged
# packages moves bytes the counters never see.

PAGED = ("storage", "prix", "trie")

#: File calls by module (``io.BytesIO`` is memory-only and allowed).
RAW_IO = {
    "os": {"open", "fdopen", "read", "write", "pread", "pwrite", "sendfile",
           "remove", "unlink", "rename", "replace", "truncate", "ftruncate",
           "mkstemp", "mkdir", "makedirs"},
    "io": {"open", "FileIO"},
}

#: ``(file under src/repro, function)`` that may touch files directly:
#: the Pager's files (page traffic, counted in ``physical_*``; the log
#: reads its frames through the same positional ``read_at``), the log
#: (``wal_*``), the checksum sidecar (``guard_*``), and two reads made
#: before any pager exists (recovery's reopen, the superblock).
RAW_IO_ALLOWED = {
    ("storage/pager.py", "unlink_files"),
    ("storage/pager.py", "read_at"),
    ("storage/pager.py", "write_at"),
    ("storage/pager.py", "open"),
    ("storage/pager.py", "snapshot"),
    ("storage/pager.py", "mapped"),
    ("storage/wal.py", "open"),
    ("storage/guard.py", "open"),
    ("storage/guard.py", "sidecar_page_size"),
    ("storage/recovery.py", "recover_path"),
    ("prix/index.py", "_read_superblock"),
}


def raw_io(tree):
    """``(function, node)`` of every raw file call or import in ``tree``."""
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name in RAW_IO}
    for function, node in by_function(tree):
        if isinstance(node, ast.ImportFrom):
            if RAW_IO.get(node.module, set()) & {a.name for a in node.names}:
                yield function, node
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                yield function, node
            elif (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.attr in RAW_IO.get(
                        modules.get(func.value.id), ())):
                yield function, node


def test_paged_packages_do_file_io_only_through_the_gateways(trees):
    found, used = [], set()
    for path, tree in trees.items():
        if not any(SRC / package in path.parents for package in PAGED):
            continue
        relative = path.relative_to(SRC).as_posix()
        for function, node in raw_io(tree):
            if (relative, function) in RAW_IO_ALLOWED:
                used.add((relative, function))
            else:
                found.append(where(path, function, node))
    assert found == []
    assert used == RAW_IO_ALLOWED       # no stale exception


# -- storage handles -----------------------------------------------------
#
# A Pager, pool, WAL, guard or index bound to a local name must be
# closed, context-managed, returned, or handed to an owner; otherwise
# dirty pages and open files are dropped with it.  The check is
# flow-insensitive: a discharge anywhere in the function counts.

HANDLES = {"Pager", "BufferPool", "FilePagerBackend", "PrixIndex",
           "WriteAheadLog", "PageGuard"}
CONSTRUCTORS = {"open", "build", "in_memory", "mapped"}


def constructs_handle(node):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in HANDLES
    return (isinstance(func, ast.Attribute) and func.attr in CONSTRUCTORS
            and isinstance(func.value, ast.Name) and func.value.id in HANDLES)


def names_in(node):
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def discharged(function):
    """Local names ``function`` closes, returns, manages or hands off."""
    names = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.attr in ("close", "flush_and_clear")):
                names.add(func.value.id)
            for arg in (*node.args, *(kw.value for kw in node.keywords)):
                names |= names_in(arg)
        elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                names |= names_in(node.value)
        elif isinstance(node, ast.withitem):
            names |= names_in(node.context_expr)
        elif isinstance(node, ast.Assign):
            if not (len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                names |= names_in(node.value)      # stored in an owner
            elif isinstance(node.value, ast.Name):
                names.add(node.value.id)            # aliased
    return names


def leaked_handles(tree):
    """``(function, assignment)`` of every handle ``tree`` never lets go."""
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound = [node for node in ast.walk(function)
                 if isinstance(node, ast.Assign) and len(node.targets) == 1
                 and isinstance(node.targets[0], ast.Name)
                 and constructs_handle(node.value)]
        if bound:
            released = discharged(function)
            yield from ((function.name, node) for node in bound
                        if node.targets[0].id not in released)


def test_every_storage_handle_is_released(trees):
    assert {path.parent.name for path in trees} >= {
        "storage", "prix", "benchmarks", "examples", "tests"}
    assert [where(path, function, node)
            for path, tree in trees.items()
            for function, node in leaked_handles(tree)] == []


# -- default arguments ---------------------------------------------------
#
# A mutable default is one object shared by every call: a per-call
# cache becomes state shared across indexes, requests or errors.

MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "OrderedDict",
                 "defaultdict", "Counter", "deque"}
MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                    ast.SetComp)


def mutable_defaults(tree):
    """``(function, default)`` of every mutable default in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            for default in (*node.args.defaults, *node.args.kw_defaults):
                if isinstance(default, MUTABLE_LITERALS) or (
                        isinstance(default, ast.Call)
                        and isinstance(default.func, ast.Name)
                        and default.func.id in MUTABLE_CALLS):
                    yield getattr(node, "name", "<lambda>"), default


def test_no_default_argument_is_mutable(trees):
    assert [where(path, function, node)
            for path, tree in trees.items()
            for function, node in mutable_defaults(tree)] == []


# -- bare except ---------------------------------------------------------
#
# ``except:`` also catches KeyboardInterrupt and SystemExit: in a flush
# path it swallows the interrupt and leaves a torn page file behind a
# run that looks clean.


def test_no_bare_except(trees):
    assert [where(path, function, node)
            for path, tree in trees.items()
            for function, node in by_function(tree)
            if isinstance(node, ast.ExceptHandler) and node.type is None] \
        == []


# -- layering ------------------------------------------------------------
#
# The layer map of docs/ARCHITECTURE.md.  A module belongs to the layer
# whose listed prefix matches the most leading parts of its dotted name;
# modules matching none (repro.cli, repro.datasets, repro.bench, ...)
# are unlayered.  A layered module may import its own layer and the
# layers ALLOWED lists for it, directly or through unlayered modules.

#: layer -> dotted module prefixes.
LAYERS = {
    # Pure algorithmic core: Prufer sequences and the XML toolkit.
    "foundation": ("repro.xmlkit", "repro.prufer"),
    # The logical index layers of the paper: virtual trie, PRIX index
    # and query processor.
    "logical": ("repro.trie", "repro.prix", "repro.query"),
    # The sanctioned doorway: the one backend class and open_backend,
    # the B+-tree / record-store page layouts, codecs, typed errors and
    # I/O statistics.
    "storage-api": ("repro.storage", "repro.storage.backend",
                    "repro.storage.bptree", "repro.storage.records",
                    "repro.storage.codec", "repro.storage.errors",
                    "repro.storage.stats"),
    # The prix serve process (docs/SERVING.md).
    "serving": ("repro.serve",),
    # Shard catalog, parallel builder, scatter-gather, rebalance
    # (docs/SHARDING.md): mounted *by* serving, never importing it.
    "shard": ("repro.shard",),
    # Physical substrate: pagers, buffer pool, WAL, checksum guard,
    # recovery, latches.  Nothing above storage-api may name these
    # modules.
    "storage-impl": ("repro.storage.pager", "repro.storage.buffer_pool",
                     "repro.storage.wal", "repro.storage.guard",
                     "repro.storage.recovery", "repro.storage.latch"),
}

#: layer -> the other layers its modules may import.
ALLOWED = {
    "foundation": (),
    "logical": ("foundation", "storage-api"),
    "storage-api": ("storage-impl",),
    "serving": ("foundation", "logical", "storage-api", "shard"),
    "shard": ("foundation", "logical", "storage-api"),
    "storage-impl": ("storage-api",),
}

PREFIX_LAYER = {prefix: layer for layer, prefixes in LAYERS.items()
                for prefix in prefixes}


def layer_of(module):
    parts = module.split(".")
    for width in range(len(parts), 0, -1):
        layer = PREFIX_LAYER.get(".".join(parts[:width]))
        if layer is not None:
            return layer
    return None


def import_graph(trees):
    """module -> the ``repro`` modules it imports, function-local imports
    included (a lazy import is still a dependency)."""
    files = {}
    for path, tree in trees.items():
        if SRC in path.parents:
            parts = path.relative_to(SRC.parent).with_suffix("").parts
            files[".".join(parts[:-1] if parts[-1] == "__init__"
                           else parts)] = tree

    def resolve(name):
        while name and name not in files:
            name = name.rpartition(".")[0]
        return name or None

    graph = {}
    for module, tree in files.items():
        targets = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                targets.update(resolve(alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                targets.update(resolve(f"{node.module}.{alias.name}")
                               for alias in node.names)
        graph[module] = targets - {None, module}
    return graph


def layering_violations(graph):
    """``a -> ... -> z`` for every layered module that reaches a layer it
    may not import, by the shortest chain."""
    chains = []
    for module in sorted(graph):
        layer = layer_of(module)
        if layer is None:
            continue
        queue, seen = deque([(module,)]), {module}
        while queue:
            chain = queue.popleft()
            for target in sorted(graph[chain[-1]] - seen):
                seen.add(target)
                reached = layer_of(target)
                if reached is None:
                    queue.append(chain + (target,))     # pass through
                elif reached != layer and reached not in ALLOWED[layer]:
                    chains.append(" -> ".join(chain + (target,)))
    return chains


def test_imports_respect_the_layer_map(trees):
    graph = import_graph(trees)
    assert set(graph) >= {prefix for prefixes in LAYERS.values()
                          for prefix in prefixes}
    assert layering_violations(graph) == []


# -- structural guards ---------------------------------------------------


def offenders(pattern, paths):
    """``file:line`` of every line of ``paths`` matching ``pattern``."""
    return [f"{path.relative_to(SRC)}:{number}"
            for path in paths
            for number, line in enumerate(
                path.read_text().splitlines(), start=1)
            if pattern.search(line)]


class TestIndexKindStaysBehindTheShardPackage:
    def test_no_front_end_asks_which_kind_of_index_it_holds(self):
        """`open_index` / `scrub_index` are the only code that tells a
        monolithic index from a shard directory (docs/SHARDING.md)."""
        fork = re.compile(r"is_shard_directory\(|"
                          r"isinstance\([^)]*ShardedIndex\)")
        assert offenders(fork, [path for path in sorted(SRC.rglob("*.py"))
                                if path.parent != SRC / "shard"]) == []


class TestOnePageSubstrate:
    def test_storage_defines_exactly_one_pager_surface(self):
        """Backend kinds differ in the file-like object ``Pager`` is
        handed, never in a second class re-implementing its read and
        write path (which the runtime sanitizer would not patch)."""
        surface = {"allocate", "read", "read_raw", "write", "repair_write"}
        pagers = [f"{path.name}:{node.name}"
                  for path in sorted((SRC / "storage").glob("*.py"))
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.ClassDef)
                  and surface <= {item.name for item in node.body
                                  if isinstance(item, ast.FunctionDef)}]
        assert pagers == ["pager.py:Pager"]

    @staticmethod
    def subclasses_of(base, root):
        """``file:Class`` of every class under ``root`` naming ``base``
        among its bases."""
        return [f"{path.name}:{node.name}"
                for path in sorted(root.rglob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ClassDef)
                and base in {ast.unparse(b).rpartition(".")[2]
                             for b in node.bases}]

    def test_one_backend_class_and_no_protocol(self):
        """The product, the conformance test and the sanitizer all look
        at the same class: one ``BufferPool`` subclass owns the stack,
        and no structural ``Protocol`` restates its surface."""
        assert self.subclasses_of("BufferPool", SRC) == [
            "backend.py:FilePagerBackend"]
        assert self.subclasses_of("Protocol", SRC / "storage") == []

    def test_the_second_wiring_and_its_helpers_stay_deleted(self):
        """... and no suppression comment of the retired linter is left
        to pretend a check is waived."""
        gone = re.compile(r"StorageBackend|MmapBackend|create_backend|"
                          r"_open_guard|_open_wal|"
                          r"_register_with_sanitizer")
        assert offenders(gone, sorted(SRC.rglob("*.py"))) == []
        directive = re.compile(r"#\s*prixlint:")
        assert [str(path.relative_to(REPO_ROOT))
                for path in python_files()
                if path != Path(__file__).resolve()
                and directive.search(path.read_text())] == []


class TestOneReaderForAnIndexFile:
    """``repro.prix.index`` alone reads a superblock or a catalog record
    and ``PrixIndex.open`` alone recovers and attaches a saved index
    (docs/ARCHITECTURE.md); scrub is composed above storage."""

    def test_only_the_index_module_names_the_superblock(self):
        names = re.compile(r"_SUPERBLOCK|_parse_superblock|_SUPER_MAGIC")
        assert offenders(
            names, [path for path in sorted(SRC.rglob("*.py"))
                    if path != SRC / "prix" / "index.py"]) == []

    def test_storage_never_reaches_up_into_the_index(self):
        upward = re.compile(r"^\s*(from|import)\s+repro\.prix\b")
        assert offenders(
            upward, sorted((SRC / "storage").glob("*.py"))) == []

    def test_the_second_readers_and_the_option_guesses_stay_deleted(self):
        gone = re.compile(r"open_from|recover_files|backend_from_files|"
                          r"_check_catalog|_infer_options|"
                          r'getattr\(self, "_options"')
        assert offenders(gone, sorted(SRC.rglob("*.py"))) == []


class TestOneRequestFailsAlone:
    """The serving tier keeps no per-mount failure state, and chaos is
    injected only from the test side (docs/ROBUSTNESS.md)."""

    def test_no_breaker_module_and_no_circuit_error_kind(self):
        from repro.serve.protocol import ERROR_KINDS
        assert not (SRC / "serve" / "breaker.py").exists()
        assert "circuit-open" not in ERROR_KINDS

    def test_no_chaos_parameter_outside_the_fault_module(self):
        """Both fault models live under ``tests/`` (``faults.py`` for
        crashes and corruption, ``chaos_backend.py`` for live read
        faults, reached through ``helpers.py::ChaosOpens``): no product
        module defines one and no product signature takes a chaos
        argument."""
        def parameters(function):
            args = function.args
            return [arg.arg for arg in (*args.posonlyargs, *args.args,
                                        *args.kwonlyargs, args.vararg,
                                        args.kwarg) if arg is not None]

        assert [path.name for path in python_files(SRC)
                if path.name in ("faults.py", "chaos_backend.py")] == []
        functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        found = [f"{path.relative_to(SRC)}:{node.lineno}"
                 for path in sorted(SRC.rglob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, functions)
                 and any("chaos" in name for name in parameters(node))]
        assert found == []


class TestProductImportsNoTooling:
    """A ``prix`` command and the storage package load no analysis code
    and no fault injector: those are test-side harnesses."""

    def test_cli_and_storage_imports(self):
        probe = ("import sys\n"
                 "import repro.cli\n"
                 "repro.cli.make_parser()\n"
                 "import repro.storage\n"
                 "print(sorted(name for name in sys.modules\n"
                 "             if name.startswith('repro.analysis')\n"
                 "             or name.rpartition('.')[2] in\n"
                 "             ('faults', 'chaos_backend')))\n")
        env = {key: value for key, value in os.environ.items()
               if key != "PRIX_SANITIZE"}
        env["PYTHONPATH"] = str(SRC.parent)
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"
