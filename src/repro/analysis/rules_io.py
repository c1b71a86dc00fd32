"""I/O accounting and resource-lifetime rules.

These two rules defend the paper's "Disk IO pages" columns (Tables 4-9):
the numbers are only meaningful if every page that reaches disk flows
through :class:`~repro.storage.pager.Pager` (where it is counted) and
every storage handle is flushed before a benchmark reads the file back.
"""

from __future__ import annotations

import ast
from pathlib import PurePath

from repro.analysis.core import ImportTracker, Rule, path_in_packages

#: Packages whose page traffic must be pager-mediated.
PAGED_PACKAGES = (("repro", "storage"), ("repro", "prix"), ("repro", "trie"))

#: ``os`` functions that touch file contents or the directory tree.
OS_FILE_FUNCS = frozenset({
    "open", "fdopen", "read", "write", "pread", "pwrite", "sendfile",
    "remove", "unlink", "rename", "replace", "truncate", "ftruncate",
    "mkstemp", "mkdir", "makedirs",
})

#: ``io`` entry points that open real files (``io.BytesIO`` is memory-only
#: and allowed -- the in-memory pager depends on it).
IO_FILE_FUNCS = frozenset({"open", "FileIO"})


class NoRawIoRule(ImportTracker, Rule):
    """Forbid raw file I/O in the paged packages.

    Any ``open()`` / ``os.*`` / ``io.open`` call in ``repro.storage``,
    ``repro.prix`` or ``repro.trie`` bypasses the pager and silently
    corrupts the physical-read accounting.  Three gateways are
    sanctioned and exempt: ``pager.py`` (page traffic, counted in
    ``physical_reads``/``physical_writes``), ``wal.py`` (log traffic,
    counted in ``wal_appends``/``wal_bytes``; deliberately *not* page
    traffic, see ``docs/DURABILITY.md``) and
    ``guard.py`` (checksum-sidecar traffic, counted in ``guard_*``;
    see ``docs/ROBUSTNESS.md``).  Any other legitimate exception (e.g.
    the superblock sniff in ``prix/index.py``) must carry an explicit
    ``# prixlint: disable=no-raw-io``, visible where it is made.
    """

    name = "no-raw-io"
    description = ("open()/os.* file calls in repro.storage/prix/trie "
                   "bypass the Pager and corrupt I/O accounting")
    watched_modules = ("os", "io")

    #: The sanctioned raw-I/O gateway modules of ``repro.storage``.
    GATEWAY_FILES = ("pager.py", "wal.py", "guard.py")

    def applies_to(self, source):
        if PurePath(source.path).name in self.GATEWAY_FILES:
            return False
        return path_in_packages(source, PAGED_PACKAGES)

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            self.report(node, "raw open() call; page traffic must go "
                              "through the Pager so IOStats stays truthful")
        else:
            resolved = self.resolve_call(node)
            if resolved is not None:
                module, func = resolved
                flagged = (OS_FILE_FUNCS if module == "os"
                           else IO_FILE_FUNCS)
                if func in flagged:
                    self.report(node, f"raw {module}.{func}() call; page "
                                      "traffic must go through the Pager "
                                      "so IOStats stays truthful")
        self.generic_visit(node)


#: Classes whose instances own a file handle or dirty pages.
TRACKED_HANDLES = frozenset({"Pager", "BufferPool", "FilePagerBackend",
                             "PrixIndex", "WriteAheadLog", "PageGuard"})


def _tracked_constructor(node):
    """Class name when ``node`` constructs a tracked handle, else None.

    Matches direct construction (``Pager(f)``, ``BufferPool(pager)``)
    and alternate-constructor classmethods (``Pager.open(path)``,
    ``PrixIndex.build(docs)``).
    """
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name) and func.id in TRACKED_HANDLES:
        return func.id
    if (isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in TRACKED_HANDLES):
        return func.value.id
    return None


class ResourceSafetyRule(Rule):
    """A locally constructed storage handle must not leak.

    For every ``name = Pager/BufferPool/PrixIndex(...)`` binding inside a
    function, the name must subsequently be closed, context-managed,
    returned/yielded, re-bound elsewhere (attribute, container, alias) or
    passed to another call -- otherwise dirty pages can be dropped on the
    floor and benchmarks measure a file that was never flushed.

    The check is intentionally flow-insensitive: a discharge anywhere in
    the function counts for all paths.  That misses a leak on an early
    branch but never cries wolf on correct ``try/finally`` code, which is
    the right trade-off for a gating linter.
    """

    name = "resource-safety"
    description = ("Pager/BufferPool/PrixIndex constructed in a function "
                   "must be closed, returned, or handed off")

    def visit_FunctionDef(self, node):
        self._check_function(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _check_function(self, func):
        acquisitions = []  # (local name, class name, assign node)
        for stmt in ast.walk(func):
            if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)):
                cls = _tracked_constructor(stmt.value)
                if cls is not None:
                    acquisitions.append((stmt.targets[0].id, cls, stmt))
        if not acquisitions:
            return
        discharged = set()
        for sub in ast.walk(func):
            discharged |= self._discharges(sub)
        for name, cls, stmt in acquisitions:
            if name not in discharged:
                self.report(stmt, f"{cls} bound to {name!r} is never "
                                  "closed, returned, context-managed, or "
                                  "handed off; dirty pages may be lost")

    @staticmethod
    def _names_within(node):
        if node is None:
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id

    def _discharges(self, node):
        """Local names this single statement/expression discharges."""
        names = set()
        if isinstance(node, ast.Call):
            # x.close() / x.flush_and_clear() style finalizers.
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.attr in ("close", "flush_and_clear")):
                names.add(func.value.id)
            # Handle passed to any call: ownership escapes (for example
            # ``BufferPool(pager)`` assumes responsibility for ``pager``).
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                names.update(self._names_within(arg))
        elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            names.update(self._names_within(node.value))
        elif isinstance(node, ast.withitem):
            names.update(self._names_within(node.context_expr))
        elif isinstance(node, ast.Assign):
            # Storing into an attribute/container, or aliasing to another
            # name, hands the handle to an owner this rule cannot track.
            if not (len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                names.update(self._names_within(node.value))
            elif isinstance(node.value, ast.Name):
                names.add(node.value.id)
        return names
