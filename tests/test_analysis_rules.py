"""Per-rule fixtures for prixlint: each rule has snippets that trigger
it and snippets that must pass clean."""

import textwrap

import pytest

from repro.analysis.core import SourceFile, check_source
from repro.analysis.rules_determinism import SeededRngRule
from repro.analysis.rules_hygiene import (NoBareExceptRule,
                                          NoMutableDefaultArgRule)
from repro.analysis.rules_io import NoRawIoRule, ResourceSafetyRule
from repro.analysis.rules_stats import StatsIntDisciplineRule

STORAGE_PATH = "src/repro/storage/bptree.py"


def findings(code, rule, path=STORAGE_PATH):
    source = SourceFile(path, textwrap.dedent(code))
    return check_source(source, [rule])


def rule_names(code, rule, path=STORAGE_PATH):
    return [finding.rule for finding in findings(code, rule, path)]


class TestNoRawIo:
    def test_builtin_open_flagged_in_storage(self):
        assert rule_names("handle = open('f.bin', 'rb')\n",
                          NoRawIoRule) == ["no-raw-io"]

    def test_os_file_call_flagged(self):
        code = "import os\nos.remove('f.bin')\n"
        assert rule_names(code, NoRawIoRule) == ["no-raw-io"]

    def test_os_alias_and_from_import_resolved(self):
        code = ("import os as _os\nfrom os import unlink as _rm\n"
                "_os.rename('a', 'b')\n_rm('c')\n")
        assert rule_names(code, NoRawIoRule) == ["no-raw-io"] * 2

    def test_io_open_flagged_but_bytesio_allowed(self):
        assert rule_names("import io\nio.open('f')\n",
                          NoRawIoRule) == ["no-raw-io"]
        assert rule_names("import io\nbuf = io.BytesIO()\n",
                          NoRawIoRule) == []

    def test_pager_method_named_open_allowed(self):
        assert rule_names("pager = Pager.open('f.idx')\npager.close()\n",
                          NoRawIoRule) == []

    def test_pager_module_itself_exempt(self):
        assert rule_names("handle = open('f.bin')\n", NoRawIoRule,
                          path="src/repro/storage/pager.py") == []

    def test_wal_module_itself_exempt(self):
        # wal.py is the second sanctioned raw-I/O gateway: the log file
        # sits beside the paged data file, below the Pager abstraction.
        assert rule_names("handle = open('f.idx.wal', 'r+b')\n",
                          NoRawIoRule,
                          path="src/repro/storage/wal.py") == []

    @pytest.mark.parametrize("path", [
        "src/repro/cli.py", "src/repro/bench/reporting.py",
        "benchmarks/bench_table2_datasets.py",
    ])
    def test_open_outside_paged_packages_allowed(self, path):
        assert rule_names("handle = open('f.xml')\n", NoRawIoRule,
                          path=path) == []

    @pytest.mark.parametrize("path", [
        "src/repro/prix/index.py", "src/repro/trie/labeling.py",
    ])
    def test_prix_and_trie_in_scope(self, path):
        assert rule_names("open('f')\n", NoRawIoRule,
                          path=path) == ["no-raw-io"]


class TestSeededRng:
    def test_unseeded_random_flagged(self):
        code = "import random\nrng = random.Random()\n"
        assert rule_names(code, SeededRngRule) == ["seeded-rng"]

    def test_explicit_none_seed_flagged(self):
        code = "import random\nrng = random.Random(None)\n"
        assert rule_names(code, SeededRngRule) == ["seeded-rng"]

    def test_seeded_random_passes(self):
        code = "import random\nrng = random.Random(20040301)\n"
        assert rule_names(code, SeededRngRule) == []

    def test_module_level_function_flagged(self):
        code = "import random\nvalue = random.randint(1, 6)\n"
        assert rule_names(code, SeededRngRule) == ["seeded-rng"]

    def test_module_alias_resolved(self):
        code = "import random as rnd\nrnd.shuffle([1, 2])\n"
        assert rule_names(code, SeededRngRule) == ["seeded-rng"]

    def test_from_import_of_function_flagged(self):
        code = "from random import choice\n"
        assert rule_names(code, SeededRngRule) == ["seeded-rng"]

    def test_from_import_random_constructor_needs_seed(self):
        good = "from random import Random\nrng = Random(7)\n"
        bad = "from random import Random\nrng = Random()\n"
        assert rule_names(good, SeededRngRule) == []
        assert rule_names(bad, SeededRngRule) == ["seeded-rng"]

    def test_system_random_always_flagged(self):
        code = "import random\nrng = random.SystemRandom(1)\n"
        assert rule_names(code, SeededRngRule) == ["seeded-rng"]

    def test_instance_methods_pass(self):
        code = ("import random\nrng = random.Random(1)\n"
                "value = rng.random() + rng.randint(0, 3)\n")
        assert rule_names(code, SeededRngRule) == []


class TestStatsIntDiscipline:
    def test_float_literal_assignment_flagged(self):
        code = "stats.physical_reads = 1.0\n"
        assert rule_names(code, StatsIntDisciplineRule) == [
            "stats-int-discipline"]

    def test_true_division_flagged(self):
        code = "stats.logical_reads = total / 2\n"
        assert rule_names(code, StatsIntDisciplineRule) == [
            "stats-int-discipline"]

    def test_aug_assign_with_float_flagged(self):
        code = "stats.evictions += 0.5\n"
        assert rule_names(code, StatsIntDisciplineRule) == [
            "stats-int-discipline"]

    def test_floor_division_and_ints_pass(self):
        code = ("stats.physical_reads = total // 2\n"
                "stats.physical_writes += 1\n"
                "stats.allocations = before - after\n")
        assert rule_names(code, StatsIntDisciplineRule) == []

    def test_division_elsewhere_untouched(self):
        code = "ratio = stats.physical_reads / stats.logical_reads\n"
        assert rule_names(code, StatsIntDisciplineRule) == []

    def test_non_counter_attribute_untouched(self):
        code = "stats.elapsed_seconds = total / 1000\n"
        assert rule_names(code, StatsIntDisciplineRule) == []


class TestResourceSafety:
    def test_leaked_pager_flagged(self):
        code = """
        def build():
            pager = Pager.in_memory()
            pager.allocate()
        """
        assert rule_names(code, ResourceSafetyRule) == ["resource-safety"]

    def test_closed_handle_passes(self):
        code = """
        def build():
            pager = Pager.in_memory()
            try:
                pager.allocate()
            finally:
                pager.close()
        """
        assert rule_names(code, ResourceSafetyRule) == []

    def test_returned_handle_passes(self):
        code = """
        def build():
            pool = BufferPool(Pager.in_memory())
            return pool
        """
        assert rule_names(code, ResourceSafetyRule) == []

    def test_context_managed_handle_passes(self):
        code = """
        def build():
            pager = Pager.open("x.idx")
            with pager:
                pager.allocate()
        """
        assert rule_names(code, ResourceSafetyRule) == []

    def test_handle_passed_to_constructor_passes(self):
        code = """
        def build():
            pager = Pager.in_memory()
            return BufferPool(pager)
        """
        assert rule_names(code, ResourceSafetyRule) == []

    def test_handle_stored_on_self_passes(self):
        code = """
        class Env:
            def __init__(self):
                pool = BufferPool(Pager.in_memory())
                self._pool = pool
        """
        assert rule_names(code, ResourceSafetyRule) == []

    def test_leaked_index_in_test_function_flagged(self):
        code = """
        def test_roundtrip():
            index = PrixIndex.build(docs)
            assert index.doc_count == 2
        """
        assert rule_names(code, ResourceSafetyRule) == ["resource-safety"]

    def test_module_level_construction_untracked(self):
        # Module-scope singletons live for the process; only function
        # locals are leak-checked.
        code = "POOL = BufferPool(Pager.in_memory())\n"
        assert rule_names(code, ResourceSafetyRule) == []

    def test_leaked_wal_flagged(self):
        code = """
        def log_image(fileobj, image):
            wal = WriteAheadLog(fileobj, 4096)
            wal.append(1, image)
            wal.commit()
        """
        assert rule_names(code, ResourceSafetyRule) == ["resource-safety"]

    def test_context_managed_wal_passes(self):
        code = """
        def replay_tail(fileobj):
            with WriteAheadLog(fileobj, 4096) as wal:
                return list(wal.replay())
        """
        assert rule_names(code, ResourceSafetyRule) == []


class TestHygiene:
    def test_mutable_list_default_flagged(self):
        code = "def f(items=[]):\n    return items\n"
        assert rule_names(code, NoMutableDefaultArgRule) == [
            "no-mutable-default-arg"]

    def test_mutable_call_default_flagged(self):
        code = "def f(cache=dict()):\n    return cache\n"
        assert rule_names(code, NoMutableDefaultArgRule) == [
            "no-mutable-default-arg"]

    def test_kwonly_mutable_default_flagged(self):
        code = "def f(*, tags={'a'}):\n    return tags\n"
        assert rule_names(code, NoMutableDefaultArgRule) == [
            "no-mutable-default-arg"]

    def test_none_default_passes(self):
        code = ("def f(items=None, scale='small', n=3, key=()):\n"
                "    return items or []\n")
        assert rule_names(code, NoMutableDefaultArgRule) == []

    def test_bare_except_flagged(self):
        code = ("try:\n    risky()\nexcept:\n    pass\n")
        assert rule_names(code, NoBareExceptRule) == ["no-bare-except"]

    def test_typed_except_passes(self):
        code = ("try:\n    risky()\nexcept (OSError, ValueError):\n"
                "    pass\n")
        assert rule_names(code, NoBareExceptRule) == []
