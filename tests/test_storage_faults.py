"""Fault-injection model tests: determinism, the volatile/durable split,
and the crash kinds.

These pin down the *model* the crash matrix relies on; if FaultyFile
ever let a non-fsynced byte survive a crash, the matrix would pass
without testing anything.
"""

import pytest

from faults import (KIND_AT_FSYNC, KIND_BEFORE_WRITE, KIND_DROPPED_FSYNC,
                    KIND_TORN_WRITE, CrashPoint, FaultSchedule, FaultyFile)


def clean_file(seed=1, **kwargs):
    return FaultyFile(FaultSchedule(seed), **kwargs)


class TestVolatileDurableSplit:
    def test_write_is_volatile_until_fsync(self):
        f = clean_file()
        f.write(b"hello")
        assert f.durable_bytes() == b""
        f.fsync()
        assert f.durable_bytes() == b"hello"

    def test_reads_see_volatile_state(self):
        f = clean_file()
        f.write(b"abcdef")
        f.seek(2)
        assert f.read(3) == b"cde"

    def test_overwrite_mid_file(self):
        f = clean_file()
        f.write(b"aaaa")
        f.seek(1)
        f.write(b"XY")
        f.seek(0)
        assert f.read() == b"aXYa"

    def test_truncate_drops_volatile_tail(self):
        f = clean_file()
        f.write(b"abcdef")
        f.truncate(2)
        f.seek(0)
        assert f.read() == b"ab"

    def test_seek_past_end_zero_fills(self):
        f = clean_file()
        f.seek(3)
        f.write(b"x")
        f.seek(0)
        assert f.read() == b"\x00\x00\x00x"

    def test_reopen_durable_ignores_later_writes(self):
        f = clean_file()
        f.write(b"committed")
        f.fsync()
        f.write(b"-lost")
        assert f.reopen_durable().read() == b"committed"


class TestDeterminism:
    def test_same_seed_same_faults(self):
        def run(seed):
            schedule = FaultSchedule(seed, crash_at=4)
            f = FaultyFile(schedule, "f")
            kinds = []
            try:
                for i in range(10):
                    f.write(bytes([i]) * 8)
            except CrashPoint as crash:
                kinds.append((crash.op_index, crash.kind))
            return kinds, f.durable_bytes()

        assert run(7) == run(7)

    def test_different_seeds_vary_kinds(self):
        kinds = set()
        for seed in range(30):
            schedule = FaultSchedule(seed, crash_at=0)
            with pytest.raises(CrashPoint) as err:
                FaultyFile(schedule, "f").write(b"payload-bytes")
            kinds.add(err.value.kind)
        assert KIND_BEFORE_WRITE in kinds
        assert KIND_TORN_WRITE in kinds

    def test_describe_is_a_repro_recipe(self):
        schedule = FaultSchedule(3, crash_at=9, drop_fsyncs=False)
        recipe = schedule.describe()
        assert recipe["seed"] == 3
        assert recipe["crash_at"] == 9
        assert recipe["drop_fsyncs"] is False


class TestCrashKinds:
    def test_torn_write_persists_prefix_only(self):
        # Find a seed whose op-0 fault is a torn write, then check the
        # volatile image holds a strict prefix of the payload.
        found = None
        for seed in range(100):
            schedule = FaultSchedule(seed, crash_at=0)
            f = FaultyFile(schedule, "f")
            try:
                f.write(b"0123456789")
            except CrashPoint as crash:
                if crash.kind == KIND_TORN_WRITE:
                    found = f
                    break
        assert found is not None
        found.seek(0)
        volatile = found.read()
        assert b"0123456789".startswith(volatile)
        assert volatile != b"0123456789"

    def test_crash_at_fsync_keeps_durable_old(self):
        found = None
        for seed in range(100):
            schedule = FaultSchedule(seed, crash_at=1)
            f = FaultyFile(schedule, "f")
            try:
                f.write(b"new-bytes")      # op 0
                f.fsync()                  # op 1 -> crash
            except CrashPoint as crash:
                if crash.kind == KIND_AT_FSYNC:
                    found = f
                    break
        assert found is not None
        assert found.durable_bytes() == b""

    def test_dropped_fsync_is_silent_and_moves_nothing(self):
        dropped = None
        for seed in range(100):
            schedule = FaultSchedule(seed)
            if schedule.fsync_fault(0) == KIND_DROPPED_FSYNC:
                dropped = seed
                break
        assert dropped is not None
        schedule = FaultSchedule(dropped)
        f = FaultyFile(schedule, "f")
        # Op counter at 0: the first op must be the droppable fsync.
        f.fsync()
        assert f.durable_bytes() == b""  # silently did nothing

    def test_undroppable_fsync_never_drops(self):
        for seed in range(100):
            schedule = FaultSchedule(seed)
            assert schedule.fsync_fault(0, droppable=False) is None

    def test_wal_file_fsyncs_always_honest(self):
        for seed in range(20):
            schedule = FaultSchedule(seed)
            f = FaultyFile(schedule, "wal", droppable_fsync=False)
            for i in range(20):
                f.write(bytes([i]))
                f.fsync()
                f.seek(0)
                assert f.durable_bytes() == f.read()

    def test_crash_remembers_itself(self):
        schedule = FaultSchedule(1, crash_at=0)
        f = FaultyFile(schedule, "data")
        with pytest.raises(CrashPoint):
            f.write(b"x")
        assert schedule.crashed is not None
        assert schedule.crashed.op_index == 0


class TestSharedCounter:
    def test_two_files_share_one_op_stream(self):
        schedule = FaultSchedule(5, crash_at=2)
        a = FaultyFile(schedule, "a")
        b = FaultyFile(schedule, "b")
        a.write(b"1")     # op 0
        b.write(b"2")     # op 1
        with pytest.raises(CrashPoint) as err:
            a.write(b"3")  # op 2 -> crash
        assert err.value.op_index == 2
        assert err.value.name == "a"

    def test_recording_run_counts_ops(self):
        schedule = FaultSchedule(5, crash_at=None)
        f = FaultyFile(schedule, "f")
        for i in range(7):
            f.write(b"x")
        f.fsync()
        assert schedule.ops == 8
        assert schedule.crashed is None
