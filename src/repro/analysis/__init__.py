"""Runtime analysis of the storage protocols.

:mod:`repro.analysis.sanitizer` asserts flush, WAL-ordering, guard-trust
and latch discipline while the code runs; ``PRIX_SANITIZE=1`` turns it
on for a whole process (``docs/ANALYSIS.md``).  The static source
invariants are plain tests (``tests/test_source_invariants.py``).
"""
