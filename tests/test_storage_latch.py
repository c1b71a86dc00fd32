"""Latches: the bare lock's cost without observers, every acquire and
release seen with them."""

import sys

import pytest

from repro.storage import latch as latch_module
from repro.storage.latch import Latch


@pytest.fixture()
def no_hooks():
    """Take any installed observers (``PRIX_SANITIZE=1``) out for the
    test, and put them back."""
    saved = latch_module._hooks
    latch_module.clear_hooks()
    yield
    if saved is not None:
        latch_module.install_hooks(*saved)


def test_a_latch_without_observers_runs_no_python_frame(no_hooks):
    latch = Latch("bare")
    events = []

    def profile(frame, event, arg):
        events.append((event, frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        with latch:
            with latch:
                pass
    finally:
        sys.setprofile(None)
    assert [event for event, _ in events if event == "call"] == [], events
    assert not latch.owned()


def test_observers_installed_after_a_latch_was_made_see_it(no_hooks):
    first, second = Latch("first"), Latch("second")
    seen = []

    def on_acquire(latch):
        assert not latch.owned() or latch is first
        seen.append(("acquire", latch.name))

    def on_release(latch):
        assert latch.owned()
        seen.append(("release", latch.name))

    latch_module.install_hooks(on_acquire, on_release)
    try:
        with first as entered:
            assert entered is True      # as the C ``__enter__`` returns
            with second:
                pass
            with first:
                pass
    finally:
        latch_module.clear_hooks()
    assert seen == [("acquire", "first"), ("acquire", "second"),
                    ("release", "second"), ("acquire", "first"),
                    ("release", "first"), ("release", "first")]
    with first:
        pass
    assert len(seen) == 6
    assert not first.owned() and not second.owned()

