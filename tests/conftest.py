"""Shared fixtures for the whole test run."""

from __future__ import annotations

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_outlives_a_test():
    """``hpreal._in_halves`` may run half of a suite's integrals, or the
    sibling of a series sweep, in a forked child, and the tanh-sinh engine
    (``quadrature._tanh_sinh``) half of a level in one; both go through
    ``hpreal._from_child``.  Every
    such child must be reaped by the call that made it, so none is left,
    running or finished, when a test ends."""
    yield
    if not hasattr(os, "fork"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    state = "still running" if pid == 0 else f"pid {pid} unreaped"
    pytest.fail(f"a child process outlived the test ({state})")
