"""A time limit on every test, so that a hang fails the run instead of
stalling it.

A test that runs past 120 s, its setup and teardown included, makes
``faulthandler`` write every thread's stack to the stderr the session
started with and end the process (exit code 1).  The slowest test takes
6–12 s on a 2-core Xeon.  The limit wraps each test's whole run protocol
rather than living in a function-scoped fixture, so that it also covers
the module-scoped fixtures that a test sets up first.
"""
import faulthandler
import os
import sys

import pytest

#: a copy of the session's stderr, which output capture does not redirect
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())  # capture is suspended here


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(120, exit=True, file=item.config.stash[_STDERR])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
