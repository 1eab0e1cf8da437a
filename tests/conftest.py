import faulthandler
import gc
import os
import sys

import pytest

# No tier-1 test takes more than a few seconds; one that runs this long is
# stuck, in a loop that makes no progress or a wait that never ends.
TEST_TIMEOUT_S = 300.0
STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    """Keep a descriptor of the session's stderr, taken while pytest does not
    capture it: a test's own stderr is captured to a file that is lost if
    the session ends inside the test."""
    config.stash[STDERR] = os.dup(sys.stderr.fileno())


@pytest.fixture(autouse=True)
def unfreeze():
    """``cli.main`` freezes the heap for the rest of its process; undone after
    each test, so that the garbage of the test session stays collectable."""
    yield
    gc.unfreeze()


@pytest.fixture(autouse=True)
def time_limit(request):
    """A test still running after TEST_TIMEOUT_S ends the session with every
    thread's traceback on stderr, instead of hanging it."""
    faulthandler.dump_traceback_later(TEST_TIMEOUT_S, exit=True, file=request.config.stash[STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
