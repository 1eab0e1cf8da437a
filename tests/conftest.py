import gc

import pytest


@pytest.fixture(autouse=True)
def unfreeze():
    """``cli.main`` freezes the heap for the rest of its process; undone after
    each test, so that the garbage of the test session stays collectable."""
    yield
    gc.unfreeze()
