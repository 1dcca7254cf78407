import sys

import pytest


@pytest.fixture
def default_recursion_limit():
    # nothing in foltab raises the limit, but a test or a plugin may have:
    # test at the interpreter's default
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)
