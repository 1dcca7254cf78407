import sys

import pytest


@pytest.fixture
def default_recursion_limit():
    # the CLI raises the limit for the whole process; test at the default
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)
