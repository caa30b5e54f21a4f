import sys

import pytest


@pytest.fixture
def default_recursion_limit():
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(before)
