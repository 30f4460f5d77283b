import sys
from collections import OrderedDict
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oribij import Graph, graph_to_rep, reversal


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty pair cache for the test; calling the fixture's value empties it again.

    Reps compare by their matrix, so a test whose rep has a corrupted cached
    field, or that must see a map or table made anew, starts from an empty cache.
    """
    def empty():
        monkeypatch.setattr(reversal, "_TABLE_CACHE", OrderedDict())

    empty()
    return empty


@pytest.fixture
def triangle():
    return Graph(3, ((2, 0), (0, 1), (1, 2)))


@pytest.fixture
def triangle_rep(triangle):
    return graph_to_rep(triangle)


@pytest.fixture
def single_edge():
    return Graph(2, ((0, 1),))


@pytest.fixture
def single_edge_rep(single_edge):
    return graph_to_rep(single_edge)


@pytest.fixture
def two_parallel():
    return Graph(2, ((0, 1), (0, 1)))


@pytest.fixture
def two_parallel_rep(two_parallel):
    return graph_to_rep(two_parallel)


@pytest.fixture
def theta():
    return Graph(2, ((0, 1), (0, 1), (0, 1)))


@pytest.fixture
def theta_rep(theta):
    return graph_to_rep(theta)


@pytest.fixture
def triangle_loop():
    return Graph(3, ((2, 0), (0, 1), (1, 2), (0, 0)))


@pytest.fixture
def triangle_bridge():
    return Graph(4, ((2, 0), (0, 1), (1, 2), (2, 3)))


@pytest.fixture
def bowtie():
    return Graph(5, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)))
