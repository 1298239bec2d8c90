import functools

import pytest

from grundytd import Graph, connected_cubic_graphs, connected_graphs


@functools.lru_cache(maxsize=None)
def corpus(n: int):
    return tuple(connected_graphs(n))


@functools.lru_cache(maxsize=None)
def cubic_corpus(n: int):
    return tuple(connected_cubic_graphs(n))


def relabeled(g, rng):
    """g with its vertices renumbered by a random permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@pytest.fixture(scope="session")
def connected_upto_6():
    return [g for n in range(2, 7) for g in corpus(n)]


@pytest.fixture(scope="session")
def connected_upto_7():
    return [g for n in range(2, 8) for g in corpus(n)]
