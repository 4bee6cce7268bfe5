import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from seidelab.graphs import Graph

# wall-time deadlines turn first-call numpy warmup into flaky failures
settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")


def graph_strategy(min_n=1, max_n=8):
    """Random labeled graph: order plus an edge-bit mask."""
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.integers(0, (1 << (n * (n - 1) // 2)) - 1).map(
            lambda mask: Graph.from_edge_mask(n, mask)
        )
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_graph(rng, n=None, max_n=10):
    if n is None:
        n = int(rng.integers(2, max_n + 1))
    m = n * (n - 1) // 2
    mask = int(rng.integers(0, 1 << min(m, 63)))
    shift = 63
    while shift < m:  # the rest in pieces int64 can draw
        width = min(m - shift, 62)
        mask |= int(rng.integers(0, 1 << width)) << shift
        shift += width
    return Graph.from_edge_mask(n, mask)
