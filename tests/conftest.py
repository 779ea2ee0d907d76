import numpy as np
import pytest


def same_bits(a, b) -> bool:
    """Whether a and b hold the same float64 bits: shape, every value and every zero's sign.

    np.array_equal counts -0.0 equal to 0.0, so a bit-identity claim compares uint64 views.
    """
    a, b = (np.ascontiguousarray(x, dtype=np.float64) for x in (a, b))
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def make_linear_net(*weights):
    """Identity-activation network from a list of weight matrices."""
    from mergeqp import LinearNetwork

    return LinearNetwork([np.asarray(W, dtype=float) for W in weights])


def make_relu_net(*weights):
    from mergeqp import LinearNetwork

    mats = [np.asarray(W, dtype=float) for W in weights]
    return LinearNetwork(mats, ["relu"] * (len(mats) - 1))
