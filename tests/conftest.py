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


def kept_coordinate_optima(qp):
    """qp.prefix_optima's rule by plain solves: (value, minimiser) of every prefix.

    Direction-major (flat index i * K + k), a coordinate is kept when its pivot
    H_ii - H_iS H_SS^-1 H_Si over the kept coordinates S before it exceeds _EIGEN_CUT times
    H's largest diagonal entry.  Prefix p's minimiser solves H_SS d_S = -g_S over its kept
    coordinates and is 0 on the others; its value is const + 1/2 g_S' d_S.
    """
    from mergeqp.qp import _EIGEN_CUT

    H, g, K = qp.H, qp.g, qp.n_tasks
    cut = _EIGEN_CUT * H.diagonal().max(initial=0.0)
    kept, out = [], []
    for coords in np.arange(qp.dim).reshape(K, -1).T:
        for i in coords:
            S = kept  # the kept coordinates before i
            pivot = H[i, i] - H[i, S] @ np.linalg.solve(H[np.ix_(S, S)], H[S, i]) if S else H[i, i]
            if pivot > cut:
                kept.append(i)
        d = np.zeros(qp.dim)
        if kept:
            d[kept] = np.linalg.solve(H[np.ix_(kept, kept)], -g[kept])
        out.append((qp.constant + 0.5 * (g @ d), d))
    return out
