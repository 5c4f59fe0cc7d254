"""Scalar distance correlation: the reference that criterion 4 and the
decorrelation-loss tests compare `losses.soft_dcorr_loss` against."""

import numpy as np

EPS_GUARD = 1e-12  # the dVar floor of kgrec.losses


def dist_and_centered(x: np.ndarray):
    """Pairwise |x_i - x_j| and its double-centered form."""
    d = np.abs(x[:, None] - x[None, :])
    row = d.mean(axis=1, keepdims=True)
    col = d.mean(axis=0, keepdims=True)
    A = d - row - col + d.mean()
    return d, A


def distance_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Sample distance correlation of two coordinate vectors.

    Treats the k entries of each vector as k scalar observations. Returns 0
    when either vector is (numerically) constant.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError("length mismatch")
    _, A = dist_and_centered(x)
    _, B = dist_and_centered(y)
    dcov2 = (A * B).mean()
    vx = np.sqrt(max((A * A).mean(), 0.0))
    vy = np.sqrt(max((B * B).mean(), 0.0))
    if vx < EPS_GUARD or vy < EPS_GUARD:
        return 0.0
    dcov = np.sqrt(max(dcov2, 0.0))
    return float(dcov / np.sqrt(vx * vy))
