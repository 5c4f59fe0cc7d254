"""Training objectives and their analytic gradients.

Everything here is plain numpy in float64. Each loss returns both its value
and the gradients needed by the optimizer, so the training loop never
differentiates numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .numeric import sigmoid, softplus
from .settings import TRAIN, check

_EPS_GUARD = 1e-12


@dataclass(frozen=True)
class LossWeights:
    """Scalar multipliers for the composite objective, plus the PCA
    keep-ratio used by the decorrelation term."""

    l2: float = TRAIN["l2"].default
    dcorr: float = TRAIN["dcorr"].default
    cross_system: float = TRAIN["cross_system"].default
    pca_keep: float = TRAIN["pca_keep"].default

    def validate(self) -> None:
        for f in fields(self):
            check(f.name, getattr(self, f.name), TRAIN[f.name])


# ---------------------------------------------------------------------------
# pairwise ranking
# ---------------------------------------------------------------------------


def bpr_loss(pos_scores: np.ndarray, neg_scores: np.ndarray):
    """Pairwise ranking loss sum(softplus(neg - pos)) with score gradients.

    Returns (value, d_pos, d_neg).
    """
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if pos.shape != neg.shape:
        raise ValueError("pos/neg score shapes differ")
    value = float(softplus(neg - pos).sum())
    s = sigmoid(neg - pos)
    return value, -s, s


# ---------------------------------------------------------------------------
# PCA projection (for the decorrelation loss)
# ---------------------------------------------------------------------------


def pca_project(pref: np.ndarray, keep_fraction: float):
    """Project rows of `pref` onto their top principal directions.

    Keeps k = clamp(floor(keep_fraction * dim), 1, min(dim, n_rows))
    eigenvectors of the sample covariance (1/(n-1) normalization). The
    sign of each eigenvector is fixed so its largest-magnitude entry is
    positive, making the basis reproducible across runs.

    Returns (basis[dim, k], projected[n_rows, k]). The basis is treated as
    a constant by every gradient in this module.
    """
    X = np.asarray(pref, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("pref must be 2-d")
    n, h = X.shape
    if n < 2:
        raise ValueError("need at least 2 rows for a covariance estimate")
    check("keep_fraction", keep_fraction, TRAIN["pca_keep"])
    k = max(1, int(np.floor(keep_fraction * h)))
    k = min(k, h, n)
    mu = X.mean(axis=0)
    Xc = X - mu
    cov = Xc.T @ Xc / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    basis = eigvecs[:, order[:k]]
    # canonical sign: largest-|entry| coordinate of each column is positive
    idx = np.argmax(np.abs(basis), axis=0)
    signs = np.sign(basis[idx, np.arange(k)])
    signs[signs == 0] = 1.0
    basis = basis * signs
    return basis, Xc @ basis


def project_with_basis(pref: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Center rows and project onto a fixed basis."""
    X = np.asarray(pref, dtype=np.float64)
    return (X - X.mean(axis=0)) @ basis


# ---------------------------------------------------------------------------
# distance correlation
# ---------------------------------------------------------------------------


def _centered_gram(Z: np.ndarray):
    """Double-centered distance matrices of every row of Z [P, k] and their
    Gram matrix.

    Returns (A [P, k, k], G [P, P]): A_i is the double-centered
    |Z_i[a] - Z_i[b]| and G = A_flat @ A_flat.T / k^2, so G_ij is the
    squared distance covariance of rows i and j and the diagonal holds the
    squared distance variances.
    """
    P, k = Z.shape
    d = np.abs(Z[:, :, None] - Z[:, None, :])
    A = d - d.mean(axis=2, keepdims=True) - d.mean(axis=1, keepdims=True)
    A += d.mean(axis=(1, 2), keepdims=True)
    flat = A.reshape(P, k * k)
    return A, flat @ flat.T / (k * k)


def dcorr_fd_margin(Z: np.ndarray) -> float:
    """How safely a fixed-step central difference can probe the summed
    distance correlation of the rows of Z [P, k].

    Two hazards: the |z_a - z_b| kinks (a perturbation must not flip any
    sign) and the square roots of the distance covariances and variances
    (tiny values mean huge curvature). Returns the smaller of the minimum
    intra-row coordinate gap and the minimum entry of the upper triangle of
    G, diagonal included; bigger is safer."""
    gaps = np.diff(np.sort(Z, axis=1), axis=1)
    _, G = _centered_gram(Z)
    return float(min(gaps.min(initial=np.inf), G[np.triu_indices(len(G))].min()))


def soft_dcorr_loss(pref: np.ndarray, keep_fraction: float, basis: np.ndarray | None = None):
    """Decorrelation penalty over preference embeddings.

    Projects the rows onto a PCA basis (computed here unless `basis` is
    supplied) and sums distance correlation over all unordered pairs of
    projected rows. The basis is a constant for differentiation; gradients
    flow through centering and projection only.

    Every pair is read off one Gram matrix G (see _centered_gram): the
    pair value is R_ij = G_ij^(1/2) / (G_ii G_jj)^(1/4). A pair with a row
    whose dVar is below _EPS_GUARD adds 0 and no gradient; a pair whose
    dCov is below it adds its value but no gradient. A double-centered B
    absorbs the centering adjoint (d/dz_a of sum_cb B_cb |z_c - z_b| is
    2 sum_b B_ab sign(z_a - z_b)), so the gradient of the sum is

        dZ_i[a] = sum_b ((C @ A_flat)_i - w_i A_i)[a, b] * sign(Z_ia - Z_ib)

    with the symmetric C_ij = 1 / (k^2 dCov_ij sqrt(dVar_i dVar_j)) on the
    pairs that get a gradient (0 elsewhere) and w_i = sum_j R_ij / (k^2 G_ii)
    over the same pairs.

    Returns (value, grad_pref, basis).
    """
    X = np.asarray(pref, dtype=np.float64)
    if basis is None:
        basis, Z = pca_project(X, keep_fraction)
    else:
        Z = project_with_basis(X, basis)
    P, k = Z.shape
    A, G = _centered_gram(Z)
    var = np.sqrt(np.maximum(G.diagonal(), 0.0))
    live = var >= _EPS_GUARD
    pair = live[:, None] & live[None, :] & ~np.eye(P, dtype=bool)
    dcov = np.sqrt(np.maximum(G, 0.0))
    denom = np.sqrt(np.outer(var, var))
    R = np.divide(dcov, denom, out=np.zeros_like(G), where=pair)
    value = R[np.triu_indices(P, 1)].sum()

    smooth = pair & (dcov >= _EPS_GUARD)
    k2 = float(k * k)
    C = np.divide(1.0, k2 * dcov * denom, out=np.zeros_like(G), where=smooth)
    w = np.divide(np.where(smooth, R, 0.0).sum(axis=1), k2 * G.diagonal(), out=np.zeros(P), where=live)
    flat = A.reshape(P, k * k)
    dA = (C @ flat - w[:, None] * flat).reshape(P, k, k)
    dZ = (dA * np.sign(Z[:, :, None] - Z[:, None, :])).sum(axis=2)
    # adjoint of Z = (X - mean(X)) @ basis
    dXc = dZ @ basis.T
    grad = dXc - dXc.mean(axis=0, keepdims=True)
    return float(value), grad, basis


# ---------------------------------------------------------------------------
# cross-system contrastive alignment
# ---------------------------------------------------------------------------


def cross_system_loss(
    cf_user: np.ndarray,
    cf_pos: np.ndarray,
    cf_neg: np.ndarray,
    content_user: np.ndarray,
    content_pos: np.ndarray,
    content_neg: np.ndarray,
):
    """Two-term contrastive alignment between the graph model and the
    content model, summed over the batch:

        -log sigmoid(cf_u . (content_pos - content_neg))
        -log sigmoid(content_u . (cf_pos - cf_neg))

    The content side is a fixed reference: gradients are returned only for
    the three graph-side arrays (content gradients are zero by design).

    Returns (value, d_cf_user, d_cf_pos, d_cf_neg).
    """
    cu = np.asarray(cf_user, dtype=np.float64)
    cp = np.asarray(cf_pos, dtype=np.float64)
    cn = np.asarray(cf_neg, dtype=np.float64)
    nu = np.asarray(content_user, dtype=np.float64)
    npos = np.asarray(content_pos, dtype=np.float64)
    nneg = np.asarray(content_neg, dtype=np.float64)
    if not (cu.shape == cp.shape == cn.shape == nu.shape == npos.shape == nneg.shape):
        raise ValueError("all six arrays must share one shape")

    diff_content = npos - nneg
    diff_cf = cp - cn
    d1 = (cu * diff_content).sum(axis=1)
    d2 = (nu * diff_cf).sum(axis=1)
    value = float(softplus(-d1).sum() + softplus(-d2).sum())

    s1 = sigmoid(-d1)[:, None]  # d/d d1 of softplus(-d1) is -sigmoid(-d1)
    s2 = sigmoid(-d2)[:, None]
    d_cf_user = -s1 * diff_content
    d_cf_pos = -s2 * nu
    d_cf_neg = s2 * nu
    return value, d_cf_user, d_cf_pos, d_cf_neg


# ---------------------------------------------------------------------------
# content click loss
# ---------------------------------------------------------------------------


def click_softmax_loss(pos_scores: np.ndarray, neg_scores: np.ndarray):
    """Sampled-softmax click objective for the content model.

    For each row: -log( exp(pos) / (exp(pos) + sum_j exp(neg_j)) ).
    Returns (value, d_pos, d_neg) summed over rows.
    """
    pos = np.asarray(pos_scores, dtype=np.float64).reshape(-1, 1)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if neg.ndim != 2 or neg.shape[0] != pos.shape[0]:
        raise ValueError("neg_scores must be [batch, n_neg]")
    logits = np.concatenate([pos, neg], axis=1)
    m = logits.max(axis=1, keepdims=True)
    ex = np.exp(logits - m)
    s = ex.sum(axis=1, keepdims=True)
    value = float((m[:, 0] + np.log(s[:, 0]) - pos[:, 0]).sum())  # log-sum-exp minus the positive logit
    d = ex / s  # the softmax probabilities
    d[:, 0] -= 1.0
    return value, d[:, 0], d[:, 1:]

