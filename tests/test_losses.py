import math

import numpy as np
import pytest
from scipy import special

from conftest import build_store
from dcor_reference import dist_and_centered, distance_correlation

from kgrec.data import kg_from_triplets
from kgrec.losses import (
    LossWeights,
    bpr_loss,
    click_softmax_loss,
    cross_system_loss,
    pca_project,
    project_with_basis,
    soft_dcorr_loss,
)
from kgrec.model import backward, forward, init_params
from kgrec.training import LossParts, kmpn_loss_and_grads


# -- pairwise ranking ---------------------------------------------------------


def test_bpr_equal_scores_anchor():
    v, dp, dn = bpr_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert v == pytest.approx(2.0 * math.log(2.0), rel=1e-14)
    np.testing.assert_allclose(dp, [-0.5, -0.5])
    np.testing.assert_allclose(dn, [0.5, 0.5])


def test_bpr_wide_margin_anchor():
    v, dp, dn = bpr_loss(np.array([20.0]), np.array([0.0]))
    assert v == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-12)
    assert dp[0] == pytest.approx(-1.0 / (1.0 + math.exp(20.0)), rel=1e-12)
    assert dn[0] == -dp[0]


def test_bpr_matches_scalar_loop():
    rng = np.random.default_rng(0)
    pos, neg = rng.normal(size=12), rng.normal(size=12)
    v, dp, dn = bpr_loss(pos, neg)
    want = sum(math.log1p(math.exp(n - p)) for p, n in zip(pos, neg))
    assert v == pytest.approx(want, rel=1e-13)
    for b in range(12):
        s = 1.0 / (1.0 + math.exp(pos[b] - neg[b]))
        assert dp[b] == pytest.approx(-s, rel=1e-13)
        assert dn[b] == pytest.approx(s, rel=1e-13)


def test_bpr_is_shift_invariant():
    rng = np.random.default_rng(1)
    pos, neg = rng.normal(size=6), rng.normal(size=6)
    v1, _, _ = bpr_loss(pos, neg)
    v2, _, _ = bpr_loss(pos + 3.7, neg + 3.7)
    assert v1 == pytest.approx(v2, rel=1e-13)
    with pytest.raises(ValueError):
        bpr_loss(np.zeros(2), np.zeros(3))


def test_l2_reg_anchor_and_grads():
    # the L2 term of the graph objective is half the squared norm of the
    # batch's aggregated user, positive and negative rows; its gradient on
    # those rows is the rows themselves
    g = kg_from_triplets([(0, 0, 1)], num_relations_raw=1, num_entities=3)
    store = build_store({0: [0], 1: [1, 2]}, num_items=3)
    p = init_params(3, 2, 2, h=4, n_layers=1, n_pref=2, n_meta=2, seed=3)
    users, pos, neg = np.array([0, 1]), np.array([0, 1]), np.array([2, 0])
    trace, _, _ = forward(p, g, store, users, pos, neg)
    rows = (trace.user_rows(), trace.entity_agg[pos], trace.entity_agg[neg])

    w0 = LossWeights(l2=0.0, dcorr=0.0, cross_system=0.0)
    w = LossWeights(l2=0.5, dcorr=0.0, cross_system=0.0)
    _, g0, parts, _ = kmpn_loss_and_grads(p, g, store, users, pos, neg, w0)
    total, gw, _, _ = kmpn_loss_and_grads(p, g, store, users, pos, neg, w)
    assert parts.l2 == pytest.approx(0.5 * sum(float((r * r).sum()) for r in rows), rel=1e-14)
    assert total == pytest.approx(parts.bpr + 0.5 * parts.l2, rel=1e-14)

    want = backward(p, g, trace, 0.5 * rows[0], 0.5 * np.concatenate(rows[1:]))
    for name, t in want.items():
        np.testing.assert_allclose(gw[name] - g0[name], t, rtol=1e-9, atol=1e-13, err_msg=name)


# -- PCA projection -----------------------------------------------------------


def test_pca_single_varying_axis():
    # rows differ only along coordinate 0, so that axis is the whole signal
    X = np.zeros((4, 3))
    X[:, 0] = [0.0, 1.0, 2.0, 5.0]
    X[:, 1] = 7.0  # constant offset must not matter
    basis, Z = pca_project(X, 0.4)  # k = 1
    np.testing.assert_allclose(basis, [[1.0], [0.0], [0.0]], atol=1e-12)
    np.testing.assert_allclose(Z[:, 0], X[:, 0] - X[:, 0].mean(), atol=1e-12)


@pytest.mark.parametrize(
    "keep,h,n,expected_k",
    [
        (0.5, 6, 8, 3),
        (0.5, 5, 8, 2),
        (0.0, 6, 8, 1),
        (1.0, 6, 8, 6),
        (1.0, 6, 3, 3),  # clamped by row count
        (0.9, 10, 12, 9),
    ],
)
def test_pca_keep_fraction_floor_rule(keep, h, n, expected_k):
    X = np.random.default_rng(2).normal(size=(n, h))
    basis, Z = pca_project(X, keep)
    assert basis.shape == (h, expected_k)
    assert Z.shape == (n, expected_k)


def test_pca_matches_svd_route():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(8, 5))
    Xc = X - X.mean(axis=0)
    _, s, vt = np.linalg.svd(Xc, full_matrices=False)
    basis, Z = pca_project(X, 0.6)  # k = 3
    k = basis.shape[1]

    # eigenvalues of the covariance are singular values squared over n-1
    cov = Xc.T @ Xc / (X.shape[0] - 1)
    eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1][:k]
    np.testing.assert_allclose(eigvals, (s**2 / (X.shape[0] - 1))[:k], rtol=1e-9)

    # subspace agreement: projectors coincide even if signs/order differ
    P_eig = basis @ basis.T
    V = vt[:k].T
    P_svd = V @ V.T
    np.testing.assert_allclose(P_eig, P_svd, atol=1e-8)


def test_pca_sign_convention_and_reuse():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(6, 4))
    basis, Z = pca_project(X, 0.5)
    idx = np.argmax(np.abs(basis), axis=0)
    assert (basis[idx, np.arange(basis.shape[1])] > 0).all()
    np.testing.assert_allclose(project_with_basis(X, basis), Z, rtol=1e-12)


def test_pca_input_validation():
    with pytest.raises(ValueError, match="2-d"):
        pca_project(np.zeros(3), 0.5)
    with pytest.raises(ValueError, match="at least 2 rows"):
        pca_project(np.zeros((1, 3)), 0.5)
    with pytest.raises(ValueError, match="keep_fraction"):
        pca_project(np.zeros((3, 3)), 1.5)


# -- distance correlation -----------------------------------------------------


def naive_dcorr(x, y):
    """Independent O(k^3) implementation via the raw moment expansion
    dcov^2 = S1 + S2 - 2*S3 (no double centering)."""
    n = len(x)
    a = [[abs(x[i] - x[j]) for j in range(n)] for i in range(n)]
    b = [[abs(y[i] - y[j]) for j in range(n)] for i in range(n)]

    def s_terms(p, q):
        s1 = sum(p[i][j] * q[i][j] for i in range(n) for j in range(n)) / n**2
        s2 = (
            sum(p[i][j] for i in range(n) for j in range(n))
            * sum(q[i][j] for i in range(n) for j in range(n))
            / n**4
        )
        s3 = (
            sum(p[i][j] * q[i][k] for i in range(n) for j in range(n) for k in range(n))
            / n**3
        )
        return s1 + s2 - 2 * s3

    dcov2 = s_terms(a, b)
    vx2 = s_terms(a, a)
    vy2 = s_terms(b, b)
    if vx2 <= 0 or vy2 <= 0:
        return 0.0
    return math.sqrt(max(dcov2, 0.0)) / (vx2 * vy2) ** 0.25


def test_dcorr_self_is_one():
    x = np.array([0.3, -1.2, 2.5, 0.0])
    assert distance_correlation(x, x) == pytest.approx(1.0, rel=1e-12)
    assert distance_correlation(x, 2.5 * x + 3.0) == pytest.approx(1.0, rel=1e-12)
    assert distance_correlation(x, -x) == pytest.approx(1.0, rel=1e-12)


def test_dcorr_constant_input_is_zero():
    x = np.array([1.0, 2.0, 3.0])
    c = np.full(3, 0.7)
    assert distance_correlation(x, c) == 0.0
    assert distance_correlation(c, x) == 0.0
    assert distance_correlation(c, c) == 0.0


def test_dcorr_matches_raw_moment_expansion():
    rng = np.random.default_rng(5)
    for _ in range(5):
        x, y = rng.normal(size=7), rng.normal(size=7)
        assert distance_correlation(x, y) == pytest.approx(
            naive_dcorr(x, y), abs=1e-10
        )


def test_dcorr_symmetry_translation_and_range():
    rng = np.random.default_rng(6)
    for _ in range(10):
        x, y = rng.normal(size=6), rng.normal(size=6)
        v = distance_correlation(x, y)
        assert 0.0 <= v <= 1.0 + 1e-12
        assert v == pytest.approx(distance_correlation(y, x), rel=1e-12)
        assert v == pytest.approx(distance_correlation(x + 5.0, y - 2.0), rel=1e-10)
    with pytest.raises(ValueError):
        distance_correlation(np.zeros(3), np.zeros(4))


# -- decorrelation loss over preference rows ----------------------------------


def test_soft_dcorr_identical_rows_is_zero_with_zero_grad():
    X = np.tile(np.array([1.0, 2.0, 3.0, 4.0]), (3, 1))
    v, grad, _ = soft_dcorr_loss(X, 0.5)
    assert v == 0.0
    np.testing.assert_array_equal(grad, np.zeros_like(X))


def test_soft_dcorr_two_rows_is_one():
    # with two rows, centering makes them mirror images, and distance
    # correlation is blind to the sign flip
    rng = np.random.default_rng(7)
    X = rng.normal(size=(2, 6))
    v, _, _ = soft_dcorr_loss(X, 0.5)
    assert v == pytest.approx(1.0, rel=1e-10)


def test_soft_dcorr_composes_pairwise_dcorr():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(5, 8))
    v, _, basis = soft_dcorr_loss(X, 0.5)
    _, Z = pca_project(X, 0.5)
    want = sum(
        distance_correlation(Z[i], Z[j])
        for i in range(5)
        for j in range(i + 1, 5)
    )
    assert v == pytest.approx(want, rel=1e-12)
    assert basis.shape == (8, 4)


def test_soft_dcorr_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(4, 6)) * 2.0  # wide spread keeps |.| kinks far away
    basis, _ = pca_project(X, 0.5)
    v, grad, _ = soft_dcorr_loss(X, 0.5, basis=basis)
    assert v > 0.1

    step = 1e-6
    fd = np.zeros_like(X)
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            Xp, Xm = X.copy(), X.copy()
            Xp[i, j] += step
            Xm[i, j] -= step
            vp, _, _ = soft_dcorr_loss(Xp, 0.5, basis=basis)
            vm, _, _ = soft_dcorr_loss(Xm, 0.5, basis=basis)
            fd[i, j] = (vp - vm) / (2 * step)
    np.testing.assert_allclose(grad, fd, rtol=2e-5, atol=1e-8)


def test_soft_dcorr_reuses_frozen_basis():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(4, 6))
    _, _, basis = soft_dcorr_loss(X, 0.5)
    Y = X + rng.normal(size=X.shape) * 0.1
    v_frozen, _, basis2 = soft_dcorr_loss(Y, 0.5, basis=basis)
    assert basis2 is basis
    # the frozen value must equal projecting Y through the old basis by hand
    Z = project_with_basis(Y, basis)
    want = sum(
        distance_correlation(Z[i], Z[j]) for i in range(4) for j in range(i + 1, 4)
    )
    assert v_frozen == pytest.approx(want, rel=1e-12)


def _dcorr_pair_with_grad(x, y):
    """Distance correlation of one pair with gradients w.r.t. both vectors,
    computed one pair at a time (the pre-Gram kernel, kept as the
    reference)."""
    k = len(x)
    zg = np.zeros_like(x), np.zeros_like(y)
    A = dist_and_centered(x)[1]
    B = dist_and_centered(y)[1]
    k2 = float(k * k)
    vxy2, vxx2, vyy2 = (A * B).sum() / k2, (A * A).sum() / k2, (B * B).sum() / k2
    vx, vy = np.sqrt(max(vxx2, 0.0)), np.sqrt(max(vyy2, 0.0))
    if vx < 1e-12 or vy < 1e-12:
        return 0.0, *zg
    dcov = np.sqrt(max(vxy2, 0.0))
    denom = np.sqrt(vx * vy)
    value = float(dcov / denom)
    if dcov < 1e-12:
        return value, *zg
    Sx = np.sign(x[:, None] - x[None, :])
    Sy = np.sign(y[:, None] - y[None, :])
    dvxy2_dx = (2.0 / k2) * (B * Sx).sum(axis=1)
    dvxy2_dy = (2.0 / k2) * (A * Sy).sum(axis=1)
    dvxx2_dx = (4.0 / k2) * (A * Sx).sum(axis=1)
    dvyy2_dy = (4.0 / k2) * (B * Sy).sum(axis=1)
    gx = dvxy2_dx / (2.0 * dcov * denom) - value * dvxx2_dx / (4.0 * vxx2)
    gy = dvxy2_dy / (2.0 * dcov * denom) - value * dvyy2_dy / (4.0 * vyy2)
    return value, gx, gy


def pair_loop_soft_dcorr(X, keep_fraction, basis=None):
    """soft_dcorr_loss as a Python loop over the pairs of projected rows."""
    if basis is None:
        basis, Z = pca_project(X, keep_fraction)
    else:
        Z = project_with_basis(X, basis)
    dZ = np.zeros_like(Z)
    value = 0.0
    for i in range(len(Z)):
        for j in range(i + 1, len(Z)):
            v, gi, gj = _dcorr_pair_with_grad(Z[i], Z[j])
            value += v
            dZ[i] += gi
            dZ[j] += gj
    dXc = dZ @ basis.T
    return value, dXc - dXc.mean(axis=0, keepdims=True)


def test_soft_dcorr_matches_pair_loop_reference():
    rng = np.random.default_rng(11)
    cases = []
    for t in range(120):
        P, h = int(rng.integers(2, 9)), int(rng.integers(3, 13))
        X = rng.normal(size=(P, h)) * rng.uniform(0.1, 3.0)
        if t % 5 == 1:
            X[int(rng.integers(P))] = X[0]  # duplicated row
        if t % 5 == 2:
            X[:] = X[0]  # all rows identical
        basis = pca_project(rng.normal(size=(P, h)), 0.5)[0] if t % 5 == 3 else None
        cases.append((X, rng.choice([0.5, 1.0]), basis))
    cases.append((rng.normal(size=(6, 5)), 0.0, None))  # k = 1
    # two tiny rows whose dVars pass the guard while their dCov does not
    r, t1, t2 = np.random.default_rng(2).normal(size=(3, 5)) * [[1.0], [3e-12], [3e-12]]
    X = np.stack([r, -r - t1 - t2, t1, t2])
    A, B = (dist_and_centered(z)[1] for z in project_with_basis(X, np.eye(5))[2:])
    assert min((A * A).mean(), (B * B).mean()) >= 1e-24 > (A * B).mean()
    cases.append((X, 1.0, np.eye(5)))
    for X, keep, basis in cases:
        v, grad, _ = soft_dcorr_loss(X, keep, basis=basis)
        v_ref, grad_ref = pair_loop_soft_dcorr(X, keep, basis)
        assert v == pytest.approx(v_ref, rel=1e-12, abs=1e-300)
        scale = np.abs(grad_ref).max()
        if scale < 1e-10:
            # every pair has dCor 0 or 1 (two rows, k <= 2, identical rows):
            # the gradient is zero and both sides hold rounding noise only
            assert np.abs(grad).max() < 1e-12
        else:
            assert np.abs(grad - grad_ref).max() <= 1e-12 * scale


# -- cross-system alignment ---------------------------------------------------


def test_cross_system_zero_inputs_anchor():
    z = np.zeros((1, 4))
    v, du, dp, dn = cross_system_loss(z, z, z, z, z, z)
    assert v == pytest.approx(2.0 * math.log(2.0), rel=1e-14)
    np.testing.assert_array_equal(du, np.zeros((1, 4)))
    np.testing.assert_array_equal(dp, np.zeros((1, 4)))
    np.testing.assert_array_equal(dn, np.zeros((1, 4)))


def test_cross_system_aligned_anchor():
    # both directions score +20, so each softplus is ~2.06e-9
    cu = np.array([[20.0, 0.0]])
    cpos = np.array([[20.0, 0.0]])
    cneg = np.zeros((1, 2))
    nu = np.array([[1.0, 0.0]])
    npos = np.array([[1.0, 0.0]])
    nneg = np.zeros((1, 2))
    v, _, _, _ = cross_system_loss(cu, cpos, cneg, nu, npos, nneg)
    assert v == pytest.approx(2.0 * math.log1p(math.exp(-20.0)), rel=1e-9)


def test_cross_system_matches_scalar_loop():
    rng = np.random.default_rng(11)
    arrs = [rng.normal(size=(5, 3)) for _ in range(6)]
    v, du, dp, dn = cross_system_loss(*arrs)
    cu, cp, cn, nu, npos, nneg = arrs
    want = 0.0
    for b in range(5):
        d1 = float(cu[b] @ (npos[b] - nneg[b]))
        d2 = float(nu[b] @ (cp[b] - cn[b]))
        want += math.log1p(math.exp(-d1)) + math.log1p(math.exp(-d2))
    assert v == pytest.approx(want, rel=1e-12)


def test_cross_system_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    arrs = [rng.normal(size=(3, 4)) for _ in range(6)]
    _, du, dp, dn = cross_system_loss(*arrs)
    step = 1e-6
    for target, analytic in ((0, du), (1, dp), (2, dn)):
        fd = np.zeros_like(arrs[target])
        for b in range(3):
            for j in range(4):
                plus = [a.copy() for a in arrs]
                minus = [a.copy() for a in arrs]
                plus[target][b, j] += step
                minus[target][b, j] -= step
                vp, _, _, _ = cross_system_loss(*plus)
                vm, _, _, _ = cross_system_loss(*minus)
                fd[b, j] = (vp - vm) / (2 * step)
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-9)


def test_cross_system_shape_validation():
    z = np.zeros((2, 3))
    with pytest.raises(ValueError, match="share one shape"):
        cross_system_loss(z, z, z, z, z, np.zeros((2, 4)))


# -- content click loss ---------------------------------------------------------


def test_click_loss_uniform_anchor():
    v, dpos, dneg = click_softmax_loss(np.zeros(1), np.zeros((1, 3)))
    assert v == pytest.approx(math.log(4.0), rel=1e-14)
    assert dpos[0] == pytest.approx(0.25 - 1.0, rel=1e-13)
    np.testing.assert_allclose(dneg[0], [0.25, 0.25, 0.25], rtol=1e-13)


def test_click_loss_log_sum_exp_matches_scipy():
    # per row the loss is logsumexp(pos, negs) - pos, stable at any scale
    rng = np.random.default_rng(1)
    pos, neg = rng.normal(size=3) * 50, rng.normal(size=(3, 4)) * 50
    v, _, _ = click_softmax_loss(pos, neg)
    want = sum(special.logsumexp(np.concatenate([[p], n])) - p for p, n in zip(pos, neg))
    assert v == pytest.approx(want, rel=1e-12, abs=1e-10)
    v, _, _ = click_softmax_loss(np.array([0.0]), np.array([[0.0]]))
    assert v == pytest.approx(math.log(2.0), rel=1e-14)
    v, _, _ = click_softmax_loss(np.array([-1e5]), np.array([[-1e5]]))
    assert v == pytest.approx(math.log(2.0), abs=1e-10)  # lse - pos cancels at this scale


def test_click_loss_matches_scalar_formula():
    rng = np.random.default_rng(13)
    pos = rng.normal(size=4)
    neg = rng.normal(size=(4, 5))
    v, dpos, dneg = click_softmax_loss(pos, neg)
    want = 0.0
    for b in range(4):
        z = math.exp(pos[b]) + sum(math.exp(x) for x in neg[b])
        want += math.log(z) - pos[b]
    assert v == pytest.approx(want, rel=1e-12)
    # grads on each row sum to zero: the loss is shift invariant
    np.testing.assert_allclose(dpos + dneg.sum(axis=1), np.zeros(4), atol=1e-14)


def test_click_loss_shift_invariance_and_validation():
    pos = np.array([0.5, -1.0])
    neg = np.array([[0.1, 0.2], [0.3, 0.4]])
    v1, _, _ = click_softmax_loss(pos, neg)
    v2, _, _ = click_softmax_loss(pos + 2.0, neg + 2.0)
    assert v1 == pytest.approx(v2, rel=1e-13)
    with pytest.raises(ValueError, match="batch"):
        click_softmax_loss(np.zeros(2), np.zeros((3, 2)))


def test_click_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(14)
    pos = rng.normal(size=3)
    neg = rng.normal(size=(3, 4))
    _, dpos, dneg = click_softmax_loss(pos, neg)
    step = 1e-6
    for b in range(3):
        p = pos.copy()
        p[b] += step
        vp, _, _ = click_softmax_loss(p, neg)
        p[b] -= 2 * step
        vm, _, _ = click_softmax_loss(p, neg)
        assert dpos[b] == pytest.approx((vp - vm) / (2 * step), rel=1e-5)
        for j in range(4):
            n = neg.copy()
            n[b, j] += step
            vp, _, _ = click_softmax_loss(pos, n)
            n[b, j] -= 2 * step
            vm, _, _ = click_softmax_loss(pos, n)
            assert dneg[b, j] == pytest.approx((vp - vm) / (2 * step), rel=1e-5)


# -- combination ---------------------------------------------------------------


def test_combine_losses_weighting():
    w = LossWeights(l2=0.5, dcorr=2.0, cross_system=3.0)
    assert LossParts(1.0, 2.0, 3.0, 4.0).total(w) == pytest.approx(1 + 1 + 6 + 12)
    w0 = LossWeights(l2=0.0, dcorr=0.0, cross_system=0.0)
    assert LossParts(1.5, 99.0, 99.0, 99.0).total(w0) == 1.5


def test_loss_weights_validation():
    LossWeights().validate()
    with pytest.raises(ValueError, match="^l2 must be >= 0$"):
        LossWeights(l2=-1.0).validate()
    with pytest.raises(ValueError, match="pca_keep"):
        LossWeights(pca_keep=1.2).validate()
