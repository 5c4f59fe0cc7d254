import numpy as np
import pytest
from conftest import build_store
from scipy import stats

from kgrec.sampling import ReciprocalSampler, build_sampler


@pytest.mark.parametrize(
    "counts",
    [
        [1, 1, 2],
        [5],
        [0, 2],
        [1, 1, 1, 1],
        [20, 1, 20],
        [3, 1, 7, 2, 2],
    ],
)
def test_draw_cdf_encodes_exact_distribution(counts):
    sampler = ReciprocalSampler(len(counts), np.array(counts), ())
    weights = 1.0 / np.maximum(counts, 1)
    np.testing.assert_allclose(np.diff(sampler.cdf, prepend=0.0), weights / weights.sum(), atol=1e-12)
    assert sampler.cdf[-1] == 1.0
    draws = sampler.draw(np.random.default_rng(1), 8)
    assert draws.dtype == np.int64 and draws.shape == (8,)
    assert ((draws >= 0) & (draws < len(counts))).all()


def _store_with_counts():
    # counts: item0 seen 3x, item1 2x, item2 1x, item3 0x
    return build_store(
        {0: [0, 1], 1: [0, 1, 2], 2: [0]},
        num_items=4,
    )


def test_reciprocal_weights_and_zero_count_floor():
    sampler = build_sampler(_store_with_counts())
    np.testing.assert_allclose(sampler.weights, [1 / 3, 1 / 2, 1.0, 1.0])


def test_raw_draw_matches_reciprocal_distribution_chi_square():
    sampler = build_sampler(_store_with_counts())
    rng = np.random.default_rng(3)
    n = 200_000
    draws = sampler.draw(rng, size=n)
    observed = np.bincount(draws, minlength=4)
    weights = 1.0 / np.maximum([3, 2, 1, 0], 1)  # the store's train counts, floored at 1
    chi2, p = stats.chisquare(observed, f_exp=weights / weights.sum() * n)
    assert p > 0.001, f"chi2={chi2}, p={p}"


def test_uniform_sampler_chi_square():
    store = _store_with_counts()
    sampler = build_sampler(store, uniform=True)
    np.testing.assert_array_equal(sampler.weights, 1.0)
    rng = np.random.default_rng(4)
    n = 200_000
    observed = np.bincount(sampler.draw(rng, n), minlength=4)
    chi2, p = stats.chisquare(observed, f_exp=np.full(4, n / 4))
    assert p > 0.001, f"raw draw chi2={chi2}, p={p}"
    # user 2's only positive is item 0: its negatives are uniform over the rest
    negs = sampler.sample_negatives(rng, np.full(30_000, 2))
    observed = np.bincount(negs, minlength=4)
    assert observed[0] == 0
    chi2, p = stats.chisquare(observed[1:], f_exp=np.full(3, 10_000.0))
    assert p > 0.001, f"negatives chi2={chi2}, p={p}"


def test_negatives_never_collide_with_train_positives():
    store = _store_with_counts()
    sampler = build_sampler(store)
    users = np.tile(np.arange(store.num_users), 500)
    negs = sampler.sample_negatives(np.random.default_rng(5), users)
    assert negs.dtype == np.int64 and negs.shape == users.shape
    for u in range(store.num_users):
        assert not np.isin(negs[users == u], store.train[u]).any()
    # user 1 owns items 0-2, so only item 3 is left
    assert set(negs[users == 1].tolist()) == {3}


def test_rejection_fallback_still_respects_positives():
    # user 0 owns every item except item 3, whose count leaves it almost no
    # draw mass, so every redraw round collides and the fallback decides;
    # user 2 owns item 0 only, the one item the draws almost always hit
    store = build_store({0: [0, 1, 2], 1: [3], 2: [0]}, num_items=4)
    users, items = store.train_pairs()
    sampler = ReciprocalSampler(4, np.array([1, 10**15, 10**15, 10**15]), users * 4 + items)
    batch = np.repeat([0, 1, 2], 3000)
    negs = sampler.sample_negatives(np.random.default_rng(11), batch)
    assert set(negs[batch == 0].tolist()) == {3}
    assert 3 not in set(negs[batch == 1].tolist())
    # the fallback picks uniformly among user 2's non-positives
    observed = np.bincount(negs[batch == 2], minlength=4)
    assert observed[0] == 0
    chi2, p = stats.chisquare(observed[1:], f_exp=np.full(3, 1000.0))
    assert p > 0.001, f"fallback chi2={chi2}, p={p}"


def test_all_items_positive_raises():
    store = build_store({0: [0, 1], 1: [0]}, num_items=2)
    sampler = build_sampler(store)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="user 0 has every item as a positive"):
        sampler.sample_negatives(rng, np.array([1, 0, 1, 0]))


def test_sampler_is_deterministic_under_fixed_seed():
    store = _store_with_counts()
    sampler = build_sampler(store)
    users = np.array([0, 1, 2, 0, 1, 2], dtype=np.int64)
    a = sampler.sample_negatives(np.random.default_rng(42), users)
    b = sampler.sample_negatives(np.random.default_rng(42), users)
    assert np.array_equal(a, b)


def test_sampler_validates_shapes():
    with pytest.raises(ValueError, match="one entry per item"):
        ReciprocalSampler(3, np.array([1, 2]), ())
    with pytest.raises(ValueError, match="positive"):
        ReciprocalSampler(0, np.array([]), ())
