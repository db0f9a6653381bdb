import itertools

import numpy as np
import pytest

from nrsfm.sparse import (block_ista_step, block_sparsity, block_threshold,
                          group_prox, ista, soft_threshold, threshold)


def test_soft_threshold_cases():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-3.0, 1.0) == -2.0
    assert soft_threshold(0.5, 1.0) == 0.0


def test_soft_threshold_rejects_negative():
    with pytest.raises(ValueError):
        soft_threshold(np.array([1.0]), np.array([-0.1]))


def test_soft_threshold_odd_and_nonexpansive():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(200)
    y = rng.standard_normal(200)
    b = rng.uniform(0, 2, 200)
    assert np.allclose(soft_threshold(-x, b), -soft_threshold(x, b))
    assert np.all(np.abs(soft_threshold(x, b) - soft_threshold(y, b)) <= np.abs(x - y) + 1e-15)


@pytest.mark.parametrize("activation", ["relu", "soft"])
def test_threshold_in_place_writes_the_same_bytes(activation):
    """threshold(x, b, act, out=x) overwrites x with the bytes of the
    out-of-place call, -0.0 told from +0.0: entries at exactly +-b and at
    +-0.0, a zero b, and b per block, per entry and as a scalar."""
    rng = np.random.default_rng(12)
    b = rng.uniform(0.1, 1.0, (4, 1, 1))
    b[1] = 0.0
    x = rng.standard_normal((4, 3, 5))
    x[:, 0, 0], x[:, 0, 1] = b[:, 0, 0], -b[:, 0, 0]
    x[:, 1, 0], x[:, 1, 1] = 0.0, -0.0
    for bb in (b, np.broadcast_to(b, x.shape).copy(), 0.0, 0.5):
        want = threshold(x, bb, activation)
        got = x.copy()
        assert threshold(got, bb, activation, out=got) is got
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # soft shrinks small negative entries to -0.0, which == cannot tell apart
    shrunk = threshold(x, b, "soft")
    assert np.any((shrunk == 0) & np.signbit(shrunk))


def _composite(x, D, z, tau):
    return 0.5 * np.sum((x - D @ z) ** 2) + tau * np.sum(np.abs(z))


def test_ista_zero_input():
    rng = np.random.default_rng(2)
    D = rng.standard_normal((6, 4))
    z = ista(np.zeros(6), D, alpha=0.1, tau=0.5, iters=5)
    assert np.all(z == 0)


def test_ista_single_step_identity_dictionary():
    D = np.eye(4)
    x = D @ (2.0 * np.eye(4)[:, 0])
    z = ista(x, D, alpha=1.0, tau=0.1, iters=1)
    assert np.allclose(z, [1.9, 0, 0, 0])


def test_ista_dimension_mismatch():
    with pytest.raises(ValueError, match="^ista: dimension mismatch, x has 5 rows but D has 6$"):
        ista(np.zeros(5), np.zeros((6, 4)), 1.0, 0.1, 1)
    # a step size that is not positive, or no iteration at all
    for alpha, iters, match in ((0.0, 1, "step size must be positive"),
                                (1.0, 0, "need at least one iteration")):
        with pytest.raises(ValueError, match=f"^ista: {match}$"):
            ista(np.zeros(6), np.zeros((6, 4)), alpha, 0.1, iters)


def _exhaustive_support_oracle(x, D, max_support=2):
    """Best least-squares fit over all supports of size <= max_support."""
    K = D.shape[1]
    best, best_obj = None, np.inf
    for size in range(1, max_support + 1):
        for supp in itertools.combinations(range(K), size):
            sub = D[:, list(supp)]
            z, *_ = np.linalg.lstsq(sub, x, rcond=None)
            obj = np.sum((x - sub @ z) ** 2)
            if obj < best_obj:
                best_obj, best = obj, supp
    return set(best)


def test_ista_recovers_planted_support():
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(20):
        D = rng.standard_normal((8, 4))
        D /= np.linalg.norm(D, axis=0)
        k = rng.integers(4)
        x = D[:, k] * rng.uniform(1.0, 2.0)
        alpha = 1.0 / np.linalg.norm(D, 2) ** 2
        z = ista(x, D, alpha=alpha, tau=0.05, iters=200)
        support = set(np.flatnonzero(np.abs(z) > 1e-6))
        oracle = _exhaustive_support_oracle(x, D)
        if support and support <= oracle:
            hits += 1
    assert hits >= 19


def test_ista_descent_property():
    rng = np.random.default_rng(4)
    for _ in range(100):
        D = rng.standard_normal((7, 5))
        x = rng.standard_normal(7)
        tau = rng.uniform(0.01, 0.5)
        alpha = 1.0 / np.linalg.norm(D, 2) ** 2
        z = np.zeros(5)
        prev = _composite(x, D, z, tau)
        for _ in range(10):
            v = z - alpha * (D.T @ (D @ z - x))
            z = soft_threshold(v, alpha * tau)
            obj = _composite(x, D, z, tau)
            assert obj <= prev + 1e-12
            prev = obj


def test_group_prox_matches_closed_form_block():
    V = np.zeros((1, 3, 2))
    V[0, 0, 0] = 3.0
    out = group_prox(V, 1.0)
    expected = np.zeros((1, 3, 2))
    expected[0, 0, 0] = 2.0
    assert np.allclose(out, expected, atol=1e-12)


def test_group_prox_small_blocks_vanish():
    rng = np.random.default_rng(5)
    V = rng.standard_normal((4, 3, 2)) * 0.1
    tau = np.linalg.norm(V, axis=(1, 2)).max() + 0.01
    assert np.all(group_prox(V, tau) == 0)


def test_group_prox_tau_zero_identity():
    rng = np.random.default_rng(6)
    V = rng.standard_normal((4, 3, 2))
    assert np.array_equal(group_prox(V, 0.0), V)


def test_group_prox_validates():
    with pytest.raises(ValueError, match=r"^expected block code of shape \(K, r, 2\), got "):
        group_prox(np.zeros((4, 3)), 0.5)
    with pytest.raises(ValueError, match="^group_prox: tau must be non-negative$"):
        group_prox(np.zeros((4, 3, 2)), -0.5)


def test_group_prox_is_local_minimum():
    # objective of the output beats 1000 random perturbations of it
    rng = np.random.default_rng(7)
    V = rng.standard_normal((5, 3, 2))
    tau = 0.7
    U = group_prox(V, tau)

    def obj(A):
        return 0.5 * np.sum((A - V) ** 2) + tau * np.sum(np.linalg.norm(A, axis=(1, 2)))

    base = obj(U)
    for _ in range(1000):
        assert base <= obj(U + rng.standard_normal(U.shape) * 1e-3) + 1e-12


def test_block_threshold_soft_and_relu():
    V = np.zeros((1, 3, 2))
    V[0] = [[2, -2], [0.5, 0], [0, 0]]
    soft = block_threshold(V, [1.0], mode="soft")
    assert np.allclose(soft[0], [[1, -1], [0, 0], [0, 0]])
    relu = block_threshold(V, [1.0], mode="relu")
    assert np.allclose(relu[0], [[1, 0], [0, 0], [0, 0]])


def test_block_threshold_zero_identity():
    rng = np.random.default_rng(8)
    V = rng.standard_normal((6, 3, 2))
    assert np.array_equal(block_threshold(V, np.zeros(6)), V)


def test_block_threshold_validates():
    V = np.zeros((2, 3, 2))
    with pytest.raises(ValueError):
        block_threshold(V, [1.0])
    with pytest.raises(ValueError):
        block_threshold(V, [-1.0, 0.0])
    with pytest.raises(ValueError, match="^block_threshold: unknown mode 'tanh'$"):
        block_threshold(V, [1.0, 0.0], mode="tanh")


@pytest.mark.parametrize("X, D, b, mask, message", [
    (np.zeros((6, 3)), np.zeros((6, 12)), np.zeros(4), None, "X must be (P, 2), got (6, 3)"),
    (np.zeros((6, 2)), np.zeros((5, 12)), np.zeros(4), None, "D has 5 rows, X has 6"),
    (np.zeros((6, 2)), np.zeros((6, 12)), np.zeros(5), None,
     "12 dictionary columns do not split into 5 blocks"),
    (np.zeros((6, 2)), np.zeros((6, 12)), np.zeros(0), None,
     "12 dictionary columns do not split into 0 blocks"),
    (np.zeros((6, 2)), np.zeros((6, 12)), np.zeros(4), np.ones(5, bool),
     "mask length must match rows of X"),
], ids=["X-shape", "D-rows", "blocks", "no-threshold", "mask"])
def test_block_ista_step_validates(X, D, b, mask, message):
    with pytest.raises(ValueError) as info:
        block_ista_step(X, D, b, mask=mask)
    assert str(info.value) == "block_ista_step: " + message


def test_block_ista_step_mask_equivalence():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((6, 2))
    D = rng.standard_normal((6, 12))
    b = rng.uniform(0, 0.5, 4)
    full = np.ones(6, dtype=bool)
    assert np.array_equal(block_ista_step(X, D, b),
                          block_ista_step(X, D, b, mask=full))


def test_block_ista_step_zero_measurement():
    rng = np.random.default_rng(10)
    D = rng.standard_normal((5, 9))
    out = block_ista_step(np.zeros((5, 2)), D, np.full(3, 0.1))
    assert np.all(out == 0)


def test_block_ista_step_matches_direct_evaluation():
    # straight-line re-evaluation of eta(D^T Omega X - b)
    rng = np.random.default_rng(11)
    X = rng.standard_normal((6, 2))
    D = rng.standard_normal((6, 12))
    b = rng.uniform(0, 0.5, 4)
    mask = np.array([1, 1, 0, 1, 0, 1], dtype=bool)
    Xm = X.copy()
    Xm[~mask] = 0
    V = (D.T @ Xm).reshape(4, 3, 2)
    expected = np.sign(V) * np.maximum(np.abs(V) - b[:, None, None], 0)
    assert np.allclose(block_ista_step(X, D, b, mask=mask), expected, atol=1e-15)


def test_block_sparsity_counts_active_blocks():
    Z = np.zeros((8, 3, 2))
    assert block_sparsity(Z) == 0
    Z[3, 1, 0] = 0.5
    assert block_sparsity(Z) == 1


def test_block_sparsity_monotone_in_threshold():
    rng = np.random.default_rng(12)
    for _ in range(50):
        V = rng.standard_normal((10, 3, 2))
        b = rng.uniform(0, 1.0, 10)
        bp = b + rng.uniform(0, 1.0, 10)
        lo = block_sparsity(block_threshold(V, bp))
        hi = block_sparsity(block_threshold(V, b))
        assert lo <= hi
