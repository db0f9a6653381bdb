import numpy as np
import pytest

from nrsfm.geometry import random_rotation
import nrsfm.model
from nrsfm.model import (POLAR_CLAMP, CameraRankError, ModelParams, as_batch,
                         backward_batch, decode, default_beta, default_gamma,
                         encode, forward, forward_batch, loss, polar_vjp,
                         recover_code_camera)
from nrsfm.sparse import block_ista_step, block_sparsity, threshold
from nrsfm.training import gradients


def _random_params(rng, P=5, widths=(6, 3), activation="relu", block_rows=3,
                   thresholds=0.0):
    dicts = [rng.standard_normal((P, 3 * widths[0]))]
    for a, b in zip(widths, widths[1:]):
        dicts.append(rng.standard_normal((a, b)))
    enc = [np.full(k, thresholds) for k in widths]
    dec = [np.full(k, thresholds) for k in widths[:-1]]
    return ModelParams(dicts, enc, dec, default_beta(block_rows),
                       default_gamma(widths[-1]), activation=activation,
                       block_rows=block_rows)


def test_params_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        _random_params(rng, activation="tanh")
    p = _random_params(rng)
    with pytest.raises(ValueError):
        ModelParams(p.dictionaries, p.enc_thresholds, p.dec_thresholds,
                    p.beta, np.ones(5), p.activation, p.block_rows)
    bad_dicts = [p.dictionaries[0], np.zeros((4, 3))]
    with pytest.raises(ValueError):
        ModelParams(bad_dicts, p.enc_thresholds, p.dec_thresholds,
                    p.beta, p.gamma)
    # a first dictionary whose columns do not form atoms of three
    with pytest.raises(ValueError, match="^first dictionary must have 3\\*K1 columns$"):
        ModelParams([p.dictionaries[0][:, :-1], p.dictionaries[1]], p.enc_thresholds,
                    p.dec_thresholds, p.beta, p.gamma)
    # a first dictionary of the right size but flattened to one axis
    with pytest.raises(ValueError, match="2-D"):
        ModelParams([p.dictionaries[0].ravel(), p.dictionaries[1]], p.enc_thresholds,
                    p.dec_thresholds, p.beta, p.gamma)
    # a 2-layer model (widths 6, 3) with one encoder threshold too few or too
    # many, no decoder threshold or one too many: each group's count is checked
    enc, dec = p.enc_thresholds, p.dec_thresholds
    for bad_enc, bad_dec, group in ((enc[:1], dec, "encoder"),
                                    (enc + [np.zeros(3)], dec, "encoder"),
                                    (enc, [], "decoder"), (enc, dec + [np.zeros(3)], "decoder")):
        with pytest.raises(ValueError, match=f"the {group} thresholds of a 2-layer model"):
            ModelParams(p.dictionaries, bad_enc, bad_dec, p.beta, p.gamma)
    # at equal widths, an encoder threshold moved to the decoder keeps the
    # flat list of shapes; the groups still differ
    q = _random_params(rng, widths=(4, 4))
    with pytest.raises(ValueError, match="the encoder thresholds of a 2-layer model"):
        ModelParams(q.dictionaries, q.enc_thresholds[:1], q.dec_thresholds + [np.zeros(4)],
                    q.beta, q.gamma)
    # block_rows must be the integer 3 or 4, not a float that equals one
    with pytest.raises(ValueError, match="block_rows must be the integer 3 or 4, got 3.0"):
        ModelParams(p.dictionaries, enc, dec, p.beta, p.gamma, block_rows=3.0)
    # a negative threshold, encoder or decoder: soft would then pass an
    # exactly-zero pre-activation that its stored output reads as blocked
    for group in ("enc_thresholds", "dec_thresholds"):
        bad = p.copy()
        getattr(bad, group)[0][1] = -0.1
        with pytest.raises(ValueError, match="non-negative"):
            ModelParams(bad.dictionaries, bad.enc_thresholds, bad.dec_thresholds,
                        bad.beta, bad.gamma, "soft")


def test_params_share_one_flat_vector():
    """The constructor copies its arrays into params.flat in param_items
    order and makes the fields views into it: an in-place edit of a field,
    or of a param_items array's ravel(), edits flat and moves the loss.
    Finite differences and Adam rely on this; copy() shares nothing."""
    rng = np.random.default_rng(40)
    widths = (6, 4, 3)
    dicts = [rng.standard_normal((5, 18)), rng.standard_normal((6, 4)),
             rng.standard_normal((4, 3))]
    enc = [np.full(k, 0.05) for k in widths]
    dec = [np.full(k, 0.05) for k in widths[:-1]]
    inputs = dicts + enc + dec + [default_beta(3), default_gamma(3)]
    params = ModelParams(dicts, enc, dec, *inputs[-2:])
    assert params.flat.dtype == np.float64
    assert np.array_equal(params.flat, np.concatenate([a.ravel() for a in inputs]))
    assert not any(np.shares_memory(params.flat, a) for a in inputs)
    dicts[0][0, 0] += 1.0
    assert params.dictionaries[0][0, 0] == dicts[0][0, 0] - 1.0

    W = rng.standard_normal((6, 5, 2))
    vis = np.ones((6, 5), dtype=bool)

    def total():
        losses, valid, _ = forward_batch(W, vis, params)
        return losses[valid].sum()

    k = sum(D.size for D in params.dictionaries)    # where enc_b1 starts
    before = total()
    params.enc_thresholds[0][0] += 0.5
    assert params.flat[k] == 0.05 + 0.5 and total() != before
    grads = backward_batch(forward_batch(W, vis, params)[2], params)
    offset = 0
    for name, arr in params.param_items():
        j = int(np.argmax(np.abs(grads[name].ravel())))    # an entry the loss depends on
        flat_before, before = params.flat.copy(), total()
        arr.ravel()[j] += 0.25
        assert np.flatnonzero(params.flat != flat_before).tolist() == [offset + j], name
        assert total() != before, name
        offset += arr.size
    assert offset == params.flat.size

    dup = params.copy()
    assert np.array_equal(dup.flat, params.flat)
    assert not np.shares_memory(dup.flat, params.flat)
    assert all(np.shares_memory(a, dup.flat) for _, a in dup.param_items())
    dup.dictionaries[1][0, 0] += 1.0
    dup.beta[0, 0] += 1.0
    assert np.count_nonzero(dup.flat != params.flat) == 2


def test_backward_batch_names_first_non_finite_group():
    """One finiteness scan over grads.flat; the error names the first group,
    in param_items order, that holds a non-finite entry.  (forward_batch
    rejects a non-finite visible measurement, so the non-finite values are
    put into the cache that backward_batch reads.)"""
    rng = np.random.default_rng(41)
    params = _random_params(rng, P=5, widths=(6, 3), thresholds=0.02)
    W = rng.standard_normal((3, 5, 2))
    vis = np.ones((3, 5), dtype=bool)
    vis[1, 2] = False
    clean = backward_batch(forward_batch(W, vis, params)[2], params)
    # a NaN on a hidden point is masked out of the gradient
    W[1, 2, 0] = np.nan
    hidden = backward_batch(forward_batch(W, vis, params)[2], params)
    assert np.array_equal(hidden.flat, clean.flat)
    # a NaN on a visible point of the encoder's input reaches dict1 only
    _, _, cache = forward_batch(W, vis, params)
    cache["Xt"][0, 0] = np.nan
    with pytest.raises(FloatingPointError, match="'dict1'"):
        backward_batch(cache, params)
    # an infinite final code reaches beta and gamma, which come after the
    # finite dictionaries and thresholds
    _, _, cache = forward_batch(W, vis, params)
    cache["blocks"][-1][0, 0, 0, 0] = np.inf
    with pytest.raises(FloatingPointError, match="'beta'"):
        backward_batch(cache, params)


def test_encode_single_linear_layer():
    # all thresholds zero, soft mode, one layer: pure matrix multiply
    rng = np.random.default_rng(1)
    params = _random_params(rng, P=4, widths=(5,), activation="soft")
    W = rng.standard_normal((4, 2))
    (psi1,) = encode(W, None, params)
    D1r = params.dictionaries[0].reshape(4, 5, 3)
    expected = np.einsum("pkc,pq->kcq", D1r, W)
    assert np.allclose(psi1, expected, atol=1e-14)


def test_encode_zero_input():
    rng = np.random.default_rng(2)
    params = _random_params(rng, thresholds=0.3)
    blocks = encode(np.zeros((5, 2)), None, params)
    assert all(np.all(b == 0) for b in blocks)


def test_encode_right_multiplication_equivariance():
    rng = np.random.default_rng(3)
    params = _random_params(rng, activation="soft")
    W = rng.standard_normal((5, 2))
    for _ in range(10):
        R = rng.standard_normal((2, 2))
        lhs = encode(W @ R, None, params)
        rhs = [b @ R for b in encode(W, None, params)]
        for a, b in zip(lhs, rhs):
            assert np.allclose(a, b, atol=1e-12)


def test_encode_linearity_soft_zero_thresholds():
    rng = np.random.default_rng(4)
    params = _random_params(rng, activation="soft")
    W1, W2 = rng.standard_normal((2, 5, 2))
    a, b = 1.7, -0.4
    lhs = encode(a * W1 + b * W2, None, params)
    r1, r2 = encode(W1, None, params), encode(W2, None, params)
    for L, x, y in zip(lhs, r1, r2):
        assert np.allclose(L, a * x + b * y, atol=1e-12)


def test_encode_relu_nonnegative():
    rng = np.random.default_rng(5)
    params = _random_params(rng, thresholds=0.1)
    blocks = encode(rng.standard_normal((5, 2)), None, params)
    assert all(np.all(b >= 0) for b in blocks)


def test_encode_masking_zeroes_rows():
    rng = np.random.default_rng(6)
    params = _random_params(rng)
    W = rng.standard_normal((5, 2))
    mask = np.array([1, 0, 1, 1, 0], dtype=bool)
    Wz = np.where(mask[:, None], W, 0.0)
    lhs = encode(W, mask, params)
    rhs = encode(Wz, None, params)
    for a, b in zip(lhs, rhs):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("block_rows,activation", [(3, "relu"), (4, "soft")])
def test_forward_passes_leave_their_inputs_unchanged(block_rows, activation):
    """The layers are thresholded in place, over fresh products only: W, vis
    and params.flat keep their bytes, also through a single frame, which
    reaches forward_batch as a view of the caller's array."""
    rng = np.random.default_rng(46)
    params = _random_params(rng, P=6, widths=(6, 4, 3), activation=activation,
                            block_rows=block_rows, thresholds=0.02)
    W = rng.standard_normal((5, 6, 2)) + (2.0 if block_rows == 4 else 0.0)
    vis = rng.random((5, 6)) > 0.25
    W[~vis] = np.nan
    W[0, 0, 0] = -0.0
    vis[0, 0] = True
    before = W.copy(), vis.copy(), params.flat.copy()
    backward_batch(forward_batch(W, vis, params)[2], params)
    forward(W[0], vis[0], params)
    encode(W[0], vis[0], params)
    for a, b in zip((W, vis, params.flat), before):
        assert a.tobytes() == b.tobytes()


def test_encode_runs_the_encoder_only(monkeypatch):
    """encode's codes are forward_batch's, bit for bit, without the camera,
    the decoder or the loss; bad input raises forward_batch's errors."""
    rng = np.random.default_rng(47)
    params = _random_params(rng, P=5, widths=(6, 4, 3), activation="soft",
                            block_rows=4, thresholds=0.02)
    W = rng.standard_normal((5, 2)) + 2.0
    mask = np.array([1, 1, 0, 1, 1], dtype=bool)
    blocks = forward_batch(W[None], mask[None], params)[2]["blocks"]

    def not_called(*args):
        raise AssertionError("encode ran past the encoder")

    monkeypatch.setattr(nrsfm.model, "polar_factor", not_called)
    monkeypatch.setattr(nrsfm.model, "_decoder", not_called)
    for code, blk in zip(encode(W, mask, params), blocks, strict=True):
        assert code.tobytes() == blk[:, :, 0].tobytes()
    bad = W.copy()
    bad[3, 1] = np.inf
    for args, match in (((bad, mask), "non-finite measurement at a visible point"),
                        ((W[:4], None), "model has 5 points, W has 4"),
                        ((W, mask[:4]), "visibility shape must match W"),
                        ((np.zeros((5, 3)), mask), r"W must be \(B, P, 2\), got \(1, 5, 3\)")):
        with pytest.raises(ValueError, match="^forward_batch: " + match):
            encode(*args, params)


def test_block_sparsity_monotone_in_encoder_threshold():
    rng = np.random.default_rng(7)
    W = rng.standard_normal((5, 2))
    for t_lo, t_hi in [(0.0, 0.2), (0.1, 0.5)]:
        lo = _random_params(np.random.default_rng(7), thresholds=t_lo)
        hi = _random_params(np.random.default_rng(7), thresholds=t_hi)
        b_lo = encode(W, None, lo)
        b_hi = encode(W, None, hi)
        assert block_sparsity(b_hi[0]) <= block_sparsity(b_lo[0]) <= lo.widths[0]


def test_recover_code_camera_oracle_weights():
    # beta chosen as the elementwise inverse average recovers a separable code
    rng = np.random.default_rng(8)
    M = random_rotation(8)[:, :2]
    psi = np.zeros(3)
    psi[0] = 2.0
    PsiN = psi[:, None, None] * M[None]
    params = _random_params(rng, widths=(6, 3))
    params.beta[:] = 1.0 / (6.0 * M)
    psiN, _ = recover_code_camera(PsiN, params)
    assert np.allclose(psiN, psi, atol=1e-12)
    # gamma concentrated on the active block recovers the camera
    params.gamma[:] = 0
    params.gamma[0] = 1.0 / psi[0]
    _, Mraw = recover_code_camera(PsiN, params)
    assert np.allclose(Mraw, M, atol=1e-12)


def test_recover_code_camera_double_loop():
    rng = np.random.default_rng(9)
    params = _random_params(rng, widths=(6, 3))
    params.beta[:] = rng.standard_normal((3, 2))
    params.gamma[:] = rng.standard_normal(3)
    PsiN = rng.standard_normal((3, 3, 2))
    psiN, Mraw = recover_code_camera(PsiN, params)
    for k in range(3):
        acc = sum(params.beta[i, j] * PsiN[k, i, j]
                  for i in range(3) for j in range(2))
        assert np.isclose(psiN[k], acc)
    acc = sum(params.gamma[k] * PsiN[k] for k in range(3))
    assert np.allclose(Mraw, acc)


def test_recover_code_camera_shape_check():
    rng = np.random.default_rng(10)
    params = _random_params(rng)
    with pytest.raises(ValueError):
        recover_code_camera(np.zeros((2, 3, 2)), params)


def test_decode_zero_and_basis():
    rng = np.random.default_rng(11)
    params = _random_params(rng, P=4, widths=(5,))
    assert np.all(decode(np.zeros(5), params) == 0)
    S = decode(np.eye(5)[2], params)
    atom = params.dictionaries[0].reshape(4, 5, 3)[:, 2, :]
    assert np.allclose(S, atom, atol=1e-14)


def test_decode_matches_straight_line_expansion():
    rng = np.random.default_rng(12)
    params = _random_params(rng, P=6, widths=(8, 5, 3))
    psiN = np.maximum(rng.standard_normal(3), 0)
    # independent evaluation with explicit loops
    phi = psiN
    for D, b in [(params.dictionaries[2], params.dec_thresholds[1]),
                 (params.dictionaries[1], params.dec_thresholds[0])]:
        phi = np.maximum(D @ phi - b, 0.0)
    expected = params.dictionaries[0].reshape(6, 8, 3).transpose(0, 2, 1) @ phi
    assert np.allclose(decode(psiN, params), expected, atol=1e-12)


def test_decode_dimension_check():
    rng = np.random.default_rng(13)
    params = _random_params(rng)
    with pytest.raises(ValueError):
        decode(np.zeros(4), params)


def test_forward_camera_orthonormal():
    rng = np.random.default_rng(14)
    for _ in range(100):
        params = _random_params(rng)
        out = forward(rng.standard_normal((5, 2)), None, params)
        M = out.camera.rotation
        assert np.max(np.abs(M.T @ M - np.eye(2))) < 1e-8


def test_forward_matches_independent_straight_line_oracle():
    # P=4, N=2, K=(6,3): every field re-derived with plain loops
    rng = np.random.default_rng(15)
    params = _random_params(rng, P=4, widths=(6, 3), thresholds=0.05)
    W = rng.standard_normal((4, 2))
    out = forward(W, None, params)

    D1r = params.dictionaries[0].reshape(4, 6, 3)
    T0 = np.einsum("pkc,pq->kcq", D1r, W)
    Psi1 = np.maximum(T0 - params.enc_thresholds[0][:, None, None], 0)
    V = np.einsum("jk,jrc->krc", params.dictionaries[1], Psi1)
    Psi2 = np.maximum(V - params.enc_thresholds[1][:, None, None], 0)
    psiN = np.einsum("rc,krc->k", params.beta, Psi2)
    Mraw = np.einsum("k,krc->rc", params.gamma, Psi2)
    U, s, Vt = np.linalg.svd(Mraw, full_matrices=False)
    Q = U @ Vt
    phi1 = np.maximum(params.dictionaries[1] @ psiN - params.dec_thresholds[0], 0)
    S = np.einsum("pkc,k->pc", D1r, phi1)
    What = S @ Q
    lv = np.sqrt(np.sum((W - What) ** 2) + 1e-12)

    assert np.allclose(out.hidden_blocks, Psi2, atol=1e-12)
    assert np.allclose(out.code, psiN, atol=1e-12)
    assert np.allclose(out.camera_raw, Mraw, atol=1e-12)
    assert np.allclose(out.camera.rotation, Q, atol=1e-10)
    assert np.allclose(out.shape, S, atol=1e-12)
    assert np.allclose(out.reprojection, What, atol=1e-10)
    assert np.isclose(out.loss_value, lv, atol=1e-10)


def test_forward_rank_deficient_raises():
    rng = np.random.default_rng(16)
    params = _random_params(rng)
    params.gamma[:] = 0.0
    with pytest.raises(CameraRankError):
        forward(rng.standard_normal((5, 2)), None, params)


def test_forward_full_mask_bit_equal_to_none():
    rng = np.random.default_rng(18)
    params = _random_params(rng)
    W = rng.standard_normal((5, 2))
    a = forward(W, None, params)
    b = forward(W, np.ones(5, bool), params)
    assert a.loss_value == b.loss_value
    assert np.array_equal(a.shape, b.shape)


def test_loss_perfect_reprojection_is_smoothing_level():
    # choose W so the autoencoder reproduces it exactly: a fixed point is
    # impractical to construct by hand, so instead evaluate the loss on the
    # model's own reprojection residual identity
    rng = np.random.default_rng(19)
    params = _random_params(rng)
    W = rng.standard_normal((5, 2))
    out = forward(W, None, params)
    resid = np.linalg.norm(W - out.reprojection)
    assert np.isclose(out.loss_value, np.sqrt(resid ** 2 + 1e-12), atol=1e-12)
    assert out.loss_value >= 0


def test_loss_matches_masked_oracle():
    rng = np.random.default_rng(20)
    params = _random_params(rng)
    W = rng.standard_normal((5, 2))
    mask = np.array([1, 1, 0, 1, 0], dtype=bool)
    out = forward(W, mask, params)
    resid2 = sum(np.sum((W[p] - out.reprojection[p]) ** 2)
                 for p in range(5) if mask[p])
    assert np.isclose(loss(W, mask, params), np.sqrt(resid2 + 1e-12), atol=1e-10)


def test_loss_hiding_zero_residual_rows_unchanged():
    rng = np.random.default_rng(21)
    params = _random_params(rng)
    W = rng.standard_normal((5, 2))
    out = forward(W, None, params)
    # replace one row of W by its reprojection, then hide it
    W2 = W.copy()
    W2[3] = out.reprojection[3]
    mask = np.ones(5, bool)
    full = loss(W2, mask, params)
    mask[3] = False
    hidden = loss(W2, mask, params)
    # hiding changes the encoding, so compare against re-encoding W2 with
    # the zeroed row instead: the invariant is that invisible rows of the
    # *residual* contribute nothing
    W3 = np.where(mask[:, None], W2, 0.0)
    out3 = forward(W3, None, params)
    resid2 = np.sum((np.where(mask[:, None], W2 - out3.reprojection, 0.0)) ** 2)
    assert np.isclose(hidden, np.sqrt(resid2 + 1e-12), atol=1e-12)
    assert full >= 0


def test_loss_batch_is_sum_of_frames():
    rng = np.random.default_rng(22)
    params = _random_params(rng)
    W = rng.standard_normal((3, 5, 2))
    total = loss(W, None, params)
    each = sum(loss(W[i], None, params) for i in range(3))
    assert np.isclose(total, each, atol=1e-12)


def test_one_frame_is_a_batch_of_one():
    """as_batch makes one frame (P, 2) a batch of one and mask None all
    visible: forward and loss give the bytes of the batched call.  encode
    and loss take a batch too; forward refuses one."""
    rng = np.random.default_rng(48)
    params = _random_params(rng, thresholds=0.02)
    W = rng.standard_normal((3, 5, 2))
    vis = np.ones((3, 5), dtype=bool)
    Wb, visb = as_batch(W[1], None)
    assert Wb.shape == (1, 5, 2) and visb.dtype == bool and visb.shape == (1, 5) and visb.all()
    losses, _, cache = forward_batch(W[1:2], vis[1:2], params)
    out = forward(W[1], None, params)
    assert out.loss_value == loss(W[1], None, params) == losses[0]
    assert out.shape.tobytes() == cache["S"][0].tobytes()
    assert loss(W, None, params) == float(forward_batch(W, vis, params)[0].sum())
    batch_codes = encode(W, None, params)
    assert [c.shape for c in batch_codes] == [(3, 6, 3, 2), (3, 3, 3, 2)]
    for f in range(3):
        for code, blk in zip(encode(W[f], None, params), batch_codes, strict=True):
            assert np.allclose(code, blk[f], atol=1e-12)
    with pytest.raises(ValueError, match=r"^forward: W must be one frame \(P, 2\)"):
        forward(W, None, params)


def test_forward_batch_matches_single_frames():
    rng = np.random.default_rng(23)
    params = _random_params(rng, thresholds=0.02)
    W = rng.standard_normal((4, 5, 2))
    vis = rng.random((4, 5)) > 0.2
    losses, valid, cache = forward_batch(W, vis, params)
    assert np.all(valid)
    for f in range(4):
        out = forward(W[f], vis[f], params)
        assert np.isclose(losses[f], out.loss_value, atol=1e-12)
        assert np.allclose(cache["S"][f], out.shape, atol=1e-12)


def test_translation_mode_reprojection_structure():
    rng = np.random.default_rng(24)
    params = _random_params(rng, block_rows=4, thresholds=0.02)
    W = rng.standard_normal((5, 2)) + 3.0
    out = forward(W, None, params)
    # reprojection decomposes as S Q + 1 t^T
    t = out.camera.translation
    assert np.allclose(out.reprojection, out.shape @ out.camera.rotation + t,
                       atol=1e-10)


def test_translation_mode_recovers_planted_offset():
    # planted instance: shapes from a 4-row model applied to W = S M + 1 t^T
    # must reproject with small residual when t is pure offset of a frame the
    # model can represent; here we only check the epsilon consistency path
    rng = np.random.default_rng(25)
    params = _random_params(rng, block_rows=4)
    W = rng.standard_normal((5, 2))
    out = forward(W, None, params)
    # internal identity: t = eps * Mraw[3], with eps = sum(phi1)
    losses, valid, cache = forward_batch(W[None], np.ones((1, 5), bool), params)
    eps = cache["eps"][0]
    assert np.allclose(out.camera.translation, eps * cache["Mraw"][0, 3, :],
                       atol=1e-14)
    assert np.isclose(eps, cache["phi1"][0].sum(), atol=1e-14)


def test_translation_mode_vanishing_epsilon_raises():
    rng = np.random.default_rng(26)
    params = _random_params(rng, block_rows=4)
    # zero code -> zero phi1 -> zero epsilon
    with pytest.raises(CameraRankError):
        forward(np.zeros((5, 2)), None, params)


def polar_jvp(U, s, Vt, dA):
    """Differential of the polar factor Q = U V^T of a batch of 3x2
    matrices, given their thin SVD and a direction dA (broadcastable to
    (B, 3, 2)), with polar_vjp's clamps: the oracle its tests check it by."""
    V = np.swapaxes(Vt, -1, -2)
    dA = np.broadcast_to(dA, U.shape[:-2] + (3, 2))
    Pm = np.einsum("bij,bik,bkl->bjl", U, dA, V)
    skew = Pm - np.swapaxes(Pm, -1, -2)
    denom = np.maximum(s[:, :, None] + s[:, None, :], POLAR_CLAMP)
    core = skew / denom
    term1 = np.einsum("bij,bjk,blk->bil", U, core, V)
    proj = dA - np.einsum("bij,bkj,bkl->bil", U, U, dA)
    sinv = 1.0 / np.maximum(s, POLAR_CLAMP)
    term2 = np.einsum("bij,blj->bil", proj @ (V * sinv[:, None, :]), V)
    return term1 + term2


def _polar(A):
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    return U @ Vt


def test_polar_jvp_matches_finite_differences():
    rng = np.random.default_rng(27)
    for _ in range(20):
        A = rng.standard_normal((1, 3, 2))
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        dA = rng.standard_normal((1, 3, 2))
        h = 1e-6
        fd = (_polar(A[0] + h * dA[0]) - _polar(A[0] - h * dA[0])) / (2 * h)
        jv = polar_jvp(U, s, Vt, dA)[0]
        assert np.max(np.abs(jv - fd)) < 1e-6


def test_polar_vjp_is_adjoint_of_jvp():
    rng = np.random.default_rng(28)
    for _ in range(20):
        A = rng.standard_normal((2, 3, 2))
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        dA = rng.standard_normal((2, 3, 2))
        gQ = rng.standard_normal((2, 3, 2))
        lhs = np.sum(gQ * polar_jvp(U, s, Vt, dA))
        rhs = np.sum(polar_vjp(U, s, Vt, gQ) * dA)
        assert np.isclose(lhs, rhs, atol=1e-10)


def _polar_vjp_by_jacobian(U, s, Vt, gQ):
    """The VJP through the 6x6 Jacobian of polar_jvp, built column by
    column."""
    B = U.shape[0]
    cols = []
    for idx in range(6):
        E = np.zeros((3, 2))
        E[idx // 2, idx % 2] = 1.0
        cols.append(polar_jvp(U, s, Vt, E[None]).reshape(B, 6))
    J = np.stack(cols, axis=2)            # J[b, :, j] = vec(dQ/dA_j)
    return np.einsum("bij,bi->bj", J, gQ.reshape(B, 6)).reshape(B, 3, 2)


@pytest.mark.parametrize("case", ["random", "near_equal", "clamped"])
def test_polar_vjp_matches_jacobian_oracle(case):
    rng = np.random.default_rng(29)
    A = rng.standard_normal((40, 3, 2))
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if case == "near_equal":
        s = np.stack([s[:, 0], s[:, 0] * (1 - 1e-9)], axis=1)
    elif case == "clamped":
        # sigma_2 below the clamp; in half the frames sigma_1 + sigma_2 too
        s = np.stack([s[:, 0], np.full(len(s), POLAR_CLAMP / 10)], axis=1)
        s[::2, 0] = POLAR_CLAMP / 4
    gQ = rng.standard_normal((40, 3, 2))
    ref = _polar_vjp_by_jacobian(U, s, Vt, gQ)
    got = polar_vjp(U, s, Vt, gQ)
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def _rel_close(a, b, rtol=1e-12):
    return np.max(np.abs(a - b)) <= rtol * max(np.max(np.abs(b)), 1e-300)


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("block_rows", [3, 4])
@pytest.mark.parametrize("activation", ["relu", "soft"])
def test_batch_axis_matches_single_frames(layers, block_rows, activation):
    # the batch axis is folded into GEMM dimensions; a reshape or transpose
    # mix-up would mix frames, so a batch must equal its frames one by one
    rng = np.random.default_rng(30 + 7 * layers + block_rows)
    widths = (6, 4, 3)[:layers]
    params = _random_params(rng, P=7, widths=widths, activation=activation,
                            block_rows=block_rows, thresholds=0.02)
    B = 5
    W = rng.standard_normal((B, 7, 2)) + (2.0 if block_rows == 4 else 0.0)
    vis = rng.random((B, 7)) > 0.25
    losses, valid, cache = forward_batch(W, vis, params)
    grads = backward_batch(cache, params)
    summed = {name: np.zeros_like(g) for name, g in grads.param_items()}
    for f in range(B):
        l1, v1, c1 = forward_batch(W[f:f + 1], vis[f:f + 1], params)
        assert v1[0] == valid[f]
        assert _rel_close(losses[f:f + 1], l1)
        assert _rel_close(cache["S"][f], c1["S"][0])
        assert _rel_close(cache["Q"][f], c1["Q"][0])
        for name, g in backward_batch(c1, params).param_items():
            summed[name] += g
        # layer 1 is one masked block-ISTA step under the model's thresholds;
        # with 4-row blocks each atom carries its column of ones
        D1 = params.dictionaries[0].reshape(7, 6, 3)
        if block_rows == 4:
            D1 = np.concatenate([D1, np.ones((7, 6, 1))], axis=2)
        Psi1 = block_ista_step(W[f], D1.reshape(7, -1), params.enc_thresholds[0],
                               mask=vis[f], mode=activation)
        assert _rel_close(cache["blocks"][0][:, :, f], Psi1)
    for name, g in grads.param_items():
        assert _rel_close(g, summed[name]), name


def test_params_iterate_over_names():
    """Iterating a ModelParams gives its param_items names, so that
    `for name in grads: grads[name]` works instead of dying with KeyError: 0."""
    rng = np.random.default_rng(43)
    params = _random_params(rng, widths=(6, 4, 3), thresholds=0.02)
    names = [name for name, _ in params.param_items()]
    assert list(params) == names == ["dict1", "dict2", "dict3", "enc_b1", "enc_b2", "enc_b3",
                                     "dec_b2", "dec_b3", "beta", "gamma"]
    W = rng.standard_normal((3, 5, 2))
    grads = backward_batch(forward_batch(W, np.ones((3, 5), dtype=bool), params)[2], params)
    assert [(name, grads[name].shape) for name in grads] == [
        (name, a.shape) for name, a in params.param_items()]


@pytest.mark.parametrize("block_rows", [3, 4])
def test_backward_into_a_buffer_equals_a_fresh_gradient(block_rows):
    """backward_batch(..., out=buf) overwrites buf whatever it held and
    returns it, with the bytes of a freshly allocated gradient; gradients()
    returns a gradient of its own on every call."""
    rng = np.random.default_rng(45)
    params = _random_params(rng, widths=(6, 4, 3), activation="soft", block_rows=block_rows,
                            thresholds=0.02)
    W = rng.standard_normal((2, 4, 5, 2)) + 2.0
    vis = rng.random((2, 4, 5)) > 0.2
    caches = [forward_batch(W[i], vis[i], params)[2] for i in range(2)]
    fresh = [backward_batch(cache, params) for cache in caches]
    assert fresh[0].flat.tobytes() != fresh[1].flat.tobytes()
    buf = params.zeros_like()
    buf.flat[:] = rng.standard_normal(buf.flat.shape) * 1e3
    buf.flat[::7] = np.nan
    assert backward_batch(caches[0], params, out=buf) is buf
    assert buf.flat.tobytes() == fresh[0].flat.tobytes()
    backward_batch(caches[1], params, out=buf)
    assert buf.flat.tobytes() == fresh[1].flat.tobytes()
    for name, g in buf.param_items():
        assert np.shares_memory(g, buf.flat), name
    g1, g2 = gradients(params, W[0], vis[0]), gradients(params, W[0], vis[0])
    assert g1.flat.tobytes() == g2.flat.tobytes() == fresh[0].flat.tobytes()
    assert not np.shares_memory(g1.flat, g2.flat)


def test_thresholds_view_holds_every_threshold():
    """params.thresholds is one view of flat over the encoder's and then
    the decoder's thresholds, which Adam clamps in one call."""
    params = _random_params(np.random.default_rng(46), widths=(6, 4, 3), thresholds=0.02)
    assert np.shares_memory(params.thresholds, params.flat)
    assert params.thresholds.tobytes() == np.concatenate(
        params.enc_thresholds + params.dec_thresholds).tobytes()
    for other in (params.copy(), params.zeros_like()):
        assert np.shares_memory(other.thresholds, other.flat)
        assert other.thresholds.size == params.thresholds.size


def test_zeros_like_is_an_unshared_zero_layout():
    rng = np.random.default_rng(44)
    params = _random_params(rng, widths=(6, 4, 3), block_rows=4, thresholds=0.02)
    zeros = params.zeros_like()
    assert zeros.flat.shape == params.flat.shape and not np.any(zeros.flat)
    assert (zeros.activation, zeros.block_rows) == (params.activation, params.block_rows)
    assert not np.shares_memory(zeros.flat, params.flat)
    for (name, z), (_, a) in zip(zeros.param_items(), params.param_items()):
        assert z.shape == a.shape and np.shares_memory(z, zeros.flat), name
    zeros.gamma[1] = 2.0
    assert zeros.flat[-2] == 2.0 and np.count_nonzero(zeros.flat) == 1
    assert params.gamma[1] == default_gamma(3)[1]


def test_threshold_set_negative_in_place_is_refused_at_gradient_time():
    """zeros_like is a zeroed copy(), and backward_batch without out (so
    gradients()) allocates with copy(): each runs the constructor's checks,
    so a threshold set below zero in place after construction is refused
    there, for the soft VJP would misread it.  Adam clamps every threshold
    at zero, so training's buffer (out) never meets one."""
    rng = np.random.default_rng(48)
    for group in ("enc_thresholds", "dec_thresholds"):
        params = _random_params(rng, widths=(6, 3), activation="soft", thresholds=0.02)
        W = rng.standard_normal((3, 5, 2))
        getattr(params, group)[0][1] = -0.1
        cache = forward_batch(W, np.ones((3, 5), dtype=bool), params)[2]
        for call in (params.zeros_like, params.copy, lambda: gradients(params, W, None),
                     lambda: backward_batch(cache, params)):
            with pytest.raises(ValueError, match="^thresholds must be non-negative$"):
                call()


def test_non_finite_visible_measurement_is_a_named_error():
    """A NaN or inf at a visible point stops forward_batch, and so gradients
    and loss, with a ValueError naming the first bad frame instead of a
    LinAlgError from the camera's SVD.  Hidden points may hold anything."""
    rng = np.random.default_rng(45)
    params = _random_params(rng, widths=(6, 3), thresholds=0.02)
    W = rng.standard_normal((4, 5, 2))
    vis = np.ones((4, 5), dtype=bool)
    vis[1, 3] = False
    clean = forward_batch(W, vis, params)[0]
    W[1, 3, 0] = np.nan
    assert np.array_equal(forward_batch(W, vis, params)[0], clean)
    assert np.array_equal(gradients(params, W, vis).flat,
                          gradients(params, np.nan_to_num(W), vis).flat)
    for value in (np.nan, np.inf, -np.inf):
        bad = W.copy()
        bad[2, 4, 1] = value
        bad[3, 0, 0] = value
        for call in (forward_batch, lambda W, vis, params: gradients(params, W, vis), loss):
            with pytest.raises(ValueError, match="non-finite measurement at a visible "
                                                 "point at frame 2$"):
                call(bad, vis, params)
        with pytest.raises(ValueError, match="at frame 0$"):
            forward(bad[3], None, params)


def _encoder_pre_acts(cache, params):
    """Each encoder layer's pre-activation, recomputed from its input in the
    cache with the forward pass's own products: D1^T Xt, with the row of
    ones sums under 4-row blocks, and D_d^T Psi_{d-1}."""
    Xt, blocks = cache["Xt"], cache["blocks"]
    B = Xt.shape[1] // 2
    v = (params.dictionaries[0].T @ Xt).reshape(-1, 3, B, 2)
    if params.block_rows == 4:
        ones_row = Xt.reshape(-1, B, 2).sum(axis=0)
        v = np.concatenate([v, np.broadcast_to(ones_row, (len(v), 1, B, 2))], axis=1)
    pre_acts = [v]
    for D, prev in zip(params.dictionaries[1:], blocks):
        pre_acts.append((D.T @ prev.reshape(len(prev), -1)).reshape((-1,) + prev.shape[1:]))
    return pre_acts


def _threshold_layers(cache, params):
    """(pre-activation, threshold broadcast against it) of every thresholded
    layer, recomputed: the decoder's in the order they are applied, and the
    encoder's.  Thresholding them gives the stored outputs, bit for bit."""
    decoder = [(phi_in @ params.dictionaries[d].T, params.dec_thresholds[d - 1])
               for d, phi_in, _ in cache["dec_records"]]
    encoder = [(v, b[:, None, None, None])
               for v, b in zip(_encoder_pre_acts(cache, params), params.enc_thresholds)]
    outputs = [out for _, _, out in cache["dec_records"]] + cache["blocks"]
    for (v, b), out in zip(decoder + encoder, outputs, strict=True):
        assert np.array_equal(threshold(v, b, params.activation).view(np.uint64),
                              out.view(np.uint64))
    return decoder, encoder


def _recompute_vjp_gradient(cache, params, monkeypatch):
    """backward_batch with each threshold VJP recomputing its pass-through
    mask from the layer's pre-activation (relu: x - b > 0, soft: |x| > b)
    and its threshold gradient as g * where(mask, -1 or -sign(x), 0): the
    way the gradient was formed before it read the stored outputs, kept as
    the oracle of exact equality.  Each threshold group must also equal the
    sum the oracle forms for it, so a wrong sign where backward_batch
    accumulates it is caught too."""
    act = params.activation
    decoder, encoder = _threshold_layers(cache, params)
    pending = decoder[::-1] + encoder[::-1]     # the order of the backward pass
    expected = []

    def recompute_vjp(g, out, activation):
        v, b = pending.pop(0)
        assert v.shape == out.shape == g.shape
        on = (v - b) > 0 if act == "relu" else np.abs(v) > b
        gb = g * np.where(on, -1.0 if act == "relu" else -np.sign(v), 0.0)
        expected.append(0.0 + gb.sum(axis=0 if b.ndim == 1 else (1, 2, 3)))
        return g * on, -gb      # backward_batch subtracts the sum of the second

    with monkeypatch.context() as m:
        m.setattr(nrsfm.model, "_threshold_vjp", recompute_vjp)
        grads = backward_batch(cache, params)
    assert not pending
    for want, got in zip(expected, grads.dec_thresholds + grads.enc_thresholds[::-1],
                         strict=True):
        assert np.array_equal(want, got)
    return grads


def _set_ties(params, W, vis):
    """Zero block 1 of every dictionary but the last, and its threshold, so
    that some pre-activations are exactly 0 at a zero threshold.  Then set
    one more threshold of every layer, in the order the forward pass
    applies them, to the smallest value its pre-activations pass it by
    (relu: x == b, soft: |x| == b)."""
    relu = params.activation == "relu"

    def tie(b, v):      # v: the layer's pre-activations, block or unit first
        passing = [np.sort(vk[vk > 0] if relu else np.abs(vk), axis=None) for vk in v]
        k = max((k for k in range(len(b)) if k != 1), key=lambda k: len(passing[k]))
        b[k], b[1] = passing[k][0], 0.0

    params.dictionaries[0][:, 3:6] = 0.0
    for D in params.dictionaries[1:-1]:
        D[:, 1] = 0.0       # encoder block 1 of the next layer but the last
    for D in params.dictionaries[1:]:
        D[1, :] = 0.0       # decoder unit 1 of the layer before
    for d, b in enumerate(params.enc_thresholds):
        tie(b, _encoder_pre_acts(forward_batch(W, vis, params)[2], params)[d])
    for i, b in enumerate(params.dec_thresholds[::-1]):
        u = _threshold_layers(forward_batch(W, vis, params)[2], params)[0][i][0]
        tie(b, u.T)


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("block_rows", [3, 4])
@pytest.mark.parametrize("activation", ["relu", "soft"])
def test_backward_reads_stored_outputs_bit_identically(layers, block_rows, activation,
                                                       monkeypatch):
    """The threshold VJPs read their masks off the stored layer outputs;
    the gradient is np.array_equal to the one whose masks are recomputed
    from the pre-activations, on random thresholds and on thresholds that
    pre-activations hit exactly, including pre-activations of exactly 0."""
    rng = np.random.default_rng(50 + 7 * layers + block_rows)
    widths = (6, 4, 3)[:layers]
    for ties in (False, True):
        params = _random_params(rng, P=4, widths=widths, activation=activation,
                                block_rows=block_rows)
        for b in params.enc_thresholds + params.dec_thresholds:
            b += rng.uniform(0.0, 0.05, b.shape)
        W = rng.standard_normal((6, 4, 2)) + (2.0 if block_rows == 4 else 0.0)
        vis = np.ones((6, 4), dtype=bool)
        vis[np.arange(0, 6, 2), rng.integers(4, size=3)] = False
        if ties:
            _set_ties(params, W, vis)
        losses, valid, cache = forward_batch(W, vis, params)
        assert valid.any()
        grads = backward_batch(cache, params)
        oracle = _recompute_vjp_gradient(cache, params, monkeypatch)
        assert np.array_equal(grads.flat, oracle.flat)
        if ties:
            decoder, encoder = _threshold_layers(cache, params)
            assert all(np.all(v[1, :3] == 0) for v, _ in encoder[:max(layers - 1, 1)])
            assert all(np.all(u[:, 1] == 0) for u, _ in decoder)
            assert all(np.any(((v if activation == "relu" else np.abs(v)) == b) & (b > 0))
                       for v, b in decoder + encoder)
