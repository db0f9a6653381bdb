import tracemalloc
import warnings

import numpy as np
import pytest

from nrsfm.geometry import (ERROR_BLOCK, NEWTON_CUTOFF, POLAR_CUTOFF, RANK_EPS, CameraWeak,
                            align_shapes, frame_3d_errors, mutual_coherence, noise_perturb,
                            normalize_bbox, normalized_3d_error, orthonormalize_camera,
                            polar_factor, polar_factor_3x3, procrustes_rotation, project,
                            random_camera, random_rotation, visible_centroid)


def test_project_orthogonal_basic():
    S = np.array([[1.0, 0.0, 0.0]])
    cam = CameraWeak(np.eye(3)[:, :2])
    assert np.allclose(project(S, cam), [[1.0, 0.0]])


def test_project_weak_perspective_scale_translation():
    S = np.array([[1.0, 0.0, 0.0]])
    cam = CameraWeak(np.eye(3)[:, :2], scale=2.0, translation=[1.0, 1.0])
    assert np.allclose(project(S, cam, mode="weak_perspective"), [[3.0, 1.0]])


def test_project_trace_identity():
    rng = np.random.default_rng(0)
    S = rng.standard_normal((10, 3))
    cam = random_camera(1)
    W = project(S, cam)
    M = cam.rotation
    assert np.isclose(np.trace(W.T @ W), np.trace(M.T @ S.T @ S @ M))


def test_project_rejects_non_orthonormal():
    S = np.zeros((3, 3))
    with pytest.raises(ValueError):
        project(S, CameraWeak.__new__(CameraWeak).__class__(np.ones((3, 2)) * 0.9))


@pytest.mark.parametrize("call, message", [
    (lambda: CameraWeak(np.eye(3)), "camera rotation part must be 3x2, got (3, 3)"),
    (lambda: CameraWeak(np.eye(3, 2), translation=[0.0, 0.0, 0.0]),
     "camera translation must be a 2-vector"),
    (lambda: CameraWeak(np.eye(3, 2), scale=0.0), "camera scale must be positive"),
    (lambda: project(np.zeros((4, 2)), CameraWeak(np.eye(3, 2))),
     "project: shape must be (P, 3), got (4, 2)"),
    (lambda: project(np.zeros((4, 3)), CameraWeak(np.eye(3, 2), scale=2.0)),
     "project: orthogonal mode requires scale 1 and zero translation"),
    (lambda: project(np.zeros((4, 3)), CameraWeak(np.eye(3, 2)), mode="perspective"),
     "project: unknown mode 'perspective'"),
    (lambda: random_camera(1, mode="perspective"), "random_camera: unknown mode 'perspective'"),
    (lambda: align_shapes(np.zeros((4, 3)), np.zeros((5, 3))),
     "align_shapes: shapes must have matching size"),
], ids=["rotation", "translation", "scale", "project-shape", "orthogonal-scale",
        "project-mode", "camera-mode", "align-size"])
def test_bad_camera_or_shape_is_named(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_project_linear_in_shape():
    rng = np.random.default_rng(2)
    S1, S2 = rng.standard_normal((2, 6, 3))
    cam = random_camera(3)
    a, b = 0.7, -1.3
    assert np.allclose(project(a * S1 + b * S2, cam),
                       a * project(S1, cam) + b * project(S2, cam))


def test_random_camera_orthonormal_and_deterministic():
    for seed in range(20):
        cam = random_camera(seed)
        M = cam.rotation
        assert np.max(np.abs(M.T @ M - np.eye(2))) < 1e-12
    c1, c2 = random_camera(5), random_camera(5)
    assert np.array_equal(c1.rotation, c2.rotation)


def test_random_camera_weak_ranges():
    cam = random_camera(9, mode="weak_perspective")
    assert 0.5 <= cam.scale <= 1.5
    assert np.all(np.abs(cam.translation) <= 0.5)


def test_random_rotation_mean_near_zero():
    ms = np.array([random_rotation(s)[:, :2] for s in range(10000)])
    assert np.max(np.abs(ms.mean(axis=0))) < 0.02


def _camera_draws(cam):
    return np.concatenate([cam.rotation.ravel(), [cam.scale], cam.translation])


@pytest.mark.parametrize("draw", [
    random_rotation,
    lambda seed: _camera_draws(random_camera(seed)),
    lambda seed: _camera_draws(random_camera(seed, "weak_perspective")),
    lambda seed: noise_perturb(np.arange(8.0).reshape(4, 2), 0.1, seed),
], ids=["rotation", "camera-orthogonal", "camera-weak", "noise"])
def test_seeded_draws_advance_a_passed_generator(draw):
    """A Generator passed as the seed is drawn from as it stands, not
    reseeded: two calls on one generator give what a fresh generator of the
    same seed gives over two calls, the first of them what the integer seed
    gives, and the two differ."""
    gen, fresh = np.random.default_rng(21), np.random.default_rng(21)
    first, second = draw(gen), draw(gen)
    assert np.array_equal(first, draw(fresh)) and np.array_equal(second, draw(fresh))
    assert np.array_equal(first, draw(21))
    assert not np.array_equal(first, second)


def test_normalize_bbox_basic():
    W = np.array([[0.0, 0.0], [2.0, 0.0]])
    Wn, (c, s) = normalize_bbox(W)
    assert np.allclose(Wn, [[-0.5, 0.0], [0.5, 0.0]])
    assert s == 2.0
    assert np.allclose(c, [1.0, 0.0])


def test_normalize_bbox_roundtrip():
    rng = np.random.default_rng(4)
    W = rng.standard_normal((12, 2)) * 3 + 5
    mask = np.ones(12, dtype=bool)
    mask[[2, 7]] = False
    Wn, (centroid, scale) = normalize_bbox(W, mask)
    back = Wn * scale + centroid
    assert np.allclose(back[mask], W[mask], atol=1e-12)
    # invisible entries were zeroed in the normalized frame
    assert np.all(Wn[~mask] == 0)


def test_normalize_bbox_invariants():
    rng = np.random.default_rng(5)
    for _ in range(20):
        W = rng.standard_normal((9, 2)) * rng.uniform(0.1, 10)
        Wn, _ = normalize_bbox(W)
        extent = Wn.max(axis=0) - Wn.min(axis=0)
        assert np.isclose(extent.max(), 1.0, atol=1e-12)
        assert np.allclose(Wn.mean(axis=0), 0, atol=1e-12)


def test_normalize_bbox_degenerate():
    W = np.ones((4, 2))
    with pytest.raises(ValueError):
        normalize_bbox(W)
    # in a batch, the message names the first failing frame
    batch = np.random.default_rng(6).standard_normal((4, 5, 2))
    batch[2] = 1.0
    with pytest.raises(ValueError, match="coincide at frame 2"):
        normalize_bbox(batch)
    mask = np.ones((4, 5), dtype=bool)
    mask[1, 1:] = False
    with pytest.raises(ValueError, match="2 visible points at frame 1"):
        normalize_bbox(batch, mask)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_normalizers_refuse_a_non_finite_visible_point(value):
    """A NaN or an infinity at a visible point is refused by name, naming
    its frame, without a numpy warning; at a hidden point it is ignored."""
    W = np.random.default_rng(20).standard_normal((3, 5, 2))
    W[1, 0, 0] = value
    mask = np.ones((3, 5), dtype=bool)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, call in (("normalize_bbox", normalize_bbox),
                           ("visible_centroid", visible_centroid)):
            with pytest.raises(ValueError) as info:
                call(W, mask)
            assert str(info.value) == f"{name}: non-finite visible point at frame 1"
        mask[1, 0] = False
        Wn, (centroid, scale) = normalize_bbox(W, mask)
        assert np.isfinite(Wn).all() and np.isfinite(scale).all()
        assert np.array_equal(visible_centroid(W, mask), centroid)


def test_orthonormalize_idempotent_and_scale_stripping():
    M = np.eye(3)[:, :2]
    Mo, _ = orthonormalize_camera(M)
    assert np.allclose(Mo, M, atol=1e-12)
    Mo, sv = orthonormalize_camera(3.0 * M)
    assert np.allclose(Mo, M, atol=1e-12)
    assert np.allclose(sv, [3.0, 3.0])


def test_orthonormalize_rejects_rank_deficient():
    M = np.zeros((3, 2))
    M[:, 0] = [1, 0, 0]
    with pytest.raises(ValueError):
        orthonormalize_camera(M)
    with pytest.raises(ValueError, match=r"^orthonormalize_camera: expected 3x2, got \(3, 3\)$"):
        orthonormalize_camera(np.eye(3))


def test_orthonormalize_nearest_point():
    rng = np.random.default_rng(7)
    Mraw = rng.standard_normal((3, 2))
    Mo, _ = orthonormalize_camera(Mraw)
    assert np.max(np.abs(Mo.T @ Mo - np.eye(2))) < 1e-10
    d0 = np.linalg.norm(Mo - Mraw)
    for _ in range(1000):
        Q, _ = orthonormalize_camera(rng.standard_normal((3, 2)))
        assert d0 <= np.linalg.norm(Q - Mraw) + 1e-12


def _lapack_polar(M):
    """The oracle: (Q, U, s, Vt, full_rank) from LAPACK's thin SVD."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return U @ Vt, U, s, Vt, s[..., -1] > RANK_EPS


def _from_sigmas(rng, sigmas):
    """3xk matrices U diag(sigma) V^T with random column-orthonormal U and
    orthogonal V, one per row of sigmas (k = 2: cameras, k = 3: Procrustes
    matrices)."""
    k = sigmas.shape[1]
    U = np.linalg.qr(rng.standard_normal((len(sigmas), 3, k)))[0]
    V = np.linalg.qr(rng.standard_normal((len(sigmas), k, k)))[0]
    return (U * sigmas[:, None, :]) @ np.swapaxes(V, 1, 2)


def _sweep(rng, per_ratio=200):
    """Cameras over sigma2 / sigma1 from 1e-7 to 1 (across POLAR_CUTOFF),
    at 1 - 1e-k (near-equal), and scaled by 1e-8 to 1e3 (scaled down)."""
    ratios = np.concatenate([np.logspace(-7, 0, 36), 1 - np.logspace(-16, -2, 8), [1.0]])
    sigma1 = 10.0 ** rng.uniform(-8, 3, (len(ratios), per_ratio))
    sigmas = np.stack([sigma1, sigma1 * ratios[:, None]], axis=-1).reshape(-1, 2)
    return _from_sigmas(rng, sigmas), np.repeat(ratios, per_ratio)


def test_polar_factor_closed_form_agrees_with_lapack():
    """Q agrees with LAPACK's U @ Vt to 1e-13, or to 1e-14 sigma1 / sigma2
    where that is larger (sigma2 / sigma1 < 0.1: the size of LAPACK's own
    error there), and s to 1e-13 sigma1; full_rank is LAPACK's everywhere,
    and frames below POLAR_CUTOFF are LAPACK's bits.  The factors are an
    SVD of M: U orthonormal to the same tolerance as Q, V to 1e-14."""
    M, ratios = _sweep(np.random.default_rng(0))
    Q, U, s, Vt, full_rank = polar_factor(M)
    ref = _lapack_polar(M)
    tol = np.maximum(1e-13, 1e-14 / ratios)
    assert np.all(np.abs(Q - ref[0]).max(axis=(1, 2)) <= tol)
    assert np.all(np.abs(s - ref[2]) <= 1e-13 * ref[2][:, :1])
    assert np.array_equal(full_rank, ref[4])
    eye = np.eye(2)
    assert np.all(np.abs(np.swapaxes(U, 1, 2) @ U - eye).max(axis=(1, 2)) <= tol)
    assert np.abs(Vt @ np.swapaxes(Vt, 1, 2) - eye).max() <= 1e-14
    assert np.all(np.abs((U * s[:, None, :]) @ Vt - M) <= 1e-14 * s[:, :1, None])
    assert np.abs(Q - U @ Vt).max() <= 1e-15
    below = ratios < POLAR_CUTOFF
    for got, want in zip((Q, U, s, Vt), ref):
        assert np.array_equal(got[below], want[below])


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs 80-bit long double")
def test_polar_factor_closed_form_is_as_accurate_as_lapack():
    """Against the exact polar factor of each float matrix, M (M^T M)^(-1/2)
    in 80-bit arithmetic, the closed form's Q errs no more than twice
    LAPACK's worst error at each ratio, from 1e-8 to 1."""
    rng = np.random.default_rng(1)
    for ratio in np.logspace(-8, 0, 9):
        M = _from_sigmas(rng, np.tile([1.0, ratio], (300, 1)))
        L = M.astype(np.longdouble)
        A = np.swapaxes(L, 1, 2) @ L
        a, b, c = A[:, 0, 0], A[:, 0, 1], A[:, 1, 1]
        x, y = L[:, :, 0], L[:, :, 1]
        cross = x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y
        delta = np.sqrt((cross * cross).sum(axis=1))   # sqrt(det A)
        root = np.sqrt(a + c + 2 * delta)               # trace of A^(1/2)
        inv_sqrt = np.stack([c + delta, -b, -b, a + delta], axis=1).reshape(-1, 2, 2)
        exact = L @ (inv_sqrt / (root * delta)[:, None, None])
        ours = np.abs(polar_factor(M)[0] - exact).max()
        theirs = np.abs(_lapack_polar(M)[0] - exact).max()
        assert ours <= 2 * theirs + 1e-16, ratio


def test_polar_factor_degenerate_frames_are_lapacks():
    """Zero, rank-1, rank-deficient and ill-conditioned frames, in a batch
    of good ones, get LAPACK's (Q, U, s, Vt) bit for bit and its full_rank;
    a NaN frame raises LAPACK's error, and an infinite one gets LAPACK's
    result; none of it warns."""
    rng = np.random.default_rng(2)
    M = _from_sigmas(rng, np.tile([1.0, 0.5], (12, 1)))
    col = rng.standard_normal(3)
    M[1] = 0.0
    M[3] = np.stack([col, 0.3 * col], axis=1)           # rank 1, rounded
    M[5] = np.stack([col, 2.0 * col], axis=1)           # rank 1, exactly
    M[7] = _from_sigmas(rng, np.array([[2.0, 0.5 * RANK_EPS]]))[0]
    M[9] = _from_sigmas(rng, np.array([[1.0, 0.5 * POLAR_CUTOFF]]))[0]
    M[11] = _from_sigmas(rng, np.array([[1.5 * RANK_EPS, 1.5 * RANK_EPS]]))[0]   # full rank, small
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = polar_factor(M), _lapack_polar(M)
        for i in (1, 3, 5, 7, 9, 11):
            for g, w in zip(got, want):
                assert np.array_equal(g[i], w[i]), i
        assert np.array_equal(got[4], want[4])
        assert not got[4][[1, 3, 5, 7]].any()
        M[6, 0, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError) as ours:
            polar_factor(M)
        with pytest.raises(np.linalg.LinAlgError) as lapacks:
            _lapack_polar(M)
        assert str(ours.value) == str(lapacks.value)
        M[6, 0, 1] = np.inf
        try:
            want = _lapack_polar(M)
        except np.linalg.LinAlgError as exc:
            with pytest.raises(np.linalg.LinAlgError, match=str(exc)):
                polar_factor(M)
        else:
            for g, w in zip(polar_factor(M), want):
                assert np.array_equal(g[6], w[6], equal_nan=True)


def test_polar_factor_calls_lapack_for_the_frames_below_the_cutoff_only(monkeypatch):
    """A batch of well-conditioned 3x2 matrices makes no LAPACK call; one
    with a zero frame makes one, on that frame; 3x3 matrices are refused
    (polar_factor_3x3 serves them)."""
    calls = []
    svd = np.linalg.svd

    def counted(M, **kw):
        calls.append(M.shape)
        return svd(M, **kw)

    monkeypatch.setattr(np.linalg, "svd", counted)
    M = _from_sigmas(np.random.default_rng(4), np.tile([1.0, 0.5], (64, 1)))
    polar_factor(M)
    assert calls == []
    M[9] = 0.0
    polar_factor(M)
    assert calls == [(1, 3, 2)]
    with pytest.raises(ValueError, match=r"^polar_factor: expected 3x2 matrices, got \(3, 3\)$"):
        polar_factor(np.eye(3)[None])
    assert calls[1:] == []


def test_polar_factor_batch_matches_single_frames():
    """Each frame's (Q, U, s, Vt, full_rank) is the same bits in a batch, as
    a single (3, 2) matrix and through strided views: the model's 4-row
    bottleneck layout, and columns stored contiguously."""
    rng = np.random.default_rng(3)
    M, _ = _sweep(rng, per_ratio=3)
    M[::17] = 0.0
    batch = polar_factor(M)
    strided = np.zeros((4, len(M), 2))
    strided[:3] = M.transpose(1, 0, 2)
    columns = np.swapaxes(np.ascontiguousarray(np.swapaxes(M, 1, 2)), 1, 2)
    for got in (polar_factor(strided.transpose(1, 0, 2)[:, :3]), polar_factor(columns),
                [np.stack(parts) for parts in zip(*map(polar_factor, M))]):
        for g, b in zip(got, batch):
            assert np.array_equal(g, b)


def _matrices(rng, sigmas):
    """_from_sigmas's 3x3 matrices, every other one negated (det < 0)."""
    M = _from_sigmas(rng, sigmas)
    M[1::2] *= -1
    return M


def _conditioned(rng, count):
    """count 3x3 matrices with 2-norm condition numbers log-uniform from 1 to
    NEWTON_CUTOFF / 3 (so ||M||_F ||M^-1||_F is at most the cutoff), the
    middle singular value log-uniform between, scaled by 1e-8 to 1e3.
    Returns (M, ||M||_F ||M^-1||_F)."""
    top = rng.uniform(0, np.log10(NEWTON_CUTOFF / 3), count)
    s = 10.0 ** np.stack([np.zeros(count), -top * rng.uniform(0, 1, count), -top], axis=1)
    s *= 10.0 ** rng.uniform(-8, 3, (count, 1))
    return _matrices(rng, s), np.sqrt((s ** 2).sum(axis=1) * (s ** -2.0).sum(axis=1))


def test_polar_factor_3x3_agrees_with_lapack():
    """Up to NEWTON_CUTOFF, reflections and scales from 1e-8 to 1e3
    included, Q agrees with LAPACK's U @ Vt to 4e-15 times the condition
    number ||M||_F ||M^-1||_F (both err by about that much), is orthogonal
    to 1e-14 and has the sign of det M."""
    M, kappa = _conditioned(np.random.default_rng(20), 20000)
    assert kappa.max() <= NEWTON_CUTOFF
    Q = polar_factor_3x3(M)
    U, _, Vt = np.linalg.svd(M)
    assert np.all(np.abs(Q - U @ Vt).max(axis=(1, 2)) <= 4e-15 * kappa)
    assert np.abs(np.swapaxes(Q, 1, 2) @ Q - np.eye(3)).max() <= 1e-14
    assert np.array_equal(np.linalg.det(Q) > 0, np.linalg.det(M) > 0)
    assert 0 < np.count_nonzero(np.linalg.det(M) < 0) < len(M)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs 80-bit long double")
def test_polar_factor_3x3_is_as_accurate_as_lapack():
    """Against the polar factor of each float matrix in 80-bit arithmetic
    (20 Frobenius-scaled Newton steps with inverses from cross products),
    Newton's Q errs no more than LAPACK's worst error at each 2-norm
    condition number from 1 to 3e3 (||M||_F ||M^-1||_F up to the cutoff)."""
    rng = np.random.default_rng(21)
    for kappa in np.logspace(0, 3.5, 8):
        M = _matrices(rng, np.tile([1.0, np.sqrt(1 / kappa), 1 / kappa], (300, 1)))
        X = M.astype(np.longdouble)
        for _ in range(20):
            cof = np.stack([np.cross(X[:, 1], X[:, 2]), np.cross(X[:, 2], X[:, 0]),
                            np.cross(X[:, 0], X[:, 1])], axis=1)
            det = (X[:, 0] * cof[:, 0]).sum(axis=1)[:, None, None]
            zeta = np.sqrt(np.sqrt((cof ** 2).sum(axis=(1, 2)) / (X ** 2).sum(axis=(1, 2))))
            zeta = (zeta[:, None, None] / np.sqrt(np.abs(det)))
            X = (zeta * X + cof / (zeta * det)) / 2
        U, _, Vt = np.linalg.svd(M)
        ours = np.abs(polar_factor_3x3(M) - X).max()
        theirs = np.abs(U @ Vt - X).max()
        assert ours <= theirs, kappa


def test_polar_factor_3x3_degenerate_frames_are_lapacks():
    """Zero, rank-1, rank-2 and ill-conditioned frames (condition above
    NEWTON_CUTOFF), in a batch of good ones, get LAPACK's bits, without a
    warning; a NaN frame raises LAPACK's error, and a frame with an
    infinite entry, on which LAPACK's SVD does not return, is refused by
    name."""
    rng = np.random.default_rng(22)
    M = _matrices(rng, np.tile([2.0, 1.0, 0.5], (12, 1)))
    col, row = rng.standard_normal(3), rng.standard_normal(3)
    M[1] = 0.0
    M[3] = np.outer(col, row)                                           # rank 1
    M[5] = np.stack([col, row, col - 2 * row])                          # rank 2, rounded
    M[7] = _matrices(rng, np.array([[1.0, 0.5, 0.0]]))[0]               # rank 2
    M[9] = _matrices(rng, np.array([[1.0, 0.5, 0.5 / NEWTON_CUTOFF]]))[0]   # condition 2.2e4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = polar_factor_3x3(M), _lapack_polar(M)[0]
        for i in range(12):
            if i in (1, 3, 5, 7, 9):
                assert np.array_equal(got[i], want[i]), i
            else:
                assert np.abs(got[i] - want[i]).max() <= 1e-14, i
        M[6, 0, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError) as ours:
            polar_factor_3x3(M)
        with pytest.raises(np.linalg.LinAlgError) as lapacks:
            _lapack_polar(M)
        assert str(ours.value) == str(lapacks.value)
        for value in (np.inf, -np.inf):
            M[6, 0, 1] = value
            with pytest.raises(ValueError, match="^polar_factor_3x3: infinite entry at frame 6$"):
                polar_factor_3x3(M)
            with pytest.raises(ValueError, match="^polar_factor_3x3: infinite entry$"):
                polar_factor_3x3(M[6])


def test_polar_factor_3x3_calls_lapack_for_the_degenerate_frames_only(monkeypatch):
    """A batch conditioned up to NEWTON_CUTOFF makes no LAPACK call; with a
    zero frame and one conditioned past the cutoff it makes one, on those
    two frames; every rank-1 and rank-2 product of random factors, scaled
    by 1e-8 to 1e3, goes to LAPACK (their determinants and cofactors are
    rounding noise); align_shapes and the 3D error use the same kernel."""
    calls = []
    svd = np.linalg.svd

    def counted(M, **kw):
        calls.append(M.shape)
        return svd(M, **kw)

    monkeypatch.setattr(np.linalg, "svd", counted)
    rng = np.random.default_rng(23)
    M, _ = _conditioned(rng, 64)
    polar_factor_3x3(M)
    assert calls == []
    M[9] = 0.0
    M[40] = _matrices(rng, np.array([[1.0, 1.0, 1 / NEWTON_CUTOFF]]))[0]
    polar_factor_3x3(M)
    assert calls == [(2, 3, 3)]
    low_rank = [rng.standard_normal((100, 3, k)) @ rng.standard_normal((100, k, 3))
                for k in (1, 2)]
    polar_factor_3x3(np.concatenate(low_rank) * 10.0 ** rng.uniform(-8, 3, (200, 1, 1)))
    assert calls[1:] == [(200, 3, 3)]
    S = rng.standard_normal((300, 8, 3))
    frame_3d_errors(S + 0.1 * rng.standard_normal(S.shape), S, allow_scale=True)
    align_shapes(S[0], S[1])
    assert calls[2:] == []


@pytest.mark.parametrize("frames", [1, 255, 256, 257])
def test_polar_factor_3x3_batch_matches_single_frames(frames):
    """Each frame's Q is the same bits in a batch as a single (3, 3) matrix,
    and through strided views: a slice of a larger array, columns stored
    contiguously and a reversed batch."""
    rng = np.random.default_rng(frames)
    M, _ = _conditioned(rng, frames)
    M[3::50] = 0.0
    batch = polar_factor_3x3(M)
    assert np.array_equal(np.stack([polar_factor_3x3(m) for m in M]), batch)
    big = np.zeros((frames, 4, 5))
    big[:, 1:, 2:] = M
    columns = np.swapaxes(np.ascontiguousarray(np.swapaxes(M, 1, 2)), 1, 2)
    for got in (polar_factor_3x3(big[:, 1:, 2:]), polar_factor_3x3(columns),
                polar_factor_3x3(M[::-1])[::-1]):
        assert np.array_equal(got, batch)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_3d_alignment_refuses_non_finite_shapes_before_any_svd(monkeypatch, value):
    """A NaN or an infinity in an estimate or a truth is refused by name
    before any SVD (LAPACK's does not return on an infinite matrix): the 3D
    error names the frame as it names a zero-norm truth, and align_shapes
    names the frame of a batch."""
    def svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", svd)
    rng = np.random.default_rng(24)
    S = rng.standard_normal((5, 6, 3))
    bad = S.copy()
    bad[2, 4, 1] = value
    for est, gt, what in ((bad, S, "estimate"), (S, bad, "ground truth")):
        for call in (frame_3d_errors, normalized_3d_error):
            with pytest.raises(ValueError, match=f"^3D error: non-finite {what} at frame 2$"):
                call(est, gt)
            with pytest.raises(ValueError, match=f"^3D error: non-finite {what} at frame 11$"):
                call(est, gt, frames=np.array([7, 9, 11, 13, 15]))
        with pytest.raises(ValueError, match=f"^align_shapes: non-finite {what} at frame 2$"):
            align_shapes(est, gt, allow_scale=True)
        with pytest.raises(ValueError, match=f"^align_shapes: non-finite {what}$"):
            align_shapes(est[2], gt[2])


def test_align_shapes_identity_and_mirror():
    rng = np.random.default_rng(8)
    S = rng.standard_normal((10, 3))
    assert np.allclose(align_shapes(S, S), S, atol=1e-12)
    flipped = S * np.array([1, 1, -1.0])
    assert np.linalg.norm(align_shapes(flipped, S) - S) < 1e-10


def test_align_shapes_undoes_rotation():
    rng = np.random.default_rng(9)
    S = rng.standard_normal((10, 3))
    R = random_rotation(10)
    assert np.linalg.norm(align_shapes(S @ R, S) - S) < 1e-10


def test_align_rotation_is_orthogonal():
    rng = np.random.default_rng(11)
    for _ in range(20):
        R = procrustes_rotation(rng.standard_normal((8, 3)), rng.standard_normal((8, 3)))
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-10


def test_normalized_3d_error_cases():
    rng = np.random.default_rng(12)
    S = [rng.standard_normal((8, 3)) for _ in range(4)]
    assert normalized_3d_error(S, S) < 1e-12
    scaled = [1.1 * s for s in S]
    assert normalized_3d_error(scaled, S, allow_scale=True) < 1e-12
    pert = []
    for s in S:
        d = rng.standard_normal(s.shape)
        pert.append(s + 0.1 * np.linalg.norm(s) * d / np.linalg.norm(d))
    assert normalized_3d_error(pert, S) <= 0.1    # R = I already gives 0.1


def test_normalized_3d_error_rotation_invariant():
    rng = np.random.default_rng(13)
    S = [rng.standard_normal((8, 3)) for _ in range(4)]
    est = [s + 0.05 * rng.standard_normal(s.shape) for s in S]
    R = random_rotation(14)
    e1 = normalized_3d_error(est, S)
    e2 = normalized_3d_error([e @ R for e in est], S)
    assert np.isclose(e1, e2, atol=1e-10)


def test_frame_3d_errors_one_per_frame():
    rng = np.random.default_rng(17)
    S = rng.standard_normal((5, 6, 3))
    est = S + 0.1 * rng.standard_normal(S.shape)
    est[3] = 0.0
    for allow_scale in (False, True):
        errs = frame_3d_errors(est, S, allow_scale=allow_scale)
        assert errs.shape == (5,)
        assert errs[3] == 1.0
        for f in range(5):
            assert errs[f] == normalized_3d_error(est[f:f + 1], S[f:f + 1],
                                                  allow_scale=allow_scale)
            # a loop over single frames through LAPACK's SVD, to rounding
            U, _, Vt = np.linalg.svd(est[f].T @ S[f])
            aligned = est[f] @ (U @ Vt)
            if allow_scale and np.sum(aligned * aligned) > 0:
                aligned = aligned * (np.sum(aligned * S[f]) / np.sum(aligned * aligned))
            want = np.linalg.norm(aligned - S[f]) / np.linalg.norm(S[f])
            assert abs(errs[f] - want) <= 1e-13 * want
        assert normalized_3d_error(est, S, allow_scale=allow_scale) == np.mean(errs)
    S[3] = 0.0
    with pytest.raises(ValueError, match="^3D error: zero-norm ground-truth frame at frame 3$"):
        frame_3d_errors(est, S)


@pytest.mark.parametrize("frames", [255, 256, 257, 600])
@pytest.mark.parametrize("allow_scale", [False, True])
def test_frame_3d_errors_in_blocks_equal_single_frames(frames, allow_scale):
    """frame_3d_errors aligns ERROR_BLOCK frames at a time; each frame's
    error keeps the bits of the frame on its own, on either side of a block
    boundary and in a short last block."""
    assert ERROR_BLOCK == 256
    rng = np.random.default_rng(frames)
    S = rng.standard_normal((frames, 9, 3))
    est = 1.3 * S + 0.1 * rng.standard_normal(S.shape)
    errs = frame_3d_errors(est, S, allow_scale=allow_scale)
    one = [frame_3d_errors(est[f:f + 1], S[f:f + 1], allow_scale=allow_scale)[0]
           for f in range(frames)]
    assert errs.tobytes() == np.array(one).tobytes()


def test_frame_3d_errors_names_the_given_frame():
    rng = np.random.default_rng(18)
    S = rng.standard_normal((5, 6, 3))
    S[3] = 0.0
    with pytest.raises(ValueError, match="^3D error: zero-norm ground-truth frame at frame 13$"):
        frame_3d_errors(S, S, frames=np.array([7, 9, 11, 13, 15]))


@pytest.mark.parametrize("extra", [-1, 1, ERROR_BLOCK - 1])
def test_frame_3d_errors_refuses_unequal_frame_counts(extra):
    """Estimates and truths must hold the same number of frames: estimates
    longer than a whole block of truths by less than a block, whose extra
    frames the blocked alignment would not reach, are refused too."""
    rng = np.random.default_rng(19)
    S = rng.standard_normal((ERROR_BLOCK, 5, 3))
    est = rng.standard_normal((len(S) + extra, 5, 3))
    for call in (frame_3d_errors, normalized_3d_error):
        with pytest.raises(ValueError, match="^3D error: frame counts differ$"):
            call(est, S)


def test_frame_3d_errors_names_itself_and_both_shapes():
    with pytest.raises(ValueError) as info:
        frame_3d_errors(np.zeros((2, 4, 3)), np.ones((2, 5, 3)))
    assert str(info.value) == ("frame_3d_errors: estimates of shape (2, 4, 3) "
                               "and truths of shape (2, 5, 3) differ")


@pytest.mark.parametrize("mode", ["orthogonal", "weak_perspective"])
def test_frame_3d_errors_peak_memory(mode):
    """At P=31 and F=2000 the traced peak is 0.41 MiB (0.65 MiB with a
    fitted scale): one block's alignment temporaries and the (F,) vectors.
    Aligning the whole stack at once peaked at 2.87 and 2.96 MiB, about
    two full-size arrays of 1.42 MiB."""
    rng = np.random.default_rng(19)
    S = rng.standard_normal((2000, 31, 3))
    est = S + 0.1 * rng.standard_normal(S.shape)
    tracemalloc.start()
    try:
        frame_3d_errors(est, S, allow_scale=mode == "weak_perspective")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.0 * 2**20


def test_normalized_3d_error_zero_norm_rejected():
    with pytest.raises(ValueError):
        normalized_3d_error([np.ones((3, 3))], [np.zeros((3, 3))])


def test_mutual_coherence():
    assert mutual_coherence(np.eye(4)) == 0
    D = np.ones((4, 2))
    assert np.isclose(mutual_coherence(D), 1.0)


def test_mutual_coherence_matches_pairwise_loop():
    rng = np.random.default_rng(15)
    D = rng.standard_normal((16, 8))
    best = 0.0
    for i in range(8):
        for j in range(8):
            if i != j:
                v = abs(D[:, i] @ D[:, j]) / (np.linalg.norm(D[:, i]) * np.linalg.norm(D[:, j]))
                best = max(best, v)
    assert np.isclose(mutual_coherence(D), best)


def test_mutual_coherence_scale_invariant():
    rng = np.random.default_rng(16)
    D = rng.standard_normal((10, 5))
    D2 = D.copy()
    D2[:, 3] *= -7.5
    assert np.isclose(mutual_coherence(D), mutual_coherence(D2))


def test_mutual_coherence_rejects_zero_atom():
    D = np.eye(4)
    D[:, 1] = 0
    with pytest.raises(ValueError):
        mutual_coherence(D)
    for bad in (np.ones((4, 1)), np.ones(4)):
        with pytest.raises(ValueError, match="^mutual_coherence: need a matrix with at least 2 "):
            mutual_coherence(bad)


def test_noise_perturb():
    rng = np.random.default_rng(17)
    W = rng.standard_normal((10, 2))
    assert np.array_equal(noise_perturb(W, 0.0, 1), W)
    W2 = noise_perturb(W, 0.2, 1)
    assert np.isclose(np.linalg.norm(W2 - W) / np.linalg.norm(W), 0.2, atol=1e-12)
    W3 = noise_perturb(W, 0.2, 2)
    assert not np.array_equal(W2, W3)
    assert np.isclose(np.linalg.norm(W3 - W), np.linalg.norm(W2 - W))
    for bad in (-0.1, np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and non-negative"):
            noise_perturb(W, bad, 1)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_mutual_coherence_refuses_a_non_finite_atom(value):
    D = np.eye(4)
    D[2, 1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            mutual_coherence(D)
    assert str(info.value) == "mutual_coherence: non-finite atom 1"
