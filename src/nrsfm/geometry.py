"""Cameras, projection, normalization, alignment, and evaluation metrics."""

from dataclasses import dataclass, field

import numpy as np

# A camera whose second singular value is at or below this is rank-deficient.
RANK_EPS = 1e-10
# polar_factor's closed form serves 3x2 matrices with sigma2 / sigma1 above
# this; LAPACK serves the rest.  Against an 80-bit reference the closed form
# was as accurate as LAPACK at every ratio from 1e-10 to 1, so the cutoff
# only keeps frames near rank 1 on LAPACK's bits.
POLAR_CUTOFF = 1e-4
# polar_factor's H^-1 divides by max(sigma, POLAR_CLAMP), and so does the
# model's polar VJP by max(sigma1 + sigma2, POLAR_CLAMP); the closed form
# serves only sigma2 above it, where no clamp acts.
POLAR_CLAMP = 1e-8
# polar_factor_3x3's Newton iteration serves 3x3 matrices M whose condition
# number ||M||_F ||M^-1||_F is at most this; LAPACK serves the rest.  Against
# an 80-bit reference the iteration was as accurate as LAPACK at every
# condition number from 1 to 1e8, so the cutoff only keeps frames near rank 2
# on LAPACK's bits.  At every condition number tried (1 to 1e8) the 5th step
# was within 1e-9 of the iteration's limit and the 6th within rounding (6e-16).
NEWTON_CUTOFF = 1e4
NEWTON_STEPS = 6
_NEXT_ROW = np.array([1, 2, 0])  # row i + 1 (mod 3), for the cross product
# cof(X)[i, j] = X[i+1, j+1] X[i+2, j+2] - X[i+1, j+2] X[i+2, j+1] (mod 3): the
# entries of the four factors of each cofactor, row-major indices into X
_COFACTOR = np.array([[3 * ((i + di) % 3) + (j + dj) % 3 for i in range(3) for j in range(3)]
                      for di, dj in ((1, 1), (2, 2), (1, 2), (2, 1))])

CAMERA_MODES = ("orthogonal", "weak_perspective")
ERROR_BLOCK = 256   # frames aligned at a time by frame_3d_errors
NORMALIZE_MODES = ("bbox", "center", "none")  # see data.normalize_scene


@dataclass
class CameraWeak:
    """Weak-perspective camera: column-orthonormal 3x2 rotation part,
    positive scale, 2D image translation, all finite."""

    rotation: np.ndarray
    scale: float = 1.0
    translation: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float)
        self.translation = np.asarray(self.translation, dtype=float).ravel()
        if self.rotation.shape != (3, 2):
            raise ValueError(f"camera rotation part must be 3x2, got {self.rotation.shape}")
        if self.translation.shape != (2,):
            raise ValueError("camera translation must be a 2-vector")
        if not np.isfinite(self.rotation).all():
            raise ValueError("camera rotation part must be finite")
        if not self.scale > 0:
            raise ValueError("camera scale must be positive")
        if not np.isfinite(self.scale):
            raise ValueError("camera scale must be finite")
        if not np.isfinite(self.translation).all():
            raise ValueError("camera translation must be finite")


def project(S, cam, mode="orthogonal"):
    """Project a P-by-3 shape with a weak-perspective camera.

    orthogonal: W = S M (requires scale 1, zero translation).
    weak_perspective: W = scale * S M + 1 t^T.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[1] != 3:
        raise ValueError(f"project: shape must be (P, 3), got {S.shape}")
    return project_frames(S, cam.rotation, cam.scale, cam.translation, mode)


def project_frames(S, M, scale, t, mode="orthogonal"):
    """project over stacks: shapes (..., P, 3) by rotation parts (..., 3, 2),
    scales (...) and translations (..., 2), each frame's product one BLAS
    call, as for a single frame; M must be column-orthonormal to 1e-6 (a
    NaN in M is not)."""
    err = np.max(np.abs(np.swapaxes(M, -1, -2) @ M - np.eye(2)))
    if not err <= 1e-6:
        raise ValueError(f"camera rotation part is not column-orthonormal (error {err:.3g})")
    scale, t = np.asarray(scale), np.asarray(t)
    if mode == "orthogonal":
        if np.any(scale != 1.0) or np.any(t != 0):
            raise ValueError("project: orthogonal mode requires scale 1 and zero translation")
        return S @ M
    if mode == "weak_perspective":
        return scale[..., None, None] * (S @ M) + t[..., None, :]
    raise ValueError(f"project: unknown mode {mode!r}")


def draw_camera(rng, mode="orthogonal"):
    """One random camera's draws from rng, in this order: a quaternion (4,)
    of standard normals, then in weak-perspective mode a scale in [0.5, 1.5]
    and a translation in [-0.5, 0.5]^2.  Returns (quaternion, scale,
    translation); an orthogonal camera has scale 1 and zero translation."""
    if mode not in CAMERA_MODES:
        raise ValueError(f"random_camera: unknown mode {mode!r}")
    q = rng.standard_normal(4)
    if mode == "orthogonal":
        return q, 1.0, np.zeros(2)
    return q, rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5, size=2)


def quaternion_rotations(q):
    """3x3 rotation matrices (..., 3, 3) of quaternions (..., 4) = (w, x, y, z),
    each first divided by its norm (a BLAS dot, as np.linalg.norm takes it)."""
    flat = q.reshape(-1, 4)
    w, x, y, z = (flat / np.sqrt(_sq_norms(flat))[:, None]).T
    R = np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=-1)
    return R.reshape(q.shape[:-1] + (3, 3))


def random_rotation(seed):
    """Uniformly random 3x3 rotation matrix via unit-quaternion sampling."""
    return quaternion_rotations(np.random.default_rng(seed).standard_normal(4))


def random_camera(seed, mode="orthogonal"):
    """Sample a random camera (draw_camera): the first two columns of a
    uniform rotation; weak-perspective mode adds a scale and a translation."""
    q, scale, t = draw_camera(np.random.default_rng(seed), mode)
    return CameraWeak(quaternion_rotations(q)[:, :2], scale=scale, translation=t)


def _frame_label(bad):
    """' at frame i' naming the first flagged frame of a batch; '' for one frame."""
    return f" at frame {', '.join(map(str, np.argwhere(bad)[0]))}" if bad.ndim else ""


def _centroid(W, mask, caller):
    """visible_centroid, its errors naming caller."""
    count = np.count_nonzero(mask, axis=-1)
    if np.any(count == 0):
        raise ValueError(f"{caller}: no visible point{_frame_label(count == 0)}")
    visible = np.where(mask[..., None], W, 0.0)
    bad = ~np.isfinite(visible).all(axis=(-2, -1))
    if np.any(bad):
        raise ValueError(f"{caller}: non-finite visible point{_frame_label(bad)}")
    with np.errstate(over="ignore"):
        total = visible.sum(axis=-2)
    _refuse_overflow(total, caller, "sum")
    return total / count[..., None]


def _refuse_overflow(values, caller, what):
    """Refuse (..., 2) values computed from finite visible points that
    overflowed, naming the first such frame."""
    bad = ~np.isfinite(values).all(axis=-1)
    if np.any(bad):
        raise ValueError(f"{caller}: the visible points' {what} overflows{_frame_label(bad)}")


def visible_centroid(W, mask):
    """Centroid of the visible points of (..., P, 2) frames with (..., P)
    masks: their sum divided by their count, which must not be 0.  A NaN
    or an infinity at a visible point, or a sum that overflows, is
    refused, naming the frame."""
    return _centroid(W, mask, "visible_centroid")


def normalize_bbox(W, mask=None):
    """Shift visible points to zero centroid and divide by the larger
    bounding-box side, so max(width, height) = 1.  Invisible entries are
    zeroed.  W is (..., P, 2) with (..., P) masks; a NaN or an infinity at a
    visible point, or a sum or bounding box of the visible points that
    overflows, is refused, naming the frame.  Returns (normalized W,
    (centroid (..., 2), scale (...)))."""
    W = np.asarray(W, dtype=float)
    mask = (np.ones(W.shape[:-1], dtype=bool) if mask is None
            else np.asarray(mask, dtype=bool).reshape(W.shape[:-1]))
    few = np.count_nonzero(mask, axis=-1) < 2
    if np.any(few):
        raise ValueError(f"normalize_bbox: need at least 2 visible points{_frame_label(few)}")
    centroid = _centroid(W, mask, "normalize_bbox")
    vis = mask[..., None]
    with np.errstate(over="ignore"):
        extent = np.where(vis, W, -np.inf).max(axis=-2) - np.where(vis, W, np.inf).min(axis=-2)
    _refuse_overflow(extent, "normalize_bbox", "bounding box")
    scale = extent.max(axis=-1)
    if np.any(scale <= 0):
        raise ValueError("normalize_bbox: degenerate frame, visible points coincide"
                         + _frame_label(scale <= 0))
    Wn = np.where(vis, (W - centroid[..., None, :]) / scale[..., None, None], 0.0)
    return Wn, (centroid, scale)


def _svd_polar(M):
    """(polar factor, singular values, V^T) through LAPACK's thin SVD, one
    call per matrix."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return U @ Vt, s, Vt


def polar_factor(M):
    """Polar factor Q = M H^-1 of 3x2 matrices (any leading batch shape),
    H = (M^T M)^(1/2), in closed form.  Returns (Q, s, Hinv, full_rank): the
    singular values s, H^-1 = V diag(1 / max(s, POLAR_CLAMP)) V^T, and
    full_rank, the smallest singular value > RANK_EPS per matrix.

    With row i of M read as the complex number w_i = x_i + i y_i, A = M^T M
    has z = sum w_i^2 = (a - c) + 2ib and trace sum |w_i|^2, so sigma1^2 =
    (trace + |z|) / 2; delta = sigma1 sigma2 = sqrt(det A) is the norm of the
    cross product of M's columns.  With rho = sigma1 + sigma2 = (trace +
    2 delta)^(1/2), H = (A + delta I) / rho, so H^-1 = adj(A + delta I) /
    (delta rho), which acts on a row w as (rho^2 w - z conj(w)) / (2 delta
    rho).  A matrix whose sigma2 is not above POLAR_CUTOFF * sigma1 and
    POLAR_CLAMP (zero, rank-deficient, non-finite, ill-conditioned or tiny)
    goes to LAPACK instead, with LAPACK's bits and errors."""
    M = np.asarray(M, dtype=float)
    if M.shape[-2:] != (3, 2):
        raise ValueError(f"polar_factor: expected 3x2 matrices, got {M.shape[-2:]}")
    frames = M.reshape(-1, 3, 2)
    if frames.strides[-1] != frames.itemsize:
        frames = frames.copy()
    B = len(frames)
    w = frames.view(complex)[..., 0]
    with np.errstate(all="ignore"):     # frames that divide by zero go to LAPACK
        wc = w.conj()
        z = np.vecdot(wc, w)            # vecdot conjugates its first argument
        trace = np.vecdot(w, w).real
        cross = (wc * w[:, _NEXT_ROW]).imag     # Im(conj(w_i) w_i+1): m0 x m1, rotated
        s = np.empty((B, 2))
        s1, s2 = s.T
        np.sqrt(0.5 * (trace + np.abs(z)), out=s1)
        delta = np.sqrt(np.vecdot(cross, cross))
        np.divide(delta, s1, out=s2)
        closed = s2 > np.maximum(POLAR_CUTOFF * s1, POLAR_CLAMP)
        rho2 = trace + 2 * delta
        scale = 0.5 / (delta * np.sqrt(rho2))
        p, r = rho2 * scale, z * scale  # H^-1 = p I - [[Re r, Im r], [Im r, -Re r]]
        q = np.multiply(p[:, None], w, order="C")   # C order for the float view
        q -= r[:, None] * wc
        Q = q.view(float).reshape(B, 3, 2)
        Hinv = np.empty((B, 2, 2))
        h = Hinv.reshape(B, 4).T
        np.subtract(p, r.real, out=h[0])
        np.negative(r.imag, out=h[1])
        h[2] = h[1]
        np.add(p, r.real, out=h[3])
    if not closed.all():
        rest = ~closed
        Q[rest], s[rest], Vt = _svd_polar(frames[rest])
        Hinv[rest] = (np.swapaxes(Vt, 1, 2) / np.maximum(s[rest], POLAR_CLAMP)[:, None, :]) @ Vt
    lead = M.shape[:-2]
    return (Q.reshape(M.shape), s.reshape(lead + (2,)), Hinv.reshape(lead + (2, 2)),
            s[:, 1].reshape(lead) > RANK_EPS)


def orthonormalize_camera(Mraw):
    """Nearest column-orthonormal 3x2 matrix (polar factor U V^T of the thin
    SVD).  Returns (Mortho, singular values); rejects rank-deficient input."""
    Mraw = np.asarray(Mraw, dtype=float)
    if Mraw.shape != (3, 2):
        raise ValueError(f"orthonormalize_camera: expected 3x2, got {Mraw.shape}")
    Q, s, _, full_rank = polar_factor(Mraw)
    if not full_rank:
        raise ValueError(f"orthonormalize_camera: rank-deficient input (sigma2 = {s[-1]:.3g})")
    return Q, s


def polar_factor_3x3(M):
    """Orthogonal polar factor Q of 3x3 matrices (any leading batch shape):
    the nearest orthogonal matrix, a reflection where det M < 0.

    It takes NEWTON_STEPS Frobenius-scaled Newton steps (Higham 1986),
    X <- (zeta X + X^-T / zeta) / 2 with zeta = (||X^-1||_F / ||X||_F)^(1/2),
    on component-major (9, B) arrays, with X^-T = cof(X) / det X and row i
    of the cofactor matrix the cross product of rows i + 1 and i + 2.  A
    positive multiple of X has the same next step, so every step but the
    last takes X + cof(X) / (zeta^2 det X) = X + sign(det M) (||X||_F /
    ||cof X||_F) cof(X).  Every sum is written out three terms at a time,
    never a numpy reduction, so that a frame's bits do not depend on the
    batch: numpy reduces nine contiguous terms (B = 1) pairwise, but nine
    strided ones in order.

    A matrix goes to LAPACK instead, with LAPACK's bits and errors, unless
    its kappa = ||M||_F ||M^-1||_F = ||M||_F ||cof M||_F / |det M| is at most
    NEWTON_CUTOFF and |det M| >= ||M||_F^3 / (3 NEWTON_CUTOFF^2), which every
    matrix with kappa at most the cutoff meets (sigma1^2 >= ||M||_F^2 / 3 and
    sigma2, sigma3 >= sigma1 / kappa).  The second test keeps the first
    honest: near rank 1, det M and cof M are both rounding noise, and their
    ratio can make kappa look small.  So zero, rank-deficient, NaN and
    overflowing matrices go to LAPACK; one with an infinite entry is
    refused, since LAPACK's SVD does not return on it."""
    M = np.asarray(M, dtype=float)
    frames = M.reshape(-1, 3, 3)
    B = len(frames)
    XC = np.empty((2, 9, B))        # X and cof(X), entry 3 i + j in row 3 i + j
    X, C = XC
    X[...] = frames.reshape(B, 9).T
    factors, sq = np.empty((4, 9, B)), np.empty((2, 9, B))
    Q = np.empty((B, 3, 3))
    with np.errstate(all="ignore"):     # frames that divide by zero go to LAPACK
        for step in range(NEWTON_STEPS):
            np.take(X, _COFACTOR, axis=0, out=factors)
            np.multiply(factors[0], factors[1], out=C)
            np.multiply(factors[2], factors[3], out=factors[0])
            C -= factors[0]
            np.multiply(XC, XC, out=sq)
            sq3 = sq.reshape(2, 3, 3, B)
            cols = sq3[:, 0] + sq3[:, 1] + sq3[:, 2]
            x2, c2 = cols[:, 0] + cols[:, 1] + cols[:, 2]   # ||X||_F^2, ||cof X||_F^2
            if step in (0, NEWTON_STEPS - 1):
                terms = X[:3] * C[:3]
                det = terms[0] + terms[1] + terms[2]
            if step == 0:
                det2 = det * det
                kappa2 = x2 * c2 / det2     # at least 9, below 1 only if det2 overflows
                closed = ((kappa2 >= 1) & (kappa2 <= NEWTON_CUTOFF ** 2)
                          & (x2 * x2 * x2 / det2 <= 9 * NEWTON_CUTOFF ** 4))
                sign = np.sign(det)
            r = np.sqrt(x2 / c2)
            r *= sign
            C *= r
            X += C
        np.multiply(X, 0.5 * np.sqrt(np.sqrt(c2 / x2) / np.abs(det)), out=Q.reshape(B, 9).T)
    if not closed.all():
        rest = ~closed
        if np.isinf(frames[rest]).any():
            bad = np.isinf(frames).any(axis=(1, 2)).reshape(M.shape[:-2])
            raise ValueError(f"polar_factor_3x3: infinite entry{_frame_label(bad)}")
        Q[rest] = _svd_polar(frames[rest])[0]
    return Q.reshape(M.shape)


def procrustes_rotation(Sest, Sgt):
    """Orthogonal matrix R (reflections permitted) minimizing ||Sest R - Sgt||_F,
    per shape of any leading batch shape: the polar factor of Sest^T Sgt."""
    return polar_factor_3x3(np.swapaxes(Sest, -1, -2) @ Sgt)


def _sq_norms(S):
    """Squared Frobenius norm of each item of a stack (F, ...), as BLAS dot
    products (np.linalg.norm of one item takes the same dot)."""
    d = S.reshape(len(S), -1)
    return (d[:, None, :] @ d[:, :, None]).ravel()


def _first_non_finite(Sest, Sgt):
    """(what, mask of frames) for the first of the estimates and the truths
    (..., P, 3) that holds a NaN or an infinity, or None."""
    for what, S in (("estimate", Sest), ("ground truth", Sgt)):
        if not np.isfinite(S).all():
            return what, ~np.isfinite(S).all(axis=(-2, -1))
    return None


def _align(Sest, Sgt, allow_scale):
    """align_shapes without its checks; the scale's sums are BLAS dots."""
    aligned = Sest @ procrustes_rotation(Sest, Sgt)
    if allow_scale:
        a = aligned.reshape(aligned.shape[:-2] + (1, -1))
        denom = a @ np.swapaxes(a, -1, -2)
        num = a @ np.swapaxes(Sgt.reshape(a.shape), -1, -2)
        aligned = aligned * np.divide(num, denom, out=np.ones_like(denom), where=denom > 0)
    return aligned


def align_shapes(Sest, Sgt, allow_scale=False):
    """Align estimated shapes (..., P, 3) to ground truth by orthogonal
    Procrustes, optionally with an optimal global scale per shape.  A NaN
    or an infinity in either is refused, naming the frame."""
    Sest = np.asarray(Sest, dtype=float)
    Sgt = np.asarray(Sgt, dtype=float)
    if Sest.shape != Sgt.shape:
        raise ValueError("align_shapes: shapes must have matching size")
    if bad := _first_non_finite(Sest, Sgt):
        raise ValueError(f"align_shapes: non-finite {bad[0]}{_frame_label(bad[1])}")
    return _align(Sest, Sgt, allow_scale)


def frame_3d_errors(estimates, truths, allow_scale=False, frames=None):
    """Per frame ||align(S_est) - S_gt||_F / ||S_gt||_F of (F, P, 3) stacks,
    as an array, aligned in blocks of ERROR_BLOCK frames so that only one
    block's temporaries are held.  frames, the scene index of each frame
    (default 0..F-1), names a frame with a non-finite estimate or truth,
    or a zero-norm truth."""
    Sest = np.asarray(estimates, dtype=float)
    Sgt = np.asarray(truths, dtype=float)
    if len(Sest) != len(Sgt):
        raise ValueError("3D error: frame counts differ")
    if Sest.shape != Sgt.shape:
        raise ValueError(f"frame_3d_errors: estimates of shape {Sest.shape} and "
                         f"truths of shape {Sgt.shape} differ")
    name = (lambda i: i) if frames is None else frames.__getitem__
    if bad := _first_non_finite(Sest, Sgt):
        raise ValueError(f"3D error: non-finite {bad[0]} at frame {name(np.argmax(bad[1]))}")
    denom = np.sqrt(_sq_norms(Sgt))
    if np.any(denom == 0):
        raise ValueError("3D error: zero-norm ground-truth frame at frame "
                         f"{name(np.argmax(denom == 0))}")
    errors = np.empty(len(Sgt))
    for i in range(0, len(Sgt), ERROR_BLOCK):
        est, gt = Sest[i:i + ERROR_BLOCK], Sgt[i:i + ERROR_BLOCK]
        errors[i:i + ERROR_BLOCK] = np.sqrt(_sq_norms(_align(est, gt, allow_scale) - gt))
    errors /= denom
    return errors


def normalized_3d_error(estimates, truths, allow_scale=False, frames=None):
    """Mean over frames of frame_3d_errors."""
    return float(np.mean(frame_3d_errors(estimates, truths, allow_scale, frames)))


def mutual_coherence(D):
    """Max over atom pairs of |d_i^T d_j| / (||d_i|| ||d_j||).  An atom
    (column) with a NaN or an infinity is refused, naming it.  A nonzero
    atom whose squared norm underflows to 0 or overflows is divided by its
    largest |entry| first; every other atom is used as it is."""
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[1] < 2:
        raise ValueError("mutual_coherence: need a matrix with at least 2 atoms")
    bad = ~np.isfinite(D).all(axis=0)
    if np.any(bad):
        raise ValueError(f"mutual_coherence: non-finite atom {np.argmax(bad)}")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(D, axis=0)
    peak = np.abs(D).max(axis=0)
    rescale = ((norms == 0) | np.isinf(norms)) & (peak > 0)
    if np.any(rescale):
        D = D.copy()
        D[:, rescale] /= peak[rescale]
        norms[rescale] = np.linalg.norm(D[:, rescale], axis=0)
    if np.any(norms == 0):
        raise ValueError("mutual_coherence: zero-norm atom")
    G = np.abs((D / norms).T @ (D / norms))
    np.fill_diagonal(G, 0.0)
    return float(G.max())


def noise_perturb(W, ratio, seed):
    """Add Gaussian noise rescaled so ||noise||_F / ||W||_F equals ratio
    exactly."""
    W = np.asarray(W, dtype=float)
    if not 0 <= ratio < np.inf:
        raise ValueError("noise_perturb: ratio must be finite and non-negative")
    if ratio == 0:
        return W.copy()
    noise = np.random.default_rng(seed).standard_normal((1,) + W.shape)
    return add_scaled_noise(W[None], noise, ratio)[0]


def add_scaled_noise(W, noise, ratio):
    """W + noise for stacks (F, ...), each frame's noise rescaled in place so
    its ||noise||_F / ||W||_F equals ratio."""
    gain = ratio * np.sqrt(_sq_norms(W)) / np.sqrt(_sq_norms(noise))
    noise *= gain.reshape((-1,) + (1,) * (W.ndim - 1))
    return W + noise
