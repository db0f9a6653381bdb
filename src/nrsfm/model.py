"""Forward model: hierarchical block-ISTA encoder, code/camera bottleneck,
nonlinear decoder, masked reprojection loss, and the exact backward pass.

Conventions
-----------
- The first dictionary is stored in its reshaped P x 3K1 form: atom k
  occupies columns 3k..3k+2 and is a P x 3 point-cloud basis element.
- Later dictionaries are plain K_{i-1} x K_i matrices; the Kronecker
  structure with I_r is applied implicitly by operating blockwise on
  (K, r, 2) codes.
- block_rows r is 3 for pure rotation cameras and 4 in translation mode,
  where each first-layer atom carries an implicit appended column of ones
  (the homogeneous coordinate).
- forward_batch holds a batch of B masked frames as one P x 2B matrix and
  its block codes block-major, (K, r, B, 2), so that each layer is one
  matrix product with the batch folded into a dimension, thresholded in
  place; its cache holds one array per layer, no pre-activations.
"""

from dataclasses import dataclass, field, fields, replace
from itertools import accumulate

import numpy as np

from .geometry import POLAR_CLAMP, CameraWeak, _frame_label, polar_factor
from .sparse import ACTIVATIONS, threshold

LOSS_SMOOTHING = 1e-12
HOMOGENEOUS_EPS = 1e-6
# ModelParams' parameter groups, in param_items order
GROUP_NAMES = ("dictionaries", "encoder thresholds", "decoder thresholds", "beta and gamma")


class CameraRankError(RuntimeError):
    """Recovered camera is numerically rank-deficient (or the homogeneous
    coordinate vanished in translation mode)."""


@dataclass
class ModelParams:
    """All learnable parameters of the encoder-decoder.

    dictionaries: [D1 as (P, 3*K1)] + [(K_{i-1}, K_i) for i = 2..N]
    enc_thresholds: per-layer block threshold vectors, enc_thresholds[i]
        has length K_{i+1} (the width of layer i, 0-based).
    dec_thresholds: dec_thresholds[i] (length K_{i+1}) is applied in the
        decoder after multiplying by dictionaries[i+1], i = 0..N-2.
    beta: (r, 2) code-combiner weights; gamma: (K_N,) camera-combiner.

    The constructor copies these arrays into one float64 vector `flat`, in
    param_items order, and rebinds the fields above as views into it: an
    in-place edit of either is an edit of both.  params[name] is the view
    param_items names, and `thresholds` is one view of every threshold,
    the encoder's then the decoder's, which sit next to each other there.
    backward_batch returns gradients in this layout.
    """

    dictionaries: list
    enc_thresholds: list
    dec_thresholds: list
    beta: np.ndarray
    gamma: np.ndarray
    activation: str = "relu"
    block_rows: int = 3
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if type(self.block_rows) is not int or self.block_rows not in (3, 4):
            raise ValueError(f"block_rows must be the integer 3 or 4, got {self.block_rows!r}")
        if not self.dictionaries or any(np.ndim(D) != 2 for D in self.dictionaries):
            raise ValueError("need at least one dictionary, each a 2-D matrix")
        if self.dictionaries[0].shape[1] % 3 != 0:
            raise ValueError("first dictionary must have 3*K1 columns")
        # the layout the dictionaries imply, group by group in param_items order
        K = self.widths
        want = [[self.dictionaries[0].shape] + list(zip(K, K[1:])), [(k,) for k in K],
                [(k,) for k in K[:-1]], [(self.block_rows, 2), (K[-1],)]]
        groups = self.dictionaries, self.enc_thresholds, self.dec_thresholds, (self.beta, self.gamma)
        have = [[np.shape(a) for a in group] for group in groups]
        if have != want:
            name, h, w = next(g for g in zip(GROUP_NAMES, have, want) if g[1] != g[2])
            raise ValueError(f"the {name} of a {len(K)}-layer model have shapes {w}, got {h}")
        if any(np.any(b < 0) for b in self.enc_thresholds + self.dec_thresholds):
            raise ValueError("thresholds must be non-negative")
        arrays = [a for group in groups for a in group]
        self.flat = np.concatenate(arrays, axis=None, dtype=float)
        views = (self.flat[e - a.size:e] for a, e in zip(arrays, accumulate(map(np.size, arrays))))
        self.dictionaries, self.enc_thresholds, self.dec_thresholds, (self.beta, self.gamma) = (
            [next(views).reshape(a.shape) for a in group] for group in groups)
        lo, n_enc, n_dec = (sum(a.size for a in group) for group in groups[:3])
        self.thresholds = self.flat[lo:lo + n_enc + n_dec]

    @property
    def n_layers(self):
        return len(self.dictionaries)

    @property
    def point_count(self):
        return self.dictionaries[0].shape[0]

    @property
    def widths(self):
        return [self.dictionaries[0].shape[1] // 3] + [D.shape[1] for D in self.dictionaries[1:]]

    def param_items(self):
        """Stable (name, array) ordering used by the optimizer, finite
        differences, and checkpoints."""
        items = [(f"dict{i + 1}", D) for i, D in enumerate(self.dictionaries)]
        items += [(f"enc_b{i + 1}", b) for i, b in enumerate(self.enc_thresholds)]
        items += [(f"dec_b{i + 2}", b) for i, b in enumerate(self.dec_thresholds)]
        items += [("beta", self.beta), ("gamma", self.gamma)]
        return items

    def __getitem__(self, name):
        return dict(self.param_items())[name]

    def __iter__(self):
        """The param_items names, so that params[name] follows."""
        return (name for name, _ in self.param_items())

    def copy(self):
        return replace(self)

    def zeros_like(self):
        """Zeros in this layout: a copy(), with the constructor's checks, zeroed."""
        zeros = self.copy()
        zeros.flat.fill(0.0)
        return zeros


def check_fields(config):
    """Refuse, naming the field, a dataclass field's value that is not of its
    declared type (an int field takes only an int, not a bool or a numpy
    integer, which JSON cannot write; a float field also takes an int), is
    below its metadata "min" or is not among its metadata "choices"."""
    for f in fields(config):
        value, rule, label = getattr(config, f.name), f.metadata, f.name.replace("_", " ")
        if not (type(value) is f.type if f.type in (int, bool)
                else isinstance(value, f.type) or f.type is float and type(value) is int):
            raise ValueError(f"{label} must be of type {f.type.__name__}, got {value!r}")
        if "min" in rule and value < rule["min"]:
            raise ValueError(f"{label} must be >= {rule['min']}")
        if "choices" in rule and value not in rule["choices"]:
            raise ValueError(f"unknown {label} {value!r}")


def width_schedule(first, last, layers):
    """Layer widths K_1..K_N interpolated linearly from first to last."""
    if layers < 1:
        raise ValueError("need at least one layer")
    if not (first >= last >= 1):
        raise ValueError("widths must satisfy K1 >= K_N >= 1")
    return [int(round(k)) for k in np.linspace(first, last, layers)]


def default_beta(block_rows):
    """Uniform-average combiner, matching the oracle 1/(r*2) weighting."""
    return np.full((block_rows, 2), 1.0 / (block_rows * 2))


def default_gamma(k_last):
    return np.full(k_last, 1.0 / k_last)


def random_params(rng, point_count, widths, activation, block_rows, centered=False):
    """Gaussian dictionaries with unit-norm atoms (D1's atoms centered over
    the points first when centered), zero thresholds and uniform-average
    combiners, drawn from rng layer by layer."""
    D1 = rng.standard_normal((point_count, widths[0], 3))
    if centered:
        D1 -= D1.mean(axis=0)
    D1 /= np.linalg.norm(D1, axis=(0, 2))[:, None]
    dicts = [D1.reshape(point_count, 3 * widths[0])]
    for k_in, k_out in zip(widths, widths[1:]):
        D = rng.standard_normal((k_in, k_out))
        dicts.append(D / np.linalg.norm(D, axis=0))
    return ModelParams(dicts, [np.zeros(k) for k in widths], [np.zeros(k) for k in widths[:-1]],
                       default_beta(block_rows), default_gamma(widths[-1]), activation, block_rows)


@dataclass
class ForwardOutput:
    hidden_blocks: np.ndarray      # Psi_N, (K_N, r, 2)
    code: np.ndarray               # psi_N, (K_N,)
    camera_raw: np.ndarray         # (r, 2)
    camera: CameraWeak
    shape: np.ndarray              # (P, 3)
    reprojection: np.ndarray       # (P, 2)
    loss_value: float


def _threshold_vjp(g, out, activation):
    """Pull g back through out = threshold(v, b, activation), reading which
    entries pass through off the stored output: returns the gradient for v
    and the per-entry gradient for -b."""
    if activation == "relu":
        gv = g * (out > 0)
        return gv, gv
    s = np.sign(out)
    return g * (s != 0), g * s


def atom_rows(params):
    """The first dictionary as a K1 x 3P matrix: row k is atom k's P x 3
    point cloud, flattened."""
    P, K1 = params.point_count, params.widths[0]
    return params.dictionaries[0].reshape(P, K1, 3).transpose(1, 0, 2).reshape(K1, 3 * P)


def _encoder(Xt, params):
    """Block-ISTA encoder over masked frames Xt (P, 2B), frame b in columns
    2b..2b+1.  Returns the block codes Psi_1..Psi_N, each (K_i, r, B, 2),
    each thresholded in place over its own pre-activation."""
    B = Xt.shape[1] // 2
    V = (params.dictionaries[0].T @ Xt).reshape(-1, 3, B, 2)
    if params.block_rows == 4:
        V4 = np.empty((len(V), 4, B, 2))
        V4[:, :3] = V
        # every atom's implicit column of ones sums the frame's points
        V4[:, 3] = Xt.reshape(-1, B, 2).sum(axis=0)
        V = V4
    blocks = []
    for d, b in enumerate(params.enc_thresholds):
        if d:   # V holds Psi_d by now
            V = (params.dictionaries[d].T @ V.reshape(len(V), -1)).reshape(-1, *V.shape[1:])
        blocks.append(threshold(V, b[:, None, None, None], params.activation, out=V))
    return blocks


def _code_rows(PsiN):
    """(K, r, B, 2) block codes as the (K*B, 2r) matrix np.tensordot forms
    against beta: row k*B + b is frame b's block k.  The copy moves each
    (x, y) pair as one complex number, the same bytes in half the strided
    moves."""
    K, r, B, _ = PsiN.shape
    pairs = np.ascontiguousarray(PsiN).view(complex)[..., 0]
    return pairs.transpose(0, 2, 1).copy().view(float).reshape(K * B, 2 * r)


def _bottleneck(PsiN, params):
    """Linear bottleneck over (K_N, r, B, 2) codes: psi_N^k = <beta, Psi_N^k>
    and camera_raw = sum_k gamma_k Psi_N^k.  Returns psiN (B, K_N) and
    camera_raw (B, r, 2)."""
    K, r, B, _ = PsiN.shape
    # psi_N as np.tensordot forms it: one reshape and one product
    psiN = np.dot(_code_rows(PsiN), params.beta.reshape(-1, 1)).reshape(K, B).T
    Mraw = (params.gamma @ PsiN.reshape(K, -1)).reshape(r, B, 2).transpose(1, 0, 2)
    return psiN, Mraw


def _decoder(psiN, params, rows):
    """Decoder from codes (B, K_N) to shapes (B, P, 3); the final layer is
    linear, through rows = atom_rows(params).  Returns (S, phi1, records),
    records holding (dictionary index, input, output) of each thresholded
    layer in the order the layers are applied."""
    phi, records = psiN, []
    for d in range(params.n_layers - 1, 0, -1):
        u = phi @ params.dictionaries[d].T
        records.append((d, phi, u))     # u is thresholded in place next
        phi = threshold(u, params.dec_thresholds[d - 1], params.activation, out=u)
    return (phi @ rows).reshape(len(phi), -1, 3), phi, records


def as_batch(W, mask):
    """Frames (B, P, 2), or one frame (P, 2), and their mask (None: all
    visible) as the (W, vis) batch that forward_batch takes."""
    W = np.asarray(W, dtype=float)
    mask = np.ones(W.shape[:-1], dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    return (W[None], mask[None]) if W.ndim == 2 else (W, mask)


def _masked_frames(W, vis, params):
    """forward_batch's checked (W, vis) and the encoder's input Xt: the
    P x 2B matrix of masked frames, frame b in columns 2b..2b+1."""
    W = np.asarray(W, dtype=float)
    vis = np.asarray(vis, dtype=bool)
    if W.ndim != 3 or W.shape[2] != 2:
        raise ValueError(f"forward_batch: W must be (B, P, 2), got {W.shape}")
    if vis.shape != W.shape[:2]:
        raise ValueError("forward_batch: visibility shape must match W")
    P = params.point_count
    if W.shape[1] != P:
        raise ValueError(f"forward_batch: model has {P} points, W has {W.shape[1]}")
    Xt = np.zeros((P, len(W), 2))
    np.copyto(Xt, W.transpose(1, 0, 2), where=vis.T[:, :, None])
    if not np.isfinite(Xt).all():
        bad = (vis[:, :, None] & ~np.isfinite(W)).any(axis=(1, 2))
        raise ValueError("forward_batch: non-finite measurement at a visible point"
                         + _frame_label(bad))
    return W, vis, Xt.reshape(P, -1)


def forward_batch(W, vis, params):
    """Run the full forward pass over a batch of frames.

    W: (B, P, 2), vis: (B, P) boolean.  Returns (losses (B,), valid (B,)
    boolean, cache) where invalid frames had a rank-deficient camera (their
    loss is reported but they carry no gradient and should be skipped).
    """
    W, vis, Xt = _masked_frames(W, vis, params)
    blocks = _encoder(Xt, params)
    psiN, Mraw = _bottleneck(blocks[-1], params)
    Q, s, Hinv, valid = polar_factor(Mraw[:, :3, :])
    rows = atom_rows(params)
    S, phi, dec_records = _decoder(psiN, params, rows)

    What = S @ Q
    eps, t_hat = None, np.zeros((len(W), 2))
    if params.block_rows == 4:
        eps = phi.sum(axis=1)
        valid = valid & (np.abs(eps) > HOMOGENEOUS_EPS)
        t_hat = eps[:, None] * Mraw[:, 3, :]
        What += t_hat[:, None, :]
    resid = np.subtract(W, What, out=np.zeros(W.shape), where=vis[:, :, None])
    losses = np.sqrt(np.sum(resid * resid, axis=(1, 2)) + LOSS_SMOOTHING)

    cache = {
        "Xt": Xt, "blocks": blocks, "psiN": psiN, "Mraw": Mraw, "Q": Q, "s": s,
        "Hinv": Hinv, "atom_rows": rows, "dec_records": dec_records, "phi1": phi, "S": S,
        "eps": eps, "t_hat": t_hat, "What": What, "resid": resid, "losses": losses,
        "valid": valid,
    }
    return losses, valid, cache


def polar_vjp(Q, s, Hinv, gQ):
    """Gradient with respect to 3x2 matrices M of their polar factor
    Q = M H^-1, given Q, the singular values s, H^-1 = (M^T M)^(-1/2) as
    polar_factor returns them and the gradient gQ with respect to Q:
        (gQ - Q A) H^-1 + k Q J,  A = Q^T gQ,  J = [[0, 1], [-1, 0]],
    k = (A_01 - A_10) / max(s_1 + s_2, POLAR_CLAMP).  This is the SVD form
    of Ionescu et al. (ICCV 2015), U [(G - G^T) / (s_i + s_j)] V^T +
    (I - U U^T) gQ V diag(1/s) V^T with G = U^T gQ V, written without U and
    V: U = Q V, and V (G - G^T) V^T = A - A^T = (A_01 - A_10) J."""
    A = np.swapaxes(Q, -1, -2) @ gQ
    k = (A[:, 0, 1] - A[:, 1, 0]) / np.maximum(s[:, 0] + s[:, 1], POLAR_CLAMP)
    g = (gQ - Q @ A) @ Hinv
    kQ = k[:, None, None] * Q
    g[..., 0] -= kQ[..., 1]     # Q J's columns are (-Q_1, Q_0)
    g[..., 1] += kQ[..., 0]
    return g


def backward_batch(cache, params, out=None):
    """Exact gradient of the summed loss over valid frames, laid out like
    params: a ModelParams, indexable by param_items name.  With out (a
    ModelParams in that layout) the gradient overwrites out and out is
    returned; without, a new one is allocated.  Raises FloatingPointError
    naming the first group with a non-finite entry."""
    gWhat = -cache["resid"] / cache["losses"][:, None, None] * cache["valid"][:, None, None]

    S, Q, Mraw = cache["S"], cache["Q"], cache["Mraw"]
    gS = (gWhat @ np.swapaxes(Q, 1, 2)).reshape(len(S), -1)
    gQ = np.swapaxes(S, 1, 2) @ gWhat
    # row-major (r, B, 2), as gamma's product and gPsi read it; every row is written below
    gMraw_t = np.empty((params.block_rows, len(S), 2))
    gMraw_t[:3] = polar_vjp(Q, cache["s"], cache["Hinv"], gQ).transpose(1, 0, 2)

    grads = params.copy() if out is None else out
    grads.flat.fill(0.0)
    P, K1 = params.point_count, params.widths[0]
    gD1 = grads.dictionaries[0].reshape(P, K1, 3)   # a view: atom-major terms add in place

    # decoder final (linear) layer, and with 4-row blocks t_hat = sum(phi1) * Mraw[3]
    phi1 = cache["phi1"]
    gphi = gS @ cache["atom_rows"].T
    gD1 += (phi1.T @ gS).reshape(K1, P, 3).transpose(1, 0, 2)
    if params.block_rows == 4:
        gt = gWhat.sum(axis=1)
        gphi = gphi + np.sum(gt * Mraw[:, 3, :], axis=1)[:, None]
        gMraw_t[3] = cache["eps"][:, None] * gt

    # decoder thresholded layers, the last one applied first
    for d, phi_in, phi_out in reversed(cache["dec_records"]):
        gu, gnb = _threshold_vjp(gphi, phi_out, params.activation)
        grads.dec_thresholds[d - 1] -= gnb.sum(axis=0)
        grads.dictionaries[d] += gu.T @ phi_in
        gphi = gu @ params.dictionaries[d]
    gpsiN = gphi

    # bottleneck, beta's product formed as np.tensordot forms it
    blocksN = cache["blocks"][-1]
    grads.beta += np.dot(gpsiN.T.reshape(1, -1), _code_rows(blocksN)).reshape(params.beta.shape)
    grads.gamma += blocksN.reshape(len(blocksN), -1) @ gMraw_t.ravel()
    # as two outer products: the bits of broadcasting both terms onto (K, r, B, 2), faster
    gPsi = np.multiply.outer(params.gamma, gMraw_t)
    gPsi += np.multiply.outer(gpsiN.T, params.beta).transpose(0, 2, 1, 3)

    # encoder layers N..1
    for d in range(params.n_layers - 1, -1, -1):
        gV, gnb = _threshold_vjp(gPsi, cache["blocks"][d], params.activation)
        grads.enc_thresholds[d] -= gnb.sum(axis=(1, 2, 3))
        if d:
            gV2 = gV.reshape(len(gV), -1)
            prev = cache["blocks"][d - 1]
            grads.dictionaries[d] += prev.reshape(len(prev), -1) @ gV2.T
            gPsi = (params.dictionaries[d] @ gV2).reshape(prev.shape)
    grads.dictionaries[0] += cache["Xt"] @ gV[:, :3].reshape(3 * K1, -1).T

    if not np.all(np.isfinite(grads.flat)):
        name = next(n for n, g in grads.param_items() if not np.all(np.isfinite(g)))
        raise FloatingPointError(f"non-finite gradient in parameter group {name!r}")
    return grads


def require_valid(valid, params):
    """Raise CameraRankError unless every camera in valid (one frame's flag,
    or a batch's) is valid, naming a batch's first bad frame."""
    if not np.all(valid):
        raise CameraRankError(
            "recovered camera is rank-deficient"
            + ("" if params.block_rows == 3 else " or homogeneous coordinate vanished")
            + _frame_label(~valid))


def encode(W, mask, params):
    """Hierarchical block-ISTA encoder for one frame or a batch (see
    as_batch); returns the list of block codes Psi_1..Psi_N, each (K_i, r, 2)
    for one frame and (B, K_i, r, 2) for a batch."""
    _, _, Xt = _masked_frames(*as_batch(W, mask), params)
    codes = [np.moveaxis(blk, 2, 0) for blk in _encoder(Xt, params)]
    return codes if np.ndim(W) == 3 else [c[0] for c in codes]


def recover_code_camera(PsiN, params):
    """Linear bottleneck for one frame: returns (psi_N, camera_raw)."""
    PsiN = np.asarray(PsiN, dtype=float)
    r = params.block_rows
    if PsiN.shape != (params.widths[-1], r, 2):
        raise ValueError(f"recover_code_camera: expected {(params.widths[-1], r, 2)}, "
                         f"got {PsiN.shape}")
    psiN, Mraw = _bottleneck(PsiN[:, :, None], params)
    return psiN[0], Mraw[0]


def decode(psiN, params):
    """Nonlinear decoder from one hidden code to a P x 3 shape."""
    psiN = np.asarray(psiN, dtype=float)
    if psiN.shape != (params.widths[-1],):
        raise ValueError("decode: code length must equal K_N")
    return _decoder(psiN[None], params, atom_rows(params))[0][0]


def forward(W, mask, params):
    """Full forward pass for one frame (P, 2); mask None is all visible."""
    if np.ndim(W) != 2:
        raise ValueError(f"forward: W must be one frame (P, 2), got shape {np.shape(W)}")
    losses, valid, cache = forward_batch(*as_batch(W, mask), params)
    require_valid(valid[0], params)
    return ForwardOutput(
        hidden_blocks=cache["blocks"][-1][:, :, 0],
        code=cache["psiN"][0],
        camera_raw=cache["Mraw"][0],
        camera=CameraWeak(cache["Q"][0], scale=1.0, translation=cache["t_hat"][0]),
        shape=cache["S"][0],
        reprojection=cache["What"][0],
        loss_value=float(losses[0]),
    )


def loss(W, mask, params):
    """Masked reprojection loss: per frame the smoothed unsquared Frobenius
    norm of the visible residual, summed over the batch (W (B, P, 2)) or
    for one frame (W (P, 2)); see as_batch."""
    losses, valid, _ = forward_batch(*as_batch(W, mask), params)
    require_valid(valid if np.ndim(W) == 3 else valid[0], params)
    return float(losses.sum())
