"""Thresholding operators, ISTA, and block-sparse primitives.

Block codes are represented as arrays of shape (K, r, 2): K blocks, each an
r-by-2 matrix (r = 3 for pure rotation cameras, r = 4 when a translation row
is carried along).
"""

import numpy as np

ACTIVATIONS = ("relu", "soft")


def threshold(x, b, activation, out=None):
    """The thresholding kernel, unvalidated: "relu" gives max(x - b, 0), anything
    else the two-sided shrink sign(x) * max(|x| - b, 0), b broadcast against x.
    out=x overwrites x through the same ufuncs on the same operands: same bits."""
    if activation == "relu":
        return np.maximum(np.subtract(x, b, out=out), 0.0, out=out)
    s = np.sign(x)
    y = np.subtract(np.abs(x, out=out), b, out=out)
    return np.multiply(s, np.maximum(y, 0.0, out=out), out=out)


def _nonneg(b, caller):
    b = np.asarray(b, dtype=float)
    if np.any(b < 0):
        raise ValueError(f"{caller}: thresholds must be non-negative")
    return b


def soft_threshold(x, b):
    """Shrink x toward zero by b: x-b above b, x+b below -b, 0 in between.

    b must be non-negative and broadcastable to x.
    """
    return threshold(np.asarray(x, dtype=float), _nonneg(b, "soft_threshold"), "soft")


def ista(x, D, alpha, tau, iters):
    """Classical ISTA for min_z 0.5*||x - D z||^2 + tau*||z||_1.

    Runs `iters` iterations of z <- eta(z - alpha*D^T(Dz - x); alpha*tau)
    starting from z = 0.  With alpha <= 1/sigma_max(D)^2 the composite
    objective is non-increasing per iteration.
    """
    x = np.asarray(x, dtype=float).ravel()
    D = np.asarray(D, dtype=float)
    if alpha <= 0:
        raise ValueError("ista: step size must be positive")
    if iters < 1:
        raise ValueError("ista: need at least one iteration")
    if D.shape[0] != x.shape[0]:
        raise ValueError(
            f"ista: dimension mismatch, x has {x.shape[0]} rows but D has {D.shape[0]}"
        )
    z = np.zeros(D.shape[1])
    for _ in range(iters):
        v = z - alpha * (D.T @ (D @ z - x))
        z = soft_threshold(v, alpha * tau)
    return z


def _check_block_code(V):
    V = np.asarray(V, dtype=float)
    if V.ndim != 3 or V.shape[2] != 2:
        raise ValueError(f"expected block code of shape (K, r, 2), got {V.shape}")
    return V


def group_prox(V, tau):
    """Exact proximal operator of tau * sum_k ||U_k||_F over r-by-2 blocks.

    Each block is scaled by max(1 - tau/||V_k||_F, 0); zero-norm blocks stay
    zero (the 0 selection at the kink).
    """
    V = _check_block_code(V)
    if tau < 0:
        raise ValueError("group_prox: tau must be non-negative")
    norms = np.linalg.norm(V, axis=(1, 2))
    scale = np.zeros_like(norms)
    nz = norms > 0
    scale[nz] = np.maximum(1.0 - tau / norms[nz], 0.0)
    return V * scale[:, None, None]


def block_threshold(V, b, mode="soft"):
    """Blockwise approximate prox: per-entry threshold b_k over block k.

    mode "soft" applies the two-sided shrink, mode "relu" applies
    max(entry - b_k, 0).
    """
    V = _check_block_code(V)
    b = np.asarray(b, dtype=float).ravel()
    if b.shape[0] != V.shape[0]:
        raise ValueError(
            f"block_threshold: {b.shape[0]} thresholds for {V.shape[0]} blocks"
        )
    b = _nonneg(b, "block_threshold")
    if mode not in ACTIVATIONS:
        raise ValueError(f"block_threshold: unknown mode {mode!r}")
    return threshold(V, b[:, None, None], mode)


def block_ista_step(X, D, b, mask=None, mode="soft"):
    """Single-iteration block ISTA: eta(D^T (Omega X); b) with step size 1.

    X is a P-by-2 measurement, D a P-by-(r*K) dictionary whose column triples
    (or quadruples) form r-by-2 blocks after the product, b a length-K
    threshold vector.  mask, when given, is a length-P boolean visibility
    vector; masked rows of X are zeroed, which is exactly the masked update.
    """
    X = np.asarray(X, dtype=float)
    D = np.asarray(D, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if X.ndim != 2 or X.shape[1] != 2:
        raise ValueError(f"block_ista_step: X must be (P, 2), got {X.shape}")
    if D.shape[0] != X.shape[0]:
        raise ValueError(
            f"block_ista_step: D has {D.shape[0]} rows, X has {X.shape[0]}"
        )
    K = b.shape[0]
    if K == 0 or D.shape[1] % K != 0:
        raise ValueError(
            f"block_ista_step: {D.shape[1]} dictionary columns do not split "
            f"into {K} blocks"
        )
    if mask is not None:
        mask = np.asarray(mask, dtype=bool).ravel()
        if mask.shape[0] != X.shape[0]:
            raise ValueError("block_ista_step: mask length must match rows of X")
        X = np.where(mask[:, None], X, 0.0)
    r = D.shape[1] // K
    V = (D.T @ X).reshape(K, r, 2)
    return block_threshold(V, b, mode=mode)


def block_sparsity(Z):
    """Number of blocks containing at least one nonzero entry."""
    Z = _check_block_code(Z)
    return int(np.count_nonzero(np.any(Z != 0, axis=(1, 2))))
