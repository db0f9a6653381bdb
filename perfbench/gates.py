"""Correctness gates and exact counts that sit beside the timings.

Everything here calls nrsfm's public API only and is never timed.
"""

import itertools

import numpy as np

import nrsfm.data
import nrsfm.model
import nrsfm.sparse
import nrsfm.training

GRAD_BOUND = 1e-4          # acceptance criterion 3's relative-error bound
GRAD_STEP = 1e-5
GRAD_COORDS = 3            # coordinates checked per parameter group
# Shapes that fail today: backward_batch walks the decoder layers of a model
# with 3 or more layers in the wrong order and numpy raises a broadcast
# ValueError.  They are still run and reported by name every time; any
# other failing shape counts as a failed operation.
KNOWN_FAILING = {"layers3-r3-relu", "layers3-r3-soft",
                 "layers3-r4-relu", "layers3-r4-soft"}


class Checks:
    """Tally of checked operations; failures keep their names."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


def gradient_gate():
    """Central finite differences against `gradients` on a grid of model
    shapes: layers {1, 2, 3} x block rows {3, 4} x {relu, soft}.

    Inputs follow acceptance criterion 3 (4 points, widths 6 -> 3, a batch
    of two frames, small positive thresholds, an offset under translation)
    with fixed seeds, so the verdict of each shape is the same every run.
    Returns {shape name: None if it passed, else the reason}.
    """
    out = {}
    grid = itertools.product((1, 2, 3), (3, 4), ("relu", "soft"))
    for i, (layers, rows, act) in enumerate(grid):
        name = f"layers{layers}-r{rows}-{act}"
        try:
            out[name] = _gradient_shape(i, layers, rows, act)
        except Exception as exc:    # a crash in the program is this shape's verdict
            out[name] = f"{type(exc).__name__}: {exc}"
    return out


def _gradient_shape(seed, layers, rows, act):
    rng = np.random.default_rng([seed, 3])
    cfg = nrsfm.training.TrainConfig(layers=layers, width_first=6, width_last=3,
                                     activation=act, translation=(rows == 4))
    params = nrsfm.training.init_params(cfg, 4, seed=seed)
    for b in params.enc_thresholds + params.dec_thresholds:
        b += rng.uniform(0.0, 0.05, b.shape)
    W = rng.standard_normal((2, 4, 2)) + (2.0 if rows == 4 else 0.0)
    vis = np.ones((2, 4), dtype=bool)
    grads = nrsfm.training.gradients(params, W, vis)

    def total():
        losses, valid, _ = nrsfm.model.forward_batch(W, vis, params)
        return float(losses[valid].sum())

    worst = 0.0
    for group, arr in params.param_items():
        flat, g = arr.ravel(), grads[group].ravel()
        for j in np.argsort(-np.abs(g), kind="stable")[:GRAD_COORDS]:
            if abs(g[j]) <= 1e-8:
                continue
            orig = flat[j]
            flat[j] = orig + GRAD_STEP
            plus = total()
            flat[j] = orig - GRAD_STEP
            minus = total()
            flat[j] = orig
            fd = (plus - minus) / (2 * GRAD_STEP)
            worst = max(worst, abs(fd - g[j]) / max(abs(fd), abs(g[j])))
    if worst > GRAD_BOUND:
        return f"max relative error {worst:.2e} > {GRAD_BOUND:g}"
    return None


def step_mflop(points, widths, rows, batch):
    """Dense multiply-add flops (2 per multiply-add) of the matrix products
    one training step must do, forward and backward, from the model's
    shapes alone: no SVD, polar factor or elementwise work, and no
    dependence on how the products are implemented."""
    P, K = points, widths
    enc = 12 * P * K[0] + sum(4 * rows * K[d - 1] * K[d] for d in range(1, len(K)))
    neck = 8 * rows * K[-1]
    dec = sum(2 * K[d - 1] * K[d] for d in range(1, len(K))) + 6 * P * K[0] + 12 * P
    forward = enc + neck + dec
    # every product has two adjoints except D1^T X, whose input needs none
    backward = 2 * forward - 12 * P * K[0]
    return batch * (forward + backward) / 1e6


def active_block_fracs(scene, params):
    """Mean over frames of the fraction of active blocks in each encoder
    layer, counted with sparse.block_sparsity on the public encoder."""
    widths = params.widths
    counts = np.zeros(len(widths))
    for f in range(scene.frame_count):
        codes = nrsfm.model.encode(scene.measurements[f], scene.visibility[f], params)
        counts += [nrsfm.sparse.block_sparsity(Z) for Z in codes]
    return list(counts / (scene.frame_count * np.array(widths)))


SCENE_FIELDS = ("measurements", "visibility", "gt_shapes", "gt_rotations",
                "gt_scales", "gt_translations", "norm_centroids", "norm_scales")


def same_scene(a, b):
    if a.mode != b.mode:
        return False
    for field in SCENE_FIELDS:
        x, y = getattr(a, field), getattr(b, field)
        if (x is None) != (y is None):
            return False
        if x is not None and (x.dtype, x.shape, x.tobytes()) != (y.dtype, y.shape, y.tobytes()):
            return False
    return True


def scene_round_trip(scene, path):
    """save_scene then load_scene must give back the same bits."""
    nrsfm.data.save_scene(scene, path)
    return same_scene(scene, nrsfm.data.load_scene(path))


def checkpoint_round_trip(params, path, **extra):
    nrsfm.data.save_checkpoint(path, params, **extra)
    loaded = nrsfm.data.load_checkpoint(path)[0]
    return all(np.array_equal(a, b) for (_, a), (_, b) in
               zip(params.param_items(), loaded.param_items()))


def sub_scene(scene, idx):
    """The frames idx of a scene, with their records."""
    pick = lambda a: None if a is None else a[idx]
    return nrsfm.data.Scene(scene.measurements[idx], scene.visibility[idx],
                            scene.mode, *(pick(getattr(scene, f))
                                          for f in SCENE_FIELDS[2:]))
