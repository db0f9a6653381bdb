"""Exact gradients, Adam with exponential learning-rate decay, the training
loop, and inference over a trained model."""

from dataclasses import dataclass, field
from itertools import count

import numpy as np

from . import model as mdl
from .geometry import (NORMALIZE_MODES, CameraWeak, mutual_coherence,
                       normalized_3d_error)
from .sparse import ACTIVATIONS

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
SCENE_BLOCK = 256   # frames per forward call in a pass over a whole scene


@dataclass
class TrainConfig:
    layers: int = 2
    width_first: int = 32
    width_last: int = 8
    activation: str = field(default="relu", metadata={"choices": ACTIVATIONS})
    translation: bool = False
    batch_size: int = field(default=64, metadata={"min": 1})
    total_steps: int = field(default=10000, metadata={"min": 1})
    base_lr: float = 0.003
    decay_factor: float = 0.9
    decay_steps: int = field(default=4000, metadata={"min": 1})
    seed: int = field(default=0, metadata={"min": 0})
    eval_interval: int = field(default=500, metadata={"min": 1})
    normalize: str = field(default="bbox", metadata={"choices": NORMALIZE_MODES})

    def __post_init__(self):
        mdl.check_fields(self)
        if self.widths[-1] < 2:
            raise ValueError("the final dictionary needs at least 2 atoms "
                             "(its mutual coherence is recorded)")
        if not 0 < self.base_lr < np.inf:
            raise ValueError("learning rate must be positive and finite")
        if not 0 < self.decay_factor <= 1:
            raise ValueError("decay factor must be in (0, 1]")

    @property
    def widths(self):
        return mdl.width_schedule(self.width_first, self.width_last, self.layers)

    @property
    def block_rows(self):
        return 4 if self.translation else 3


@dataclass
class OptimizerState:
    moment1: np.ndarray    # laid out like ModelParams.flat
    moment2: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, params):
        return cls(np.zeros_like(params.flat), np.zeros_like(params.flat))


@dataclass
class HistoryRecord:
    step: int
    mean_loss: float
    coherence: float
    error3d: float | None
    skipped: int


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)

    def column(self, name):
        return [getattr(r, name) for r in self.records]


def init_params(config, point_count, seed=None):
    """The config's model drawn by model.random_params from seed (default
    config.seed).  Deterministic per seed."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    return mdl.random_params(rng, point_count, config.widths, config.activation,
                             config.block_rows)


def gradients(params, measurements, masks):
    """Exact gradient of the summed loss over the batch (or one frame; see
    model.as_batch) with respect to every parameter, laid out like params (a
    ModelParams; index it by param_items name).  Rank-deficient frames
    contribute nothing.  Raises FloatingPointError if any gradient entry is
    non-finite, naming the parameter group."""
    measurements, masks = mdl.as_batch(measurements, masks)
    if measurements.shape[0] == 0:
        raise ValueError("gradients: empty batch")
    _, _, cache = mdl.forward_batch(measurements, masks, params)
    return mdl.backward_batch(cache, params)


def adam_step(params, grads, state, lr):
    """Standard Adam update (beta1 0.9, beta2 0.999, eps 1e-8) with
    threshold non-negativity projection, for grads laid out like params (as
    gradients returns them).  Updates in place and returns (params, state)."""
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    g, m, v = grads.flat, state.moment1, state.moment2
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1 - ADAM_BETA2) * g * g
    params.flat -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    np.maximum(params.thresholds, 0.0, out=params.thresholds)
    return params, state


def lr_schedule(step, config):
    """base_lr * decay_factor ** (step / decay_steps), continuous exponent."""
    if step < 0:
        raise ValueError("step must be non-negative")
    return config.base_lr * config.decay_factor ** (step / config.decay_steps)


def last_dictionary_atoms(params):
    """The final dictionary as a (dim, K_N) atom matrix, usable for
    coherence.  For single-layer models the first dictionary's atoms are
    flattened to 3P-vectors."""
    if params.n_layers > 1:
        return params.dictionaries[-1]
    # C order: on the transposed view mutual_coherence's products round differently
    return np.ascontiguousarray(mdl.atom_rows(params).T)


def scene_forward(scene, params, frames=slice(None)):
    """Batched forward over the frames (a slice, default all) of a
    (normalized) scene, read as views of its arrays."""
    return mdl.forward_batch(scene.measurements[frames], scene.visibility[frames], params)


def _scene_pass(scene, params):
    """scene_forward read back in the scene's own frame: (losses, valid,
    shapes, rotations, translations), with shapes and translations mapped
    back through the scene's normalization records.  The frames run in
    blocks of SCENE_BLOCK, the last one taking the tail, so the pass holds
    one block's activations; the outputs are allocated once and filled
    block by block.  A tail block of its own could change bits: BLAS may
    round a batch of a few frames unlike the same frames in a larger one."""
    F, P = scene.frame_count, scene.point_count
    losses, valid = np.empty(F), np.empty(F, dtype=bool)
    shapes, rotations, translations = np.empty((F, P, 3)), np.empty((F, 3, 2)), np.empty((F, 2))
    scales = np.ones(F) if scene.norm_scales is None else scene.norm_scales
    centroids = np.zeros((F, 2)) if scene.norm_centroids is None else scene.norm_centroids
    starts = [k * SCENE_BLOCK for k in range(max(1, F // SCENE_BLOCK))] + [F]
    for block in map(slice, starts, starts[1:]):
        losses[block], valid[block], cache = scene_forward(scene, params, block)
        np.multiply(cache["S"], scales[block, None, None], out=shapes[block])
        rotations[block] = cache["Q"]
        translations[block] = centroids[block] + scales[block, None] * cache["t_hat"]
        del cache
    return losses, valid, shapes, rotations, translations


def _evaluate(scene, params):
    """(mean loss, 3D error) over the frames with a valid camera: the error
    (None without ground truth or a valid frame) fits a scale in weak
    perspective."""
    losses, valid, shapes, _, _ = _scene_pass(scene, params)
    if not np.any(valid):
        return float("nan"), None
    error3d = (None if scene.gt_shapes is None else normalized_3d_error(
        shapes[valid], scene.gt_shapes[valid], allow_scale=scene.mode == "weak_perspective",
        frames=np.flatnonzero(valid)))
    return float(losses[valid].mean()), error3d


def scene_error(scene, params):
    """Normalized mean 3D error of the model's reconstructions against the
    scene's ground truth, after de-normalization, as the training history
    records it.  Invalid frames are excluded."""
    if scene.gt_shapes is None:
        raise ValueError("scene has no ground truth")
    error = _evaluate(scene, params)[1]
    if error is None:
        raise ValueError("no valid frames to evaluate")
    return error


def _frame_batches(seed, n_frames, start, size):
    """Training's batches of size frame indices from entry start on: slices
    of the seeded per-epoch permutations laid end to end.  A batch that
    crosses an epoch boundary, or is longer than the scene, joins the
    slices of the epochs it spans."""
    first, pos = divmod(start, n_frames)
    epochs = (np.random.default_rng([seed, 7919, e]).permutation(n_frames) for e in count(first))
    rest = next(epochs)[pos:]
    while True:
        while len(rest) < size:
            rest = np.concatenate([rest, next(epochs)])
        yield rest[:size]
        rest = rest[size:]


@dataclass
class TrainResult:
    params: mdl.ModelParams
    history: TrainHistory
    opt_state: OptimizerState
    skipped: int


def train(scene, config, init=None, verbose=True):
    """Minibatch Adam over seeded-shuffled frames.  Records full-scene mean
    loss, final-dictionary coherence, and (with ground truth) normalized 3D
    error every eval_interval steps.  Deterministic given (scene, config,
    seed).  Pass init=(params, opt_state, start_step, skipped) to resume
    (opt_state None: a fresh Adam state); the params must have the layers,
    widths, activation and block rows of the config, and start_step must not
    pass config.total_steps.  Returns a TrainResult."""
    if scene.frame_count == 0:
        raise ValueError("empty scene")
    if config.normalize != "none" and not scene.is_normalized:
        raise ValueError("scene must be pre-normalized (see normalize_scene) "
                         "or config.normalize set to 'none'")
    params, opt_state, start_step, skipped = init or (
        init_params(config, scene.point_count), None, 0, 0)
    have = (params.n_layers, params.widths, params.activation, params.block_rows)
    want = (config.layers, config.widths, config.activation, config.block_rows)
    if have != want:
        raise ValueError("resume: checkpoint has (layers, widths, activation, block "
                         f"rows) {have} but the config asks for {want}")
    if start_step > config.total_steps:
        raise ValueError(f"resume: checkpoint is at step {start_step}, past "
                         f"total_steps {config.total_steps}")
    params = params.copy()      # the caller's params and Adam state stay as they were
    opt_state = (OptimizerState.zeros(params) if opt_state is None else OptimizerState(
        opt_state.moment1.copy(), opt_state.moment2.copy(), opt_state.step))

    history = TrainHistory()
    batches = _frame_batches(config.seed, scene.frame_count, start_step * config.batch_size,
                             config.batch_size)
    grads = params.zeros_like()     # backward_batch overwrites it every step

    def record(step):
        mean_loss, error3d = _evaluate(scene, params)
        coherence = mutual_coherence(last_dictionary_atoms(params))
        history.records.append(HistoryRecord(step, mean_loss, coherence,
                                             error3d, skipped))
        if verbose:
            err = "-" if error3d is None else f"{error3d:.6f}"
            print(f"step {step:6d} lr {lr_schedule(step, config):.6g} "
                  f"loss {mean_loss:.6f} coherence {coherence:.4f} err3d {err}",
                  flush=True)

    if start_step == 0:
        record(0)
    for step, idx in zip(range(start_step, config.total_steps), batches):
        _, valid, cache = mdl.forward_batch(scene.measurements[idx],
                                            scene.visibility[idx], params)
        skipped += int(np.count_nonzero(~valid))
        adam_step(params, mdl.backward_batch(cache, params, out=grads), opt_state,
                  lr_schedule(step, config))
        if (step + 1) % config.eval_interval == 0 or step + 1 == config.total_steps:
            record(step + 1)
    return TrainResult(params, history, opt_state, skipped)


def reconstruct(scene, params):
    """Pure inference: per-frame (shape, camera) for every frame, with
    shapes and translations mapped back through the scene's normalization
    records.  Raises CameraRankError naming the first frame without a
    valid camera."""
    _, valid, shapes, rotations, translations = _scene_pass(scene, params)
    mdl.require_valid(valid, params)
    return [(S, CameraWeak(Q, 1.0, t)) for S, Q, t in zip(shapes, rotations, translations)]
