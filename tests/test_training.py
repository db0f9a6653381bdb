import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from nrsfm.data import PlantedSpec, Scene, normalize_scene, synth_planted
from nrsfm.geometry import normalized_3d_error
from nrsfm.model import CameraRankError, ModelParams, forward_batch, loss
from nrsfm.training import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, OptimizerState,
                            SCENE_BLOCK, TrainConfig, _frame_batches, _scene_pass,
                            adam_step, gradients, init_params,
                            last_dictionary_atoms, lr_schedule, reconstruct,
                            scene_error, scene_forward, train)


def _small_config(**kw):
    base = dict(layers=2, width_first=6, width_last=3, total_steps=5,
                eval_interval=2, batch_size=4)
    base.update(kw)
    return TrainConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(layers=0)
    with pytest.raises(ValueError):
        TrainConfig(width_first=4, width_last=8)
    with pytest.raises(ValueError):
        TrainConfig(base_lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(normalize="boxes")
    for bad, match in ((dict(base_lr=float("nan")), "learning rate"),
                       (dict(base_lr=float("inf")), "learning rate"),
                       (dict(decay_steps=0), "decay steps"),
                       (dict(decay_factor=-0.9), "decay factor"),
                       (dict(decay_factor=0.0), "decay factor"),
                       (dict(decay_factor=1.5), "decay factor"),
                       (dict(activation="foo"), "activation"),
                       (dict(seed=-1), "seed"),
                       (dict(batch_size=0), "^batch size must be >= 1$"),
                       (dict(total_steps=0), "^total steps must be >= 1$"),
                       (dict(eval_interval=0), "^eval interval must be >= 1$")):
        with pytest.raises(ValueError, match=match):
            TrainConfig(**bad)
    # the final dictionary's coherence needs two atoms
    for bad in (dict(width_last=1), dict(layers=1, width_first=1, width_last=1)):
        with pytest.raises(ValueError, match="final dictionary"):
            TrainConfig(**bad)
    flat = TrainConfig(decay_factor=1.0, decay_steps=1)
    assert lr_schedule(5000, flat) == flat.base_lr


def test_config_widths_interpolate_linearly():
    cfg = TrainConfig(layers=3, width_first=32, width_last=8)
    assert cfg.widths == [32, 20, 8]
    assert TrainConfig(layers=1, width_first=8, width_last=8).widths == [8]


# values of the wrong type for a field of each declared type; they include
# TrainConfig(translation="no"), (layers=True), (seed=np.int64(3)) and
# PlantedSpec(frames=2.5), which used to build some other config
WRONG_TYPES = {int: (1.5, 2.5, True, np.int64(3), "3"), float: (True, "0.1", np.float32(0.5)),
               bool: ("no", 1, np.bool_(True)), str: (1, None)}
# each field's lower bound, for the fields that have one
BOUNDS = {"batch_size": 1, "total_steps": 1, "decay_steps": 1, "seed": 0,
          "eval_interval": 1, "points": 2, "frames": 1, "max_missing": 0}


@pytest.mark.parametrize("schema, f", [(schema, f) for schema in (TrainConfig, PlantedSpec)
                                       for f in fields(schema)],
                         ids=lambda x: getattr(x, "__name__", None) or x.name)
def test_config_field_refuses_a_wrong_type_bound_or_choice(schema, f):
    """Every field of both configs refuses, naming the field, each value of
    another type, the value below its bound and an unknown choice; it takes
    its bound, and a float field takes an int."""
    assert f.metadata.get("min") == BOUNDS.get(f.name)
    label = f.name.replace("_", " ")
    cases = [(v, f"{label} must be of type {f.type.__name__}, got {v!r}")
             for v in WRONG_TYPES[f.type]]
    if f.name in BOUNDS:
        cases.append((BOUNDS[f.name] - 1, f"{label} must be >= {BOUNDS[f.name]}"))
        schema(**{f.name: BOUNDS[f.name]})
    if "choices" in f.metadata:
        cases.append(("nope", f"unknown {label} 'nope'"))
    for value, message in cases:
        with pytest.raises(ValueError) as info:
            schema(**{f.name: value})
        assert str(info.value) == message
    if f.type is float:
        assert getattr(schema(**{f.name: 1}), f.name) == 1


def test_init_params_unit_columns_and_determinism():
    cfg = _small_config()
    p1 = init_params(cfg, 7)
    p2 = init_params(cfg, 7)
    D1 = p1.dictionaries[0].reshape(7, 6, 3)
    norms = np.linalg.norm(D1, axis=(0, 2))
    assert np.max(np.abs(norms - 1)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(p1.dictionaries[1], axis=0) - 1)) < 1e-12
    for (_, a), (_, b) in zip(p1.param_items(), p2.param_items()):
        assert np.array_equal(a, b)
    assert np.all(p1.enc_thresholds[0] == 0)


def _fd_check(params, W, vis, h=1e-5):
    grads = gradients(params, W, vis)
    worst = 0.0
    for name, arr in params.param_items():
        g = grads[name]
        flat = arr.ravel()
        idx = np.argsort(np.abs(g.ravel()))[-4:]   # spot-check largest entries
        for i in idx:
            if abs(g.ravel()[i]) <= 1e-8:
                continue
            orig = flat[i]
            flat[i] = orig + h
            lp = _total_loss(params, W, vis)
            flat[i] = orig - h
            lm = _total_loss(params, W, vis)
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            rel = abs(fd - g.ravel()[i]) / max(abs(fd), abs(g.ravel()[i]))
            worst = max(worst, rel)
    return worst


def _total_loss(params, W, vis):
    from nrsfm.model import forward_batch
    losses, valid, _ = forward_batch(W, vis, params)
    return float(losses[valid].sum())


def _random_instance(rng, block_rows=3, activation="relu", layers=2,
                     width_last=3):
    cfg = TrainConfig(layers=layers, width_first=6, width_last=width_last,
                      activation=activation,
                      translation=(block_rows == 4))
    params = init_params(cfg, 4, seed=int(rng.integers(1 << 30)))
    for b in params.enc_thresholds + params.dec_thresholds:
        b += rng.uniform(0.0, 0.05, b.shape)
    W = rng.standard_normal((2, 4, 2))
    if block_rows == 4:
        W += 2.0
    vis = np.ones((2, 4), dtype=bool)
    vis[0, rng.integers(4)] = False
    return params, W, vis


def test_gradients_match_finite_differences():
    # 2 layers 6 -> 3, then 3 layers with unequal (6, 4, 3) and equal
    # (6, 6, 6) widths, where the decoder's layer order matters
    rng = np.random.default_rng(0)
    shapes = [(2, 3)] * 20 + [(3, 3)] * 8 + [(3, 6)] * 8
    for trial, (layers, width_last) in enumerate(shapes):
        block_rows = 4 if trial % 4 == 3 else 3
        activation = "soft" if trial % 2 else "relu"
        params, W, vis = _random_instance(rng, block_rows, activation,
                                          layers, width_last)
        assert _fd_check(params, W, vis) <= 1e-4


def test_gradients_double_batch_doubles_gradient():
    rng = np.random.default_rng(1)
    params, W, vis = _random_instance(rng)
    g1 = gradients(params, W, vis)
    g2 = gradients(params, np.concatenate([W, W]), np.concatenate([vis, vis]))
    for name, _ in g1.param_items():
        assert np.allclose(2 * g1[name], g2[name], atol=1e-12)


def test_gradients_index_views_of_one_flat_vector():
    """gradients returns a ModelParams laid out like params: grads[name], for
    each param_items name, is the view of grads.flat at that name's offset."""
    rng = np.random.default_rng(2)
    for layers in (1, 2, 3):
        params, W, vis = _random_instance(rng, layers=layers)
        grads = gradients(params, W, vis)
        start = grads.flat.__array_interface__["data"][0]
        offset = 0
        for name, arr in params.param_items():
            g = grads[name]
            assert g.shape == arr.shape and g.flags.c_contiguous, name
            assert g.__array_interface__["data"][0] == start + 8 * offset, name
            assert np.shares_memory(g, grads.flat), name
            offset += arr.size
        assert offset == grads.flat.size
        with pytest.raises(KeyError):
            grads["dict9"]


def test_gradients_empty_batch_rejected():
    rng = np.random.default_rng(2)
    params, W, vis = _random_instance(rng)
    with pytest.raises(ValueError):
        gradients(params, W[:0], vis[:0])


def _batch_indices_loop(seed, n_frames, step, batch_size):
    """Frame indices of training step `step` one by one: entry i of the
    step is entry pos of epoch's permutation, drawn from its formula."""
    out = np.empty(batch_size, dtype=np.intp)
    for i in range(batch_size):
        epoch, pos = divmod(step * batch_size + i, n_frames)
        out[i] = np.random.default_rng([seed, 7919, epoch]).permutation(n_frames)[pos]
    return out


@pytest.mark.parametrize("n_frames, batch_size, start_step", [
    pytest.param(n, b, start, id=f"{n}-{b}" + (f"-from{start}" if start else ""))
    for n, b in ((10, 4), (12, 4), (7, 7), (5, 12), (3, 8)) for start in (0, 3)])
def test_batch_indices_match_loop_oracle(n_frames, batch_size, start_step):
    # across epoch boundaries, batches longer than the scene, and a stream
    # started at a resumed run's first step
    batches = _frame_batches(11, n_frames, start_step * batch_size, batch_size)
    for step, got in zip(range(start_step, 40), batches):
        assert np.array_equal(got, _batch_indices_loop(11, n_frames, step, batch_size))


def test_gradients_mask_none_is_all_visible():
    """A mask of None is all visible, and one frame is a batch of one."""
    rng = np.random.default_rng(3)
    params, W, _ = _random_instance(rng)
    every = np.ones(W.shape[:2], dtype=bool)
    assert (gradients(params, W, None).flat.tobytes()
            == gradients(params, W, every).flat.tobytes())
    one = gradients(params, W[:1], every[:1]).flat.tobytes()
    for mask in (None, every[0]):
        assert gradients(params, W[0], mask).flat.tobytes() == one


def test_adam_single_step_closed_form():
    cfg = _small_config()
    params = init_params(cfg, 5)
    state = OptimizerState.zeros(params)
    grads = params.copy()
    grads.flat[:] = 0.25
    before = {n: a.copy() for n, a in params.param_items()}
    lr = 0.01
    adam_step(params, grads, state, lr)
    g = 0.25
    m_hat = (1 - ADAM_BETA1) * g / (1 - ADAM_BETA1)
    v_hat = (1 - ADAM_BETA2) * g * g / (1 - ADAM_BETA2)
    delta = lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    for name, arr in params.param_items():
        expected = before[name] - delta
        if name.startswith(("enc_b", "dec_b")):
            expected = np.maximum(expected, 0.0)
        assert np.allclose(arr, expected, atol=1e-15)
    assert state.step == 1


def test_adam_zero_gradient_keeps_params():
    cfg = _small_config()
    params = init_params(cfg, 5)
    state = OptimizerState.zeros(params)
    before = {n: a.copy() for n, a in params.param_items()}
    grads = params.copy()
    grads.flat[:] = 0.0
    adam_step(params, grads, state, 0.01)
    for name, arr in params.param_items():
        assert np.array_equal(arr, before[name])


def test_adam_clamps_thresholds():
    cfg = _small_config()
    params = init_params(cfg, 5)
    state = OptimizerState.zeros(params)
    grads = params.copy()
    grads.flat[:] = 0.0
    grads["enc_b1"][:] = 1.0   # pushes the zero threshold negative
    adam_step(params, grads, state, 0.5)
    assert np.all(params.enc_thresholds[0] == 0.0)


def test_lr_schedule_values():
    cfg = TrainConfig(base_lr=0.001)
    assert lr_schedule(0, cfg) == 0.001
    assert np.isclose(lr_schedule(cfg.decay_steps, cfg), 0.001 * cfg.decay_factor)
    assert lr_schedule(0, TrainConfig()) == TrainConfig().base_lr
    vals = [lr_schedule(s, cfg) for s in range(0, 5000, 100)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        lr_schedule(-1, cfg)


def _tiny_scene(seed=3, frames=24, noise=0.0):
    spec = PlantedSpec(points=8, frames=frames, layers=2, width_first=6,
                       width_last=3, sparsity=1, seed=seed, noise_ratio=noise)
    scene, _ = synth_planted(spec)
    return normalize_scene(scene, "bbox")


def test_train_records_every_interval_and_descends():
    scene = _tiny_scene()
    cfg = _small_config(total_steps=200, eval_interval=50)
    history = train(scene, cfg, verbose=False).history
    steps = history.column("step")
    assert steps == [0, 50, 100, 150, 200]
    assert history.records[-1].mean_loss < history.records[0].mean_loss
    for rec in history.records:
        assert 0.0 <= rec.coherence <= 1.0
        assert rec.error3d is not None


def test_train_deterministic():
    scene = _tiny_scene()
    cfg = _small_config(total_steps=60, eval_interval=20)
    r1 = train(scene, cfg, verbose=False)
    r2 = train(scene, cfg, verbose=False)
    assert [vars(a) for a in r1.history.records] == [vars(b) for b in r2.history.records]
    for (_, a), (_, b) in zip(r1.params.param_items(), r2.params.param_items()):
        assert np.array_equal(a, b)


def test_train_requires_normalized_scene():
    spec = PlantedSpec(points=6, frames=4, width_first=4, width_last=2, seed=4)
    scene, _ = synth_planted(spec)
    with pytest.raises(ValueError):
        train(scene, _small_config(width_first=4, width_last=2), verbose=False)
    # explicit opt-out works
    train(scene, _small_config(width_first=4, width_last=2, total_steps=2,
                               normalize="none"), verbose=False)
    empty = Scene(np.zeros((0, 6, 2)), np.zeros((0, 6), dtype=bool))
    with pytest.raises(ValueError, match="^empty scene$"):
        train(empty, _small_config(width_first=4, width_last=2, normalize="none"), verbose=False)


def test_train_resume_bit_exact():
    scene = _tiny_scene()
    full_cfg = _small_config(total_steps=40, eval_interval=10)
    full = train(scene, full_cfg, verbose=False)

    half_cfg = _small_config(total_steps=20, eval_interval=10)
    half = train(scene, half_cfg, verbose=False)
    resumed = train(scene, full_cfg,
                    init=(half.params, half.opt_state, 20, half.skipped),
                    verbose=False)
    for (_, a), (_, b) in zip(full.params.param_items(),
                              resumed.params.param_items()):
        assert np.array_equal(a, b)
    # resumed history covers steps 30..40 and matches the uninterrupted run
    tail = {r.step: r for r in full.history.records}
    for rec in resumed.history.records:
        ref = tail[rec.step]
        assert rec.mean_loss == ref.mean_loss
        assert rec.error3d == ref.error3d


def test_train_resume_leaves_the_passed_state_as_it_was():
    """train copies the Adam state it resumes from, as it copies the params:
    two resumes from one TrainResult give the same bytes, and the state they
    were given keeps its moments and its step."""
    scene = _tiny_scene()
    half = train(scene, _small_config(total_steps=20, eval_interval=10), verbose=False)
    before = (half.params.flat.tobytes(), half.opt_state.moment1.tobytes(),
              half.opt_state.moment2.tobytes(), half.opt_state.step)
    cfg = _small_config(total_steps=40, eval_interval=10)
    a, b = (train(scene, cfg, init=(half.params, half.opt_state, 20, half.skipped),
                  verbose=False) for _ in range(2))
    assert (half.params.flat.tobytes(), half.opt_state.moment1.tobytes(),
            half.opt_state.moment2.tobytes(), half.opt_state.step) == before
    assert a.opt_state is not half.opt_state and a.opt_state.step == b.opt_state.step == 40
    for x, y in ((a.params.flat, b.params.flat), (a.opt_state.moment1, b.opt_state.moment1),
                 (a.opt_state.moment2, b.opt_state.moment2)):
        assert x.tobytes() == y.tobytes()
    assert a.history == b.history and a.skipped == b.skipped


PROGRESS_LINES = """\
step      0 lr 0.003 loss 1.144115 coherence 0.5069 err3d 0.998289
step      2 lr 0.00299984 loss 1.148762 coherence 0.5109 err3d 0.997167
step      4 lr 0.00299968 loss 1.155055 coherence 0.5170 err3d 0.997214
step      5 lr 0.0029996 loss 1.154870 coherence 0.5202 err3d 0.997004
"""


def test_train_prints_one_progress_line_per_record(capsys):
    """verbose train prints each history record as it is taken: the step,
    the learning rate, the mean loss, the coherence and the 3D error."""
    train(_tiny_scene(), _small_config(), verbose=True)
    assert capsys.readouterr().out == PROGRESS_LINES


def test_train_resume_without_optimizer_state_starts_from_zeros():
    """init's opt_state None is a fresh Adam state: the same bytes as
    resuming with explicit zero moments."""
    scene = _tiny_scene()
    half = train(scene, _small_config(total_steps=3), verbose=False)
    cfg = _small_config(total_steps=8)
    fresh = train(scene, cfg, init=(half.params, None, 3, half.skipped), verbose=False)
    zeros = train(scene, cfg, init=(half.params, OptimizerState.zeros(half.params), 3,
                                    half.skipped), verbose=False)
    for a, b in ((fresh.params.flat, zeros.params.flat),
                 (fresh.opt_state.moment1, zeros.opt_state.moment1),
                 (fresh.opt_state.moment2, zeros.opt_state.moment2)):
        assert a.tobytes() == b.tobytes()
    assert fresh.opt_state.step == zeros.opt_state.step == 5
    assert fresh.history == zeros.history and fresh.skipped == zeros.skipped


def test_train_resume_rejects_other_structure():
    scene = _tiny_scene()
    half = train(scene, _small_config(total_steps=2), verbose=False)
    init = (half.params, half.opt_state, 2, half.skipped)
    for change in (dict(layers=3), dict(width_first=5), dict(width_last=2),
                   dict(activation="soft"), dict(translation=True)):
        with pytest.raises(ValueError, match="resume"):
            train(scene, _small_config(total_steps=4, **change), init=init,
                  verbose=False)


def test_train_resume_rejects_step_past_total():
    scene = _tiny_scene()
    half = train(scene, _small_config(total_steps=4), verbose=False)
    init = (half.params, half.opt_state, 4, half.skipped)
    with pytest.raises(ValueError, match="resume: checkpoint is at step 4"):
        train(scene, _small_config(total_steps=3), init=init, verbose=False)
    # resuming at exactly total_steps has nothing left to do
    assert train(scene, _small_config(total_steps=4), init=init,
                 verbose=False).history.records == []


def test_last_dictionary_atoms_single_layer():
    cfg = TrainConfig(layers=1, width_first=5, width_last=5, total_steps=1)
    params = init_params(cfg, 6)
    atoms = last_dictionary_atoms(params)
    assert atoms.shape == (18, 5)
    # column k is atom k of D1, flattened
    D1r = params.dictionaries[0].reshape(6, 5, 3)
    assert np.allclose(atoms[:, 2], D1r[:, 2, :].ravel())


def test_reconstruct_matches_final_history_error():
    scene = _tiny_scene()
    cfg = _small_config(total_steps=600, eval_interval=300)
    result = train(scene, cfg, verbose=False)
    pairs = reconstruct(scene, result.params)
    assert len(pairs) == scene.frame_count
    from nrsfm.geometry import normalized_3d_error
    err = normalized_3d_error([S for S, _ in pairs], scene.gt_shapes)
    assert np.isclose(err, result.history.records[-1].error3d, atol=1e-9)
    # cameras are orthonormal
    for _, cam in pairs:
        M = cam.rotation
        assert np.max(np.abs(M.T @ M - np.eye(2))) < 1e-8


def _scene(normalize, mode, seed=3):
    spec = PlantedSpec(points=8, frames=24, layers=2, width_first=6, width_last=3,
                       sparsity=1, camera_mode=mode, seed=seed)
    return normalize_scene(synth_planted(spec)[0], normalize)


def _valid_frames(scene, params):
    """The frames of scene, with their records, where params find a valid
    camera."""
    idx = np.flatnonzero(forward_batch(scene.measurements, scene.visibility, params)[1])
    assert idx.size >= 4
    return replace(scene, **{f.name: a[idx] for f in fields(scene)
                             if isinstance(a := getattr(scene, f.name), np.ndarray)})


@pytest.mark.parametrize("normalize", ["bbox", "center", "none"])
@pytest.mark.parametrize("mode", ["orthogonal", "weak_perspective"])
@pytest.mark.parametrize("translation", [False, True])
def test_scene_error_is_the_history_error(normalize, mode, translation):
    """scene_error and the history read one scene pass: the same bits."""
    scene = _scene(normalize, mode)
    cfg = _small_config(total_steps=20, eval_interval=20, normalize=normalize,
                        translation=translation)
    result = train(scene, cfg, verbose=False)
    assert result.history.records[-1].error3d is not None
    assert scene_error(scene, result.params) == result.history.records[-1].error3d


@pytest.mark.parametrize("normalize", ["bbox", "center", "none"])
@pytest.mark.parametrize("translation", [False, True])
def test_reconstruct_denormalizes_each_frame(normalize, translation):
    """Per frame, reconstruct gives forward_batch's shape times the frame's
    scale, its polar factor, and centroid + scale * t_hat, bit for bit."""
    scene = _scene(normalize, "weak_perspective")
    cfg = _small_config(total_steps=20, normalize=normalize, translation=translation)
    params = train(scene, cfg, verbose=False).params
    scene = _valid_frames(scene, params)
    _, _, cache = forward_batch(scene.measurements, scene.visibility, params)
    pairs = reconstruct(scene, params)
    assert len(pairs) == scene.frame_count
    for f, (S, cam) in enumerate(pairs):
        scale = 1.0 if scene.norm_scales is None else scene.norm_scales[f]
        centroid = 0.0 if scene.norm_centroids is None else scene.norm_centroids[f]
        assert np.array_equal(S, cache["S"][f] * scale)
        assert np.array_equal(cam.rotation, cache["Q"][f])
        assert cam.scale == 1.0
        assert np.array_equal(cam.translation, centroid + scale * cache["t_hat"][f])


def test_invalid_camera_names_its_frame():
    """A 4-row model needs a nonzero homogeneous coordinate: reconstruct and
    a batched loss name the first frame where it (or the camera) vanished."""
    scene = _scene("none", "weak_perspective")
    params = init_params(_small_config(translation=True), scene.point_count)
    scene = _valid_frames(scene, params)
    zero_beta = params.copy()
    zero_beta.beta[:] = 0.0     # psi_N = 0, so every frame's coordinate is 0
    message = "rank-deficient or homogeneous coordinate vanished at frame"
    with pytest.raises(CameraRankError, match=f"{message} 0$"):
        reconstruct(scene, zero_beta)
    scene.measurements[3] = 0.0     # no signal in frame 3 alone
    for call in (lambda: reconstruct(scene, params),
                 lambda: loss(scene.measurements, scene.visibility, params)):
        with pytest.raises(CameraRankError, match=f"{message} 3$"):
            call()
    params3 = init_params(_small_config(), scene.point_count)
    scene = _valid_frames(_scene("none", "weak_perspective"), params3)
    scene.measurements[3] = 0.0
    with pytest.raises(CameraRankError, match="^recovered camera is rank-deficient at frame 3$"):
        reconstruct(scene, params3)


def test_reconstruct_deterministic():
    scene = _tiny_scene()
    cfg = _small_config(total_steps=600, eval_interval=300)
    result = train(scene, cfg, verbose=False)
    p1 = reconstruct(scene, result.params)
    p2 = reconstruct(scene, result.params)
    for (S1, c1), (S2, c2) in zip(p1, p2):
        assert np.array_equal(S1, S2)
        assert np.array_equal(c1.rotation, c2.rotation)


def test_generalization_to_held_out_frames():
    # train and held-out frames from the same planted model
    spec = PlantedSpec(points=8, frames=60, layers=2, width_first=6,
                       width_last=3, sparsity=1, seed=5)
    scene, _ = synth_planted(spec)
    scene = normalize_scene(scene, "bbox")
    train_scene = scene.copy()
    train_scene.measurements = scene.measurements[:40]
    train_scene.visibility = scene.visibility[:40]
    train_scene.gt_shapes = scene.gt_shapes[:40]
    train_scene.gt_rotations = scene.gt_rotations[:40]
    train_scene.gt_scales = scene.gt_scales[:40]
    train_scene.gt_translations = scene.gt_translations[:40]
    train_scene.norm_centroids = scene.norm_centroids[:40]
    train_scene.norm_scales = scene.norm_scales[:40]
    held = scene.copy()
    held.measurements = scene.measurements[40:]
    held.visibility = scene.visibility[40:]
    held.gt_shapes = scene.gt_shapes[40:]
    held.gt_rotations = scene.gt_rotations[40:]
    held.gt_scales = scene.gt_scales[40:]
    held.gt_translations = scene.gt_translations[40:]
    held.norm_centroids = scene.norm_centroids[40:]
    held.norm_scales = scene.norm_scales[40:]

    cfg = _small_config(total_steps=1500, eval_interval=500, batch_size=8)
    result = train(train_scene, cfg, verbose=False)
    train_err = scene_error(train_scene, result.params)
    held_err = scene_error(held, result.params)
    assert held_err <= 2.0 * train_err + 0.02


def test_train_skipped_counter_present():
    scene = _tiny_scene()
    result = train(scene, _small_config(total_steps=10), verbose=False)
    assert result.skipped >= 0
    assert result.history.records[-1].skipped == result.skipped


@pytest.mark.parametrize("mode,activation,translation,bound_mib", [
    ("orthogonal", "relu", False, 2.55),
    ("weak_perspective", "soft", True, 2.85)])
def test_scene_forward_peak_memory(mode, activation, translation, bound_mib):
    """Each encoder layer is held once, thresholded in place over its own
    pre-activation, and the forward pass makes no full-size temporary it
    could avoid.  At P=31, F=500 and widths 32 -> 8 the traced peak is
    2.50 MiB (orthogonal, relu) and 2.82 MiB (weak perspective, soft,
    translation, noise and missing points); caching the pre-activations as
    well, with out-of-place thresholds, peaked at 3.40 and 4.21 MiB."""
    spec = PlantedSpec(points=31, frames=500, camera_mode=mode, noise_ratio=0.05 * translation,
                       max_missing=3 * translation, seed=3)
    scene = normalize_scene(synth_planted(spec)[0], "bbox")
    params = init_params(TrainConfig(activation=activation, translation=translation), 31)
    tracemalloc.start()
    try:
        scene_forward(scene, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20


def _planted_model(frames, translation, normalize, seed=4):
    """An orthographic scene with a relu model, or a weak-perspective scene
    with noise and missing points with a soft translation model: P=31,
    widths 32 -> 8."""
    spec = PlantedSpec(points=31, frames=frames, noise_ratio=0.05 * translation,
                       camera_mode="weak_perspective" if translation else "orthogonal",
                       max_missing=3 * translation, seed=seed)
    scene = normalize_scene(synth_planted(spec)[0], normalize)
    config = TrainConfig(activation="soft" if translation else "relu", translation=translation)
    return scene, init_params(config, 31)


@pytest.mark.parametrize("frames", [1, 255, 256, 257, 511, 512, 513, 767, 2001])
@pytest.mark.parametrize("translation", [False, True], ids=["ortho-relu", "transl-soft"])
@pytest.mark.parametrize("normalize", ["bbox", "none"])
def test_blocked_scene_pass_equals_one_whole_pass(frames, translation, normalize):
    """_scene_pass runs the model in blocks of SCENE_BLOCK frames, the last
    one taking the tail, and keeps the bits of one scene_forward over the
    whole scene, de-normalized; scene_error keeps those of
    normalized_3d_error over that one pass.  Splitting off the tail as a
    block of its own (a 1-frame block at F=513) changes bits."""
    assert SCENE_BLOCK == 256
    scene, params = _planted_model(frames, translation, normalize)
    losses, valid, cache = scene_forward(scene, params)
    scales = np.ones(frames) if scene.norm_scales is None else scene.norm_scales
    centroids = 0.0 if scene.norm_centroids is None else scene.norm_centroids
    shapes = cache["S"] * scales[:, None, None]
    want = {"losses": losses, "valid": valid, "shapes": shapes, "rotations": cache["Q"],
            "translations": centroids + scales[:, None] * cache["t_hat"]}
    for (name, w), got in zip(want.items(), _scene_pass(scene, params)):
        assert (got.dtype, got.shape) == (w.dtype, w.shape), name
        assert got.tobytes() == w.tobytes(), name
    assert valid.any()
    assert scene_error(scene, params) == normalized_3d_error(
        shapes[valid], scene.gt_shapes[valid], allow_scale=translation)


def test_scene_error_refuses_a_scene_it_cannot_score():
    """scene_error needs ground truth and at least one frame with a valid
    camera: a model whose camera combiner is zero has none, and the history
    would record its mean loss as NaN and no 3D error."""
    scene = _tiny_scene()
    params = init_params(_small_config(), scene.point_count)
    with pytest.raises(ValueError, match="^scene has no ground truth$"):
        scene_error(replace(scene, gt_shapes=None), params)
    params.gamma[:] = 0.0
    assert not scene_forward(scene, params)[1].any()
    with pytest.raises(ValueError, match="^no valid frames to evaluate$"):
        scene_error(scene, params)
    record = train(scene, _small_config(total_steps=1), init=(params, None, 0, 0),
                   verbose=False).history.records[0]
    assert np.isnan(record.mean_loss) and record.error3d is None


def test_zero_norm_ground_truth_is_named_by_its_scene_frame():
    """The 3D error runs over the frames with a valid camera only, but a
    zero-norm ground truth is named by its frame in the scene: with frames
    3, 5, 8, 11, 19 and 23 invalid, frame 22 is not called frame 17."""
    spec = PlantedSpec(points=8, frames=24, width_first=6, width_last=3, sparsity=1,
                       camera_mode="weak_perspective", seed=3)
    scene = synth_planted(spec)[0]
    config = TrainConfig(width_first=6, width_last=3, translation=True, normalize="none",
                         batch_size=4, total_steps=1)
    params = init_params(config, scene.point_count)
    assert np.flatnonzero(~scene_forward(scene, params)[1]).tolist() == [3, 5, 8, 11, 19, 23]
    gt = scene.gt_shapes.copy()
    gt[22] = 0.0
    scene = replace(scene, gt_shapes=gt)
    for run in (lambda: scene_error(scene, params), lambda: train(scene, config, verbose=False)):
        with pytest.raises(ValueError, match="^3D error: zero-norm ground-truth frame at frame 22$"):
            run()


def test_scene_error_peak_memory():
    """scene_error holds one block's activations: its traced peak at P=31,
    F=2000, widths 32 -> 8, weak perspective with soft thresholds, a
    translation row, noise and missing points, is 4.8 MiB, most of it the
    pass's outputs and the 3D error's arrays.  One forward over the whole
    scene peaked at 11.2 MiB, and scene_error peaked at 7.3 MiB while the 3D
    error aligned every frame at once."""
    scene, params = _planted_model(2000, True, "bbox", seed=3)
    tracemalloc.start()
    try:
        scene_error(scene, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * 2**20
