"""The benchmark's harness (perfbench/) calls the package's public API.  Its
gates are run here, unedited, so that a change to what `gradients`,
`forward_batch`, `param_items`, the scene and checkpoint IO, `scene_forward`,
`scene_error` or `reconstruct` take or return fails locally, not first in a
benchmark run.  So is its tracer, so that a traced function no longer
called where the benchmark's per-layer figures look for it fails here too."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import nrsfm.training
from nrsfm.data import PlantedSpec, normalize_scene, synth_planted
from nrsfm.training import (TrainConfig, reconstruct, scene_error, scene_forward,
                            train)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gates():
    return _load("gates")


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


def test_gradient_gate_passes_every_shape(gates):
    verdicts = gates.gradient_gate()
    assert len(verdicts) == 12
    assert {name: why for name, why in verdicts.items() if why is not None} == {}


def test_replays_on_a_trained_scene(gates, tmp_path):
    """The untimed replays a training workload runs after its passes."""
    spec = PlantedSpec(points=8, frames=24, width_first=6, width_last=3, sparsity=1,
                       camera_mode="weak_perspective", seed=3)
    scene = normalize_scene(synth_planted(spec)[0], "bbox")
    config = TrainConfig(width_first=6, width_last=3, activation="soft", translation=True,
                         batch_size=4, total_steps=20, eval_interval=10)
    result = train(scene, config, verbose=False)
    params = result.params
    assert gates.scene_round_trip(scene, tmp_path / "scene.txt")
    assert gates.checkpoint_round_trip(params, tmp_path / "model.ckpt", config=config,
                                       opt_state=result.opt_state, step=config.total_steps,
                                       skipped=result.skipped)
    assert scene_error(scene, params) == result.history.records[-1].error3d
    _, valid, _ = scene_forward(scene, params)
    idx = np.flatnonzero(valid)
    assert idx.size > 0
    pairs = reconstruct(gates.sub_scene(scene, idx), params)
    assert len(pairs) == idx.size
    for S, camera in pairs:
        assert S.shape == (scene.point_count, 3) and np.all(np.isfinite(S))
        assert camera.rotation.shape == (3, 2) and camera.translation.shape == (2,)


def test_traced_training_feeds_every_layer_figure(tracing):
    """The training workloads' per-layer figures come from spans recorded
    inside train() and scene_error(); a figure with no span is a NaN
    median, which makes the benchmark's result line invalid JSON."""
    spec = PlantedSpec(points=8, frames=24, width_first=6, width_last=3, sparsity=1,
                       camera_mode="weak_perspective", seed=3)
    scene = normalize_scene(synth_planted(spec)[0], "bbox")
    config = TrainConfig(width_first=6, width_last=3, activation="soft", translation=True,
                         batch_size=4, total_steps=12, eval_interval=4)
    with tracing.Tracer() as tracer:
        tracer.phase = "run"
        # through the module, whose bindings the tracer has replaced
        params = nrsfm.training.train(scene, config, verbose=False).params
        nrsfm.training.scene_error(scene, params)
    steps, eval_share = tracer.train_breakdown()
    assert len(steps) == config.total_steps and 0 < eval_share < 1
    ms = tracer.durations_ms
    in_train = ms("model.forward_batch", lambda s, parent: parent == "training.train")
    assert len(in_train) == config.total_steps
    for name in ("model.backward_batch", "model.polar_vjp", "training.adam_step"):
        assert len(ms(name)) == config.total_steps, name
    for name in ("training.scene_forward", "geometry.mutual_coherence", "training.scene_error"):
        assert ms(name), name
    assert ms("geometry.normalized_3d_error", lambda s, parent: s[5]["frames"] > 1)
