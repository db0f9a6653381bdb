"""Non-rigid structure from motion via hierarchical block-sparse coding."""

from .sparse import (
    soft_threshold, ista, group_prox, block_threshold,
    block_ista_step, block_sparsity,
)
from .geometry import (
    CameraWeak, project, random_camera, random_rotation, normalize_bbox,
    orthonormalize_camera, align_shapes, frame_3d_errors, normalized_3d_error,
    mutual_coherence, noise_perturb,
)
from .model import (
    ModelParams, ForwardOutput, CameraRankError, encode, decode,
    recover_code_camera, forward, loss, default_beta, default_gamma,
)
from .data import (
    Scene, PlantedSpec, synth_planted, make_missing, save_scene, load_scene,
    save_checkpoint, load_checkpoint, normalize_scene, read_scene_sections,
)
from .training import (
    TrainConfig, TrainHistory, init_params, gradients, adam_step,
    lr_schedule, train, reconstruct,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
