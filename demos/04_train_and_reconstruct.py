"""Train the auto-encoder on a small planted scene and reconstruct it.

The model never sees 3D data: it learns dictionaries, thresholds, and the
code/camera combiners purely from the 2D reprojection loss.  Because the
scene is planted, the recovered shapes can be scored against the exact
ground truth.
"""

import numpy as np

from nrsfm import (PlantedSpec, TrainConfig, normalized_3d_error, reconstruct,
                   synth_planted, train)
from nrsfm.data import normalize_scene

spec = PlantedSpec(points=15, frames=200, layers=2, width_first=12,
                   width_last=4, sparsity=1, camera_mode="orthogonal", seed=11)
scene, _ = synth_planted(spec)
scene = normalize_scene(scene, "bbox")

config = TrainConfig(layers=2, width_first=12, width_last=4,
                     total_steps=3000, eval_interval=500, batch_size=32,
                     seed=0)
result = train(scene, config)
params, history = result.params, result.history

print()
print("loss went", round(history.records[0].mean_loss, 4), "->",
      round(history.records[-1].mean_loss, 4))
print("3D error went", round(history.records[0].error3d, 4), "->",
      round(history.records[-1].error3d, 4))

# Coherence of the last dictionary is the paper's proxy for model quality
# when no 3D ground truth is available, lower meaning better.  Measured on
# planted scenes it runs the other way: over 15 runs its Spearman
# correlation with the final 3D error is -0.79, and within one run
# (acceptance criterion 9) the Pearson r is -0.788.  The mean training loss
# ranks the same 15 runs at +0.996.
co = history.column("coherence")
print("coherence trace:", [round(c, 3) for c in co])

# Inference is a pure forward pass; shapes come back de-normalized.
pairs = reconstruct(scene, params)
shapes = [S for S, _ in pairs]
err = normalized_3d_error(shapes, scene.gt_shapes)
print("reconstruction error (all frames):", round(err, 4))
cam = pairs[0][1]
print("first camera orthonormality defect:",
      np.max(np.abs(cam.rotation.T @ cam.rotation - np.eye(2))))
