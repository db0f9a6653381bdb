"""Weak-perspective cameras, projection, input normalization, and the
evaluation metric.

Shows how a 3D shape turns into 2D measurements, how measurements are
normalized before encoding, and how reconstructions are scored with
Procrustes-aligned normalized error.
"""

import numpy as np

from nrsfm import (CameraWeak, align_shapes, mutual_coherence, noise_perturb,
                   normalize_bbox, normalized_3d_error, orthonormalize_camera,
                   project, random_camera, random_rotation)

rng = np.random.default_rng(1)

# A random shape seen through a random orthogonal camera.
S = rng.standard_normal((12, 3))
S -= S.mean(axis=0)
cam = random_camera(7)
W = project(S, cam)
print("shape", S.shape, "-> measurements", W.shape)

# Weak perspective adds a scale and an image translation.
weak = random_camera(7, mode="weak_perspective")
Ww = project(S, weak, mode="weak_perspective")
print(f"weak camera: scale {weak.scale:.3f}, translation {weak.translation}")

# Bounding-box normalization maps any frame into a unit box.
Wn, (centroid, scale) = normalize_bbox(Ww)
print(f"normalized: centroid {np.round(centroid, 3)}, bbox side {scale:.3f}")

# Cameras estimated by a network are rarely exactly orthonormal; the polar
# factor is the nearest matrix that is.
M_noisy = cam.rotation + 0.05 * rng.standard_normal((3, 2))
M_fixed, singular_values = orthonormalize_camera(M_noisy)
print("orthonormality defect after fix:",
      np.max(np.abs(M_fixed.T @ M_fixed - np.eye(2))))

# Reconstruction error is measured after resolving the rotation/mirror
# ambiguity: a rotated copy of the truth scores (near) zero.
R = random_rotation(3)
print("error of rotated truth:", normalized_3d_error([S @ R], [S]))
direction = rng.standard_normal(S.shape)
direction /= np.linalg.norm(direction)
noisy = S + 0.08 * np.linalg.norm(S) * direction
print("unaligned error of 8%-perturbed shape:",
      round(np.linalg.norm(noisy - S) / np.linalg.norm(S), 4))
print("aligned shape matches truth:",
      np.allclose(align_shapes(S @ R, S), S, atol=1e-8))

# Mutual coherence of a dictionary: low for near-orthogonal atoms.
D = rng.standard_normal((30, 8))
print("coherence of a random dictionary:", round(mutual_coherence(D), 3))

# Noise injection with an exact energy ratio.
W_noisy = noise_perturb(W, 0.1, seed=2)
print("achieved noise ratio:",
      np.linalg.norm(W_noisy - W) / np.linalg.norm(W))
