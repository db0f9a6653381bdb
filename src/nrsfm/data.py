"""Planted-model scene synthesis, occlusion injection, and file formats.

On-disk contracts
-----------------
Scene files are a single self-describing text container: the magic line
and '#' header lines (key=value), then the SCENE_SECTIONS in any order, each
a '[name]' line, its header row and its records ('#' lines only before the
first).  [measurements] is required; [shapes] (ground truth), [cameras] and
[normalization] are optional.  Keys and the visible flag are integers, other
values carry 17 significant digits, so round trips are bit-exact.  Reading
checks each section in file order: its structure, and its records if read.

Checkpoints are a binary container: the magic line, a UTF-8 JSON
manifest line (version, config, step, tensor names/shapes), then a body of
little-endian float64 tensors in manifest order, read and written as one
blob: the parameters in param_items order (ModelParams.flat), then, with
an optimizer state, Adam's two moment vectors in the same layout.
"""

import json
import math
import re
from dataclasses import dataclass, asdict, field, fields, replace
from itertools import islice, zip_longest

import numpy as np

from .geometry import (CAMERA_MODES, add_scaled_noise, draw_camera, normalize_bbox,
                       project_frames, quaternion_rotations, visible_centroid)
from .model import ModelParams, atom_rows, check_fields, random_params, width_schedule
from .training import OptimizerState

SCENE_MAGIC = "# nrsfm-scene v1"
CHECKPOINT_MAGIC = "nrsfm-checkpoint v1"
SCENE_BLOCK_ROWS = 4096    # records save_scene formats per write
_PRINTABLE = re.compile(rb"[!-~]")    # printable ASCII, never whitespace

# Scene-file sections in file order: name -> (header row, number of key
# columns).  Records are keyed by frame, or by frame and point, and each
# section holds every key of its grid exactly once.
SCENE_SECTIONS = {
    "measurements": ("frame,point,u,v,visible", 2),
    "shapes": ("frame,point,x,y,z", 2),
    "cameras": ("frame,m11,m21,m31,m12,m22,m32,scale,t1,t2", 1),
    "normalization": ("frame,cx,cy,scale", 1),
}


class SceneFormatError(ValueError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass
class Scene:
    """A dataset of 2D measurements with visibility, optional ground truth and
    optional per-frame normalization records (both or neither), each
    shape-checked and refused if it holds a NaN or an infinity (the
    measurements only at visible points)."""

    measurements: np.ndarray                 # (F, P, 2)
    visibility: np.ndarray                   # (F, P) bool
    mode: str = "orthogonal"
    gt_shapes: np.ndarray | None = None      # (F, P, 3)
    gt_rotations: np.ndarray | None = None   # (F, 3, 2)
    gt_scales: np.ndarray | None = None      # (F,)
    gt_translations: np.ndarray | None = None  # (F, 2)
    norm_centroids: np.ndarray | None = None   # (F, 2)
    norm_scales: np.ndarray | None = None      # (F,)

    def __post_init__(self):
        self.measurements = np.asarray(self.measurements, dtype=float)
        self.visibility = np.asarray(self.visibility, dtype=bool)
        if self.measurements.ndim != 3 or self.measurements.shape[2] != 2:
            raise ValueError("measurements must be (F, P, 2)")
        if self.visibility.shape != self.measurements.shape[:2]:
            raise ValueError("visibility shape must match measurements")
        F, P = self.measurements.shape[:2]
        for f, shape in zip(fields(self)[3:], [(F, P, 3), (F, 3, 2), (F,), (F, 2), (F, 2), (F,)]):
            if (a := getattr(self, f.name)) is not None:
                setattr(self, f.name, a := np.asarray(a, dtype=float))
                if a.shape != shape:
                    raise ValueError(f"{f.name} has shape {a.shape}, expected {shape}")
        if (self.norm_centroids is None) != (self.norm_scales is None):
            raise ValueError("norm_centroids and norm_scales must be given together")
        if self.norm_scales is not None and not np.all(self.norm_scales > 0):
            f = np.flatnonzero(~(self.norm_scales > 0))[0]
            raise ValueError(f"norm_scales must be positive, frame {f} has {self.norm_scales[f]}")
        for name in ("gt_scales", "gt_translations"):
            if self.gt_rotations is None and getattr(self, name) is not None:
                raise ValueError(f"{name} needs gt_rotations")
        bad = self.visibility & ~np.isfinite(self.measurements).all(axis=2)
        if bad.any():
            raise ValueError("measurements has a non-finite visible point at frame "
                             f"{np.argmax(bad.any(axis=1))}")
        for f in fields(self)[3:]:
            if (a := getattr(self, f.name)) is not None and not np.isfinite(a).all():
                bad = ~np.isfinite(a.reshape(F, -1)).all(axis=1)
                raise ValueError(f"{f.name} has a non-finite value at frame {np.argmax(bad)}")

    @property
    def frame_count(self):
        return self.measurements.shape[0]

    @property
    def point_count(self):
        return self.measurements.shape[1]

    @property
    def has_ground_truth(self):
        return self.gt_shapes is not None

    @property
    def is_normalized(self):
        return self.norm_centroids is not None

    def copy(self):
        return replace(self, **{f.name: getattr(self, f.name).copy() for f in fields(self)
                                if isinstance(getattr(self, f.name), np.ndarray)})


@dataclass
class PlantedSpec:
    """Generative recipe for a synthetic scene drawn from the hierarchical
    sparse model itself."""

    points: int = field(default=31, metadata={"min": 2})
    frames: int = field(default=200, metadata={"min": 1})
    layers: int = 2
    width_first: int = 32
    width_last: int = 8
    sparsity: int = 2
    camera_mode: str = field(default="orthogonal", metadata={"choices": CAMERA_MODES})
    noise_ratio: float = 0.0
    max_missing: int = field(default=0, metadata={"min": 0})
    seed: int = field(default=0, metadata={"min": 0})

    def __post_init__(self):
        check_fields(self)
        width_schedule(self.width_first, self.width_last, self.layers)
        if not (1 <= self.sparsity <= self.width_last):
            raise ValueError("sparsity must be in 1..width_last")
        if not 0 <= self.noise_ratio < math.inf:
            raise ValueError("noise ratio must be finite and non-negative")

    @property
    def widths(self):
        return width_schedule(self.width_first, self.width_last, self.layers)


def synth_planted(spec):
    """Sample a planted scene: non-negative sparse codes expanded through
    unit-norm hierarchical dictionaries, projected by random cameras.  The
    first-layer atoms are centered, so every shape has zero centroid.

    The random draws stay per frame in generator order (the code's support
    and values, the camera, the noise); the arithmetic on them is batched
    over the scene and gives the same bits as frame-by-frame arithmetic.

    Returns (scene with ground truth, generating ModelParams).  The codes
    are expanded linearly; soft thresholds at zero are the identity, so the
    returned params decode a planted code to its planted shape.  Raises
    ValueError if a measurement is not finite (a noise ratio that overflows).
    """
    rng = np.random.default_rng(spec.seed)
    F, P, K = spec.frames, spec.points, spec.widths[-1]
    params = random_params(rng, P, spec.widths, "soft", 3, centered=True)
    codes = np.zeros((F, K))
    quats = np.empty((F, 4))
    scales = np.ones(F)
    trans = np.zeros((F, 2))
    noise = np.empty((F, P, 2)) if spec.noise_ratio > 0 else None
    for f in range(F):
        support = rng.choice(K, size=spec.sparsity, replace=False)
        codes[f, support] = rng.uniform(0.5, 1.5, size=spec.sparsity)
        quats[f], scales[f], trans[f] = draw_camera(rng, spec.camera_mode)
        if noise is not None:
            noise[f] = rng.standard_normal((P, 2))
    phi = codes
    for D in params.dictionaries[:0:-1]:
        phi = (D @ phi[:, :, None])[:, :, 0]     # one matrix-vector product per frame
    # einsum, not BLAS: it sums over atoms in the order a per-frame expansion does
    shapes = np.einsum("fk,kj->fj", phi, atom_rows(params)).reshape(F, P, 3)
    rot = quaternion_rotations(quats)[:, :, :2]
    W = project_frames(shapes, rot, scales, trans, spec.camera_mode)
    if noise is not None:
        with np.errstate(over="ignore", invalid="ignore"):   # named below instead
            W = add_scaled_noise(W, noise, spec.noise_ratio)
    if not np.isfinite(W).all():
        raise ValueError(f"synth_planted: a measurement is not finite "
                         f"(noise ratio {spec.noise_ratio:g})")
    scene = Scene(W, np.ones((F, P), bool), spec.camera_mode,
                  gt_shapes=shapes, gt_rotations=np.ascontiguousarray(rot),
                  gt_scales=scales, gt_translations=trans)
    if spec.max_missing > 0:
        scene = make_missing(scene, spec.max_missing, rng)
    return scene, params


def make_missing(scene, max_missing, seed):
    """Hide 1..max_missing (an int) uniform points per frame (uniform count and positions).
    Only the visibility is new; the other arrays are scene's: copy before editing in place."""
    P = scene.point_count
    if type(max_missing) is not int:
        raise ValueError(f"max_missing must be of type int, got {max_missing!r}")
    if not (1 <= max_missing < P):
        raise ValueError(f"max_missing must be in 1..{P - 1}")
    rng = np.random.default_rng(seed)
    vis = np.ones((scene.frame_count, P), dtype=bool)
    for f in range(scene.frame_count):
        m = int(rng.integers(1, max_missing + 1))
        hidden = rng.choice(P, size=m, replace=False)
        vis[f, hidden] = False
    return replace(scene, visibility=vis)


def normalize_scene(scene, mode="bbox"):
    """Per-frame input normalization, recorded for later de-normalization.  The
    other arrays are scene's: copy the result (Scene.copy) before editing in place.

    bbox: unit bounding box (centroid of visible points to 0, larger side 1)
    center: visible-centroid shift only
    none: scene itself (its records, if any, kept)
    """
    W, vis = scene.measurements, scene.visibility
    if mode == "bbox":
        W, (centroids, scales) = normalize_bbox(W, vis)
    elif mode == "center":
        centroids, scales = visible_centroid(W, vis), np.ones(scene.frame_count)
        W = np.where(vis[..., None], W - centroids[:, None], 0.0)
    elif mode == "none":
        return scene
    else:
        raise ValueError(f"unknown normalization mode {mode!r}")
    return replace(scene, measurements=W, norm_centroids=centroids, norm_scales=scales)


# ---------------------------------------------------------------------------
# scene IO

def save_scene(scene, path):
    """Write a scene file: [measurements], then each other section the scene has data for.
    Keys and the visible flag print with %d from integers, other values with %.17g."""
    F, P = scene.frame_count, scene.point_count
    # each section's value columns in key order: float64 tables, the visible flag as integers
    sections = {"measurements": [scene.measurements.reshape(F * P, 2),
                                 scene.visibility.reshape(F * P, 1).astype(np.uint8)]}
    if scene.gt_shapes is not None:
        sections["shapes"] = [scene.gt_shapes.reshape(F * P, 3)]
    if scene.gt_rotations is not None:
        scales = scene.gt_scales if scene.gt_scales is not None else np.ones(F)
        trans = scene.gt_translations if scene.gt_translations is not None else np.zeros((F, 2))
        sections["cameras"] = [np.column_stack(
            [scene.gt_rotations.transpose(0, 2, 1).reshape(F, 6), scales, trans])]
    if scene.norm_centroids is not None:
        sections["normalization"] = [np.column_stack([scene.norm_centroids, scene.norm_scales])]
    with open(path, "w") as fh:
        fh.write(f"{SCENE_MAGIC}\n# mode={scene.mode}\n# frames={F} points={P}\n")
        for name, tables in sections.items():
            header, n_keys = SCENE_SECTIONS[name]
            row = ",".join(["%d"] * n_keys + ["%.17g" if t.dtype == float else "%d"
                                              for t in tables for _ in range(t.shape[1])]) + "\n"
            fh.write(f"[{name}]\n{header}\n")
            for i in range(0, len(tables[0]), SCENE_BLOCK_ROWS):
                rows = np.arange(i, min(i + SCENE_BLOCK_ROWS, len(tables[0])))
                keys = np.transpose(np.unravel_index(rows, (F, P)[:n_keys]))
                block = np.concatenate([keys, *(t[rows] for t in tables)], axis=1, dtype=object)
                fh.write(row * len(rows) % tuple(block.ravel().tolist()))


def _scene_layout(path):
    """Scan a scene file's bytes once, with text mode's newlines: its '#' header fields and,
    per section, (line number, header row, whether it has no record, lines after the row)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        if not data.isascii():
            data.decode()
    except UnicodeDecodeError as exc:
        raise SceneFormatError(f"{path}: not a text scene file ({exc})") from None
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data
    matches = list(re.finditer(rb"\n\[(.*)\]\n", data))
    lines = data[:matches[0].start() if matches else len(data)].decode().split("\n")
    if lines[0] != SCENE_MAGIC:
        raise SceneFormatError(f"{path}: not a scene file (missing magic header)")
    header = {}
    for i, line in enumerate(lines[1:], start=2):
        if line.strip() and not line.startswith("#"):
            raise SceneFormatError(f"{path}:{i}: data outside any section")
        header.update(tok.split("=", 1) for tok in line[1:].split() if "=" in tok)
    sections, line_no = {}, len(lines) + 1   # the line number of the first [section] line
    for m, end in zip(matches, [m.start() for m in matches[1:]] + [len(data)]):
        name = m[1].decode()
        if name not in SCENE_SECTIONS:
            raise SceneFormatError(f"{path}:{line_no}: unknown section [{name}]")
        if name in sections:
            raise SceneFormatError(f"{path}:{line_no}: repeated section [{name}]")
        row_end = data.find(b"\n", m.end(), end) % (end + 1)    # end if no newline
        n_lines = data.count(b"\n", m.end(), end)
        empty = not (_PRINTABLE.search(data, row_end, end) or data[row_end:end].decode().strip())
        sections[name] = (line_no, data[m.end():row_end].decode(), empty, n_lines)
        line_no += n_lines + 2
    return header, sections


def read_scene_sections(path, names):
    """(mode, (F, P), {name: value columns}) of a scene file: for each section in names that
    it holds, the records' non-key columns as float64 rows sorted by their unique in-range
    integer key.  In file order, every section's structure is checked; records only if read."""
    header, sections = _scene_layout(path)
    try:
        F, P = int(header["frames"]), int(header["points"])
    except KeyError as exc:
        raise SceneFormatError(f"{path}: missing header field {exc}") from None
    except ValueError as exc:
        raise SceneFormatError(f"{path}: bad header field ({exc})") from None
    if F < 1 or P < 1:
        raise SceneFormatError(f"{path}: frames and points must be positive")
    mode = header.get("mode", "orthogonal")
    if mode not in CAMERA_MODES:
        raise SceneFormatError(f"{path}: unknown mode {mode!r}")
    if "measurements" not in sections:
        raise SceneFormatError(f"{path}: missing [measurements] section")
    arrays, consumed = {}, 0    # lines of fh read so far
    with open(path, encoding="utf-8") as fh:
        for name, (line_no, row, empty, n_lines) in sections.items():
            header_row, n_keys = SCENE_SECTIONS[name]
            if row != header_row:
                raise SceneFormatError(f"{path}:{line_no + 1}: section [{name}] has header row "
                                       f"{row!r}, expected {header_row!r}")
            if empty:
                raise SceneFormatError(f"{path}: empty section [{name}]")
            if name not in names:
                continue
            skip, consumed = line_no + 1 - consumed, line_no + 1 + n_lines
            try:
                arr = np.loadtxt(islice(fh, skip, skip + n_lines), delimiter=",",
                                 comments=None, ndmin=2)
            except ValueError as exc:
                raise SceneFormatError(f"{path}: [{name}] starting at line "
                                       f"{line_no + 2}: bad record ({exc})") from None
            grid = (F, P)[:n_keys]
            expected_rows = int(np.prod(grid))
            want = (expected_rows, header_row.count(",") + 1)
            if arr.shape != want:
                raise SceneFormatError(f"{path}: section [{name}] has {arr.shape[0]} records "
                                       f"of {arr.shape[1]} fields, expected {want[0]} of {want[1]}")
            keys = arr[:, :n_keys]
            if not np.all((keys >= 0) & (keys < grid) & (keys == np.floor(keys))):
                raise SceneFormatError(f"{path}: section [{name}] has an index outside the grid")
            if name != "measurements" and not np.isfinite(arr).all():
                raise SceneFormatError(f"{path}: section [{name}] has a non-finite value")
            order = np.full(expected_rows, -1)
            order[np.ravel_multi_index(keys.astype(np.int64).T, grid)] = np.arange(expected_rows)
            if np.any(order < 0):
                raise SceneFormatError(f"{path}: section [{name}] repeats a record")
            values = arrays[name] = arr[order, n_keys:]
            del arr, keys, order    # the raw parse goes before the checks below and the next one
            if name == "measurements" and not np.all((values[:, 2] == 0) | (values[:, 2] == 1)):
                raise SceneFormatError(f"{path}: [measurements] visible must be 0 or 1")
            if name == "measurements" and not np.isfinite(values[values[:, 2] == 1, :2]).all():
                raise SceneFormatError(f"{path}: [measurements] has a non-finite visible point")
    return mode, (F, P), arrays


def load_scene(path, sections=SCENE_SECTIONS):
    """The Scene of a scene file, from [measurements] and those of its other sections that
    are in sections (all by default); see read_scene_sections for what is checked."""
    mode, (F, P), arrays = read_scene_sections(path, {"measurements", *sections})
    m, S = arrays["measurements"], arrays.get("shapes")
    c, n = arrays.get("cameras"), arrays.get("normalization")
    return Scene(m[:, :2].reshape(F, P, 2), m[:, 2].reshape(F, P).astype(bool), mode,
                 None if S is None else S.reshape(F, P, 3),
                 None if c is None else np.ascontiguousarray(
                     c[:, :6].reshape(F, 2, 3).transpose(0, 2, 1)),
                 None if c is None else c[:, 6].copy(), None if c is None else c[:, 7:9].copy(),
                 None if n is None else n[:, :2].copy(), None if n is None else n[:, 2].copy())


# ---------------------------------------------------------------------------
# checkpoint IO

def _tensor_entries(params, prefixes):
    return [{"name": prefix + n, "shape": list(a.shape)}
            for prefix in prefixes for n, a in params.param_items()]


def save_checkpoint(path, params, config=None, opt_state=None, step=0,
                    skipped=0):
    """Write params (+ optional training config / optimizer state) to a
    binary checkpoint.  Everything is float64 little-endian."""
    blobs = [params.flat] + ([] if opt_state is None else [opt_state.moment1, opt_state.moment2])
    manifest = {
        "version": 1,
        "activation": params.activation,
        "block_rows": params.block_rows,
        "step": int(step),
        "skipped": int(skipped),
        "config": None if config is None else asdict(config),
        "opt_step": None if opt_state is None else int(opt_state.step),
        "tensors": _tensor_entries(params, ("", "adam_m/", "adam_v/")[:len(blobs)]),
    }
    with open(path, "wb") as fh:
        fh.write((CHECKPOINT_MAGIC + "\n").encode())
        fh.write((json.dumps(manifest) + "\n").encode())
        fh.write(np.concatenate(blobs, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint.  Returns (params, config_dict_or_None,
    opt_state_or_None, step, skipped)."""
    with open(path, "rb") as fh:
        magic = fh.readline().decode(errors="replace").rstrip("\n")
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(
                f"{path}: unsupported checkpoint format/version "
                f"(got {magic!r}, expected {CHECKPOINT_MAGIC!r})")
        line, body = fh.readline(), fh.read()
    try:
        manifest = json.loads(line)
        shapes = [(e["name"], e["shape"]) for e in manifest["tensors"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed manifest ({exc!r})") from None
    for key in ("step", "skipped", "opt_step"):
        value = manifest.get(key, 0)
        if not (type(value) is int and value >= 0 or key == "opt_step" and value is None):
            raise CheckpointError(f"{path}: {key} is {value!r}, expected a non-negative integer")
    if not isinstance(manifest.get("config"), (dict, type(None))):
        raise CheckpointError(f"{path}: config is {manifest['config']!r}, "
                              "expected a JSON object or null")
    for name, shape in shapes:
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(type(n) is int and n >= 0 for n in shape)):
            raise CheckpointError(f"{path}: tensor {name!r} has shape {shape!r}, expected "
                                  "a name and a list of non-negative integers")
    sizes = [math.prod(shape) for _, shape in shapes]
    if len(body) != 8 * sum(sizes):
        raise CheckpointError(f"{path}: the manifest's tensors take {8 * sum(sizes)} bytes, "
                              f"the body has {len(body)} (truncated, or trailing bytes)")
    arrays = np.split(np.frombuffer(body, dtype="<f8"), np.cumsum(sizes)[:-1])
    tensors = {name: a.reshape(shape) for (name, shape), a in zip(shapes, arrays)}
    for name, a in tensors.items():
        if not np.isfinite(a).all():
            raise CheckpointError(f"{path}: tensor {name} has a non-finite value")
    try:
        n_layers = sum(name.startswith("dict") for name in tensors)
        params = ModelParams(
            [tensors[f"dict{i}"] for i in range(1, n_layers + 1)],
            [tensors[f"enc_b{i}"] for i in range(1, n_layers + 1)],
            [tensors[f"dec_b{i}"] for i in range(2, n_layers + 1)],
            tensors["beta"], tensors["gamma"],
            manifest["activation"], manifest["block_rows"])
    except KeyError as exc:
        raise CheckpointError(f"{path}: checkpoint lacks {exc}") from None
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    opt_step = manifest.get("opt_step")
    want = _tensor_entries(params, ("", "adam_m/", "adam_v/")[:1 if opt_step is None else 3])
    if manifest["tensors"] != want:
        k, have, need = next((k, h, w) for k, (h, w) in
                             enumerate(zip_longest(manifest["tensors"], want)) if h != w)
        raise CheckpointError(f"{path}: tensor entry {k} is {have}, expected {need}")
    opt_state = None
    if opt_step is not None:
        moments = np.frombuffer(body, dtype="<f8")[-2 * params.flat.size:].reshape(2, -1)
        opt_state = OptimizerState(*moments.copy(), opt_step)
    return (params, manifest.get("config"), opt_state,
            manifest.get("step", 0), manifest.get("skipped", 0))
