import hashlib
import itertools
import json
import os
import re
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import nrsfm.data
from nrsfm.data import (CheckpointError, PlantedSpec, Scene, SceneFormatError,
                        load_checkpoint, load_scene, make_missing,
                        normalize_scene, read_scene_sections, save_checkpoint,
                        save_scene, synth_planted)
from nrsfm.geometry import draw_camera, quaternion_rotations, random_camera
from nrsfm.model import decode, random_params
from nrsfm.training import OptimizerState, TrainConfig, init_params, train

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "sample_scene.txt")


def test_planted_scene_is_exactly_consistent():
    spec = PlantedSpec(points=12, frames=30, layers=2, width_first=10,
                       width_last=4, sparsity=2, seed=1)
    scene, _ = synth_planted(spec)
    for f in range(30):
        W = scene.measurements[f]
        S = scene.gt_shapes[f]
        M = scene.gt_rotations[f]
        assert np.max(np.abs(W - S @ M)) < 1e-12


def test_planted_shapes_centered():
    scene, _ = synth_planted(PlantedSpec(points=9, frames=5, seed=2,
                                         width_first=8, width_last=4))
    assert np.max(np.abs(scene.gt_shapes.mean(axis=1))) < 1e-12


def test_planted_single_layer_sparsity_one_shapes_are_atoms():
    # with one layer and 1-sparse codes every shape is a scaled atom
    spec = PlantedSpec(points=7, frames=20, layers=1, width_first=5,
                       width_last=5, sparsity=1, seed=3)
    scene, params = synth_planted(spec)
    atoms = params.dictionaries[0].reshape(7, 5, 3)
    for f in range(20):
        S = scene.gt_shapes[f]
        dists = []
        for k in range(5):
            A = atoms[:, k, :]
            c = np.sum(A * S) / np.sum(A * A)
            dists.append(np.linalg.norm(S - c * A))
        assert min(dists) < 1e-10


def test_planted_shapes_match_straight_line_expansion():
    # rebuild each shape from the planted dictionaries and a sparse code
    # recovered by exhaustive support search
    spec = PlantedSpec(points=10, frames=15, layers=2, width_first=8,
                       width_last=4, sparsity=2, seed=4)
    scene, params = synth_planted(spec)
    D1 = params.dictionaries[0].reshape(10, 8, 3)
    D2 = params.dictionaries[1]
    basis = np.stack([np.einsum("pkc,k->pc", D1, D2[:, j]) for j in range(4)])
    flat = basis.reshape(4, -1).T
    for f in range(15):
        target = scene.gt_shapes[f].ravel()
        best = np.inf
        for supp in itertools.combinations(range(4), 2):
            sub = flat[:, list(supp)]
            z, *_ = np.linalg.lstsq(sub, target, rcond=None)
            best = min(best, np.linalg.norm(target - sub @ z))
        assert best < 1e-10


def test_planted_params_decode_planted_codes():
    # the returned params generate the scene: decoding a 1-sparse code gives
    # the straight-line expansion of its atom through the dictionaries
    for layers in (2, 3):
        _, params = synth_planted(PlantedSpec(points=31, frames=1, layers=layers,
                                              width_first=32, width_last=8, seed=7))
        D1 = params.dictionaries[0].reshape(31, 32, 3)
        for k in range(8):
            phi = np.eye(8)[k]
            for D in params.dictionaries[:0:-1]:
                phi = D @ phi
            expanded = np.einsum("pkc,k->pc", D1, phi)
            assert np.max(np.abs(decode(np.eye(8)[k], params) - expanded)) < 1e-12


def test_planted_determinism():
    spec = PlantedSpec(points=6, frames=8, seed=5, width_first=6, width_last=3)
    s1, p1 = synth_planted(spec)
    s2, p2 = synth_planted(spec)
    assert np.array_equal(s1.measurements, s2.measurements)
    assert np.array_equal(p1.dictionaries[0], p2.dictionaries[0])


def test_planted_noise_ratio_exact_per_frame():
    noisy, _ = synth_planted(PlantedSpec(points=8, frames=6, seed=6,
                                         width_first=6, width_last=3,
                                         noise_ratio=0.15))
    for f in range(6):
        clean = noisy.gt_shapes[f] @ noisy.gt_rotations[f]
        num = np.linalg.norm(noisy.measurements[f] - clean)
        den = np.linalg.norm(clean)
        assert np.isclose(num / den, 0.15, atol=1e-12)


def _rotation_per_frame(q):
    """A quaternion's rotation matrix as one frame's own arithmetic."""
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _synth_planted_per_frame(spec):
    """synth_planted as one loop that draws and computes each frame in turn:
    the oracle that the batched version must match bit for bit."""
    rng = np.random.default_rng(spec.seed)
    F, P, K = spec.frames, spec.points, spec.widths[-1]
    params = random_params(rng, P, spec.widths, "soft", 3, centered=True)
    dicts = params.dictionaries
    W = np.empty((F, P, 2))
    shapes = np.empty((F, P, 3))
    rot = np.empty((F, 3, 2))
    scales = np.ones(F)
    trans = np.zeros((F, 2))
    for f in range(F):
        psi = np.zeros(K)
        support = rng.choice(K, size=spec.sparsity, replace=False)
        psi[support] = rng.uniform(0.5, 1.5, size=spec.sparsity)
        phi = psi
        for d in range(spec.layers - 1, 0, -1):
            phi = dicts[d] @ phi
        S = np.einsum("pkc,k->pc", dicts[0].reshape(P, spec.widths[0], 3), phi)
        M = _rotation_per_frame(rng.standard_normal(4))[:, :2]
        shapes[f], rot[f] = S, M
        if spec.camera_mode == "orthogonal":
            W[f] = S @ M
        else:
            scale, t = rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5, size=2)
            scales[f], trans[f] = scale, t
            W[f] = scale * (S @ M) + t[None, :]
        if spec.noise_ratio > 0:
            noise = rng.standard_normal((P, 2))
            noise *= spec.noise_ratio * np.linalg.norm(W[f]) / np.linalg.norm(noise)
            W[f] = W[f] + noise
    scene = Scene(W, np.ones((F, P), bool), spec.camera_mode, gt_shapes=shapes,
                  gt_rotations=rot, gt_scales=scales, gt_translations=trans)
    if spec.max_missing > 0:
        scene = make_missing(scene, spec.max_missing, rng)
    return scene, params


@pytest.mark.parametrize("layers, mode, noisy", [
    *itertools.product((1, 2, 3, 4), ("orthogonal", "weak_perspective"), (False, True)),
    ("bench", "orthogonal", False), ("bench", "weak_perspective", True)])
def test_synth_planted_matches_per_frame_oracle(layers, mode, noisy):
    """Batched arithmetic on per-frame draws gives the per-frame loop's
    bits, in every Scene array and the params; "bench" is the benchmark's
    P=31, F=2000 scene."""
    shape = (dict(points=31, frames=2000, layers=2, width_first=32, width_last=8)
             if layers == "bench" else
             dict(points=13, frames=150, layers=layers, width_first=12,
                  width_last=12 if layers == 1 else 5, sparsity=3))
    extra = dict(noise_ratio=0.1, max_missing=3) if noisy else {}
    for seed in (0, 5):
        spec = PlantedSpec(camera_mode=mode, seed=seed, **shape, **extra)
        (scene, params), (want, want_params) = synth_planted(spec), _synth_planted_per_frame(spec)
        for f in fields(Scene):
            a, b = getattr(scene, f.name), getattr(want, f.name)
            assert (np.array_equal(a, b) and a.dtype == b.dtype if isinstance(b, np.ndarray)
                    else a == b), f.name
        assert np.array_equal(params.flat, want_params.flat)


def test_random_camera_matches_stacked_builder():
    """random_camera(seed) is the stacked builder applied to its draws, and
    each rotation of a stack has one frame's own bits."""
    for mode in ("orthogonal", "weak_perspective"):
        draws = [draw_camera(np.random.default_rng(seed), mode) for seed in range(20)]
        R = quaternion_rotations(np.array([q for q, _, _ in draws]))
        for seed, (q, scale, t) in enumerate(draws):
            cam = random_camera(seed, mode)
            assert np.array_equal(R[seed], _rotation_per_frame(q))
            assert np.array_equal(cam.rotation, R[seed, :, :2])
            assert cam.scale == scale and np.array_equal(cam.translation, t)


def test_planted_spec_validation():
    for bad, match in ((dict(points=1), "^points must be >= 2$"),
                       (dict(layers=0), "layer"),
                       (dict(width_first=4, width_last=8), "widths"),
                       (dict(width_first=4, width_last=0), "widths"),
                       (dict(noise_ratio=-1.0), "non-negative"),
                       (dict(noise_ratio=float("nan")), "non-negative"),
                       (dict(noise_ratio=float("inf")), "finite"),
                       (dict(max_missing=-1), "^max missing must be >= 0$"),
                       (dict(seed=-3), "seed"),
                       (dict(sparsity=0), "^sparsity must be in 1..width_last$"),
                       (dict(width_last=4, sparsity=5), "^sparsity must be in 1..width_last$"),
                       (dict(camera_mode="perspective"), "^unknown camera mode 'perspective'$")):
        with pytest.raises(ValueError, match=match):
            PlantedSpec(**bad)


def test_make_missing_counts_and_coordinates():
    scene, _ = synth_planted(PlantedSpec(points=10, frames=50, seed=7,
                                         width_first=6, width_last=3))
    out = make_missing(scene, 3, seed=1)
    hidden = (~out.visibility).sum(axis=1)
    assert np.all((hidden >= 1) & (hidden <= 3))
    # coordinates retained: restoring the mask recovers the scene
    assert np.array_equal(out.measurements, scene.measurements)


def test_make_missing_rejects_bad_max():
    scene, _ = synth_planted(PlantedSpec(points=5, frames=2, seed=8,
                                         width_first=4, width_last=2))
    with pytest.raises(ValueError):
        make_missing(scene, 0, seed=0)
    with pytest.raises(ValueError):
        make_missing(scene, 5, seed=0)


@pytest.mark.parametrize("bad", [1.5, True, np.int64(2), "2"])
def test_make_missing_refuses_a_max_that_is_not_an_int(bad):
    """A float, a bool or a numpy integer would hide 1..int(max) points."""
    scene, _ = synth_planted(PlantedSpec(points=5, frames=2, seed=8,
                                         width_first=4, width_last=2))
    with pytest.raises(ValueError) as info:
        make_missing(scene, bad, seed=0)
    assert str(info.value) == f"max_missing must be of type int, got {bad!r}"


def test_make_missing_count_distribution_uniform():
    scene, _ = synth_planted(PlantedSpec(points=31, frames=10000, seed=9,
                                         width_first=6, width_last=3))
    out = make_missing(scene, 4, seed=2)
    hidden = (~out.visibility).sum(axis=1)
    counts = np.bincount(hidden, minlength=5)[1:]
    # multinomial 3-sigma bounds around 2500 each
    sigma = np.sqrt(10000 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 2500) < 3 * sigma)


def test_scene_roundtrip_bit_exact(tmp_path):
    scene, _ = synth_planted(PlantedSpec(points=7, frames=5, seed=10,
                                         width_first=6, width_last=3,
                                         camera_mode="weak_perspective",
                                         max_missing=2))
    scene = normalize_scene(scene, "bbox")
    path = tmp_path / "scene.txt"
    save_scene(scene, path)
    back = load_scene(path)
    assert np.array_equal(back.measurements, scene.measurements)
    assert np.array_equal(back.visibility, scene.visibility)
    assert np.array_equal(back.gt_shapes, scene.gt_shapes)
    assert np.array_equal(back.gt_rotations, scene.gt_rotations)
    assert np.array_equal(back.gt_scales, scene.gt_scales)
    assert np.array_equal(back.gt_translations, scene.gt_translations)
    assert np.array_equal(back.norm_centroids, scene.norm_centroids)
    assert np.array_equal(back.norm_scales, scene.norm_scales)
    assert back.mode == scene.mode


def test_scene_roundtrip_minimal(tmp_path):
    scene = Scene(np.zeros((2, 3, 2)), np.ones((2, 3), bool), "orthogonal")
    path = tmp_path / "scene.txt"
    save_scene(scene, path)
    back = load_scene(path)
    assert back.gt_shapes is None
    assert back.frame_count == 2


def test_scene_load_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a scene\n")
    with pytest.raises(SceneFormatError):
        load_scene(path)
    path.write_bytes(b"# nrsfm-scene v1\n\xff\xfe\x00binary\n")
    with pytest.raises(SceneFormatError, match="bad.txt"):
        load_scene(path)
    scene, _ = synth_planted(PlantedSpec(points=4, frames=2, seed=11,
                                         width_first=4, width_last=2))
    good = tmp_path / "good.txt"
    save_scene(scene, good)
    text = good.read_text().splitlines()
    # truncate the measurements section
    (tmp_path / "trunc.txt").write_text("\n".join(text[:-2]) + "\n")
    with pytest.raises(SceneFormatError):
        load_scene(tmp_path / "trunc.txt")
    # corrupt one record
    text[6] = text[6].replace(",", ",x", 1)
    (tmp_path / "corrupt.txt").write_text("\n".join(text) + "\n")
    with pytest.raises(SceneFormatError):
        load_scene(tmp_path / "corrupt.txt")

    def edited(name, section, row, field, value):
        """The good file with one field of one record replaced."""
        lines = good.read_text().splitlines()
        i = lines.index(f"[{section}]") + 2 + row
        parts = lines[i].split(",")
        parts[field] = value
        lines[i] = ",".join(parts)
        (tmp_path / name).write_text("\n".join(lines) + "\n")
        return tmp_path / name

    assert load_scene(edited("same.txt", "measurements", 1, 1, "1")).frame_count == 2
    (tmp_path / "empty.txt").write_text(
        "# nrsfm-scene v1\n# frames=0 points=4\n[measurements]\nframe,point,u,v,visible\n")
    with pytest.raises(SceneFormatError, match="positive"):
        load_scene(tmp_path / "empty.txt")
    # a duplicated (frame, point) record in place of a missing one
    for section in ("measurements", "shapes"):
        with pytest.raises(SceneFormatError, match="repeats"):
            load_scene(edited("dup.txt", section, 1, 1, "0"))
    with pytest.raises(SceneFormatError, match="repeats"):
        load_scene(edited("dupcam.txt", "cameras", 1, 0, "0"))
    # indices outside the frames x points grid, or not integers
    for field, value in ((0, "2"), (1, "4"), (1, "-1"), (1, "0.5"), (0, "nan")):
        with pytest.raises(SceneFormatError, match="outside"):
            load_scene(edited("grid.txt", "measurements", 1, field, value))
    with pytest.raises(SceneFormatError, match="outside"):
        load_scene(edited("gridcam.txt", "cameras", 1, 0, "5"))
    # non-finite coordinates on a visible point; hidden points may hold any
    for value in ("nan", "inf"):
        with pytest.raises(SceneFormatError, match="non-finite"):
            load_scene(edited("nan.txt", "measurements", 3, 2, value))
    lines = good.read_text().splitlines()
    i = lines.index("[measurements]") + 2 + 3
    lines[i] = ",".join(lines[i].split(",")[:2] + ["nan", "nan", "0"])
    (tmp_path / "hidden.txt").write_text("\n".join(lines) + "\n")
    assert not load_scene(tmp_path / "hidden.txt").visibility[0, 3]
    # a NaN or an infinity in an optional section
    for section, row, field in (("shapes", 2, 3), ("cameras", 1, 4), ("cameras", 0, 8)):
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(SceneFormatError,
                               match=f"nonfinite.txt: section \\[{section}\\] has a non-finite"):
                load_scene(edited("nonfinite.txt", section, row, field, value))
    # visible flags other than 0 and 1
    for value in ("2", "0.5", "-1"):
        with pytest.raises(SceneFormatError, match="visible"):
            load_scene(edited("flag.txt", "measurements", 0, 4, value))
    # the file structure: sections, header rows and the camera mode, with
    # the line each message names (the file has 27 lines: the preamble, then
    # [measurements] at line 4, [shapes] at 14 and [cameras] at 24)
    body = good.read_text()
    shapes = body[body.index("[shapes]"):body.index("[cameras]")]
    for text, match in ((body + shapes, r"structure.txt:28: repeated section \[shapes\]"),
                        (body.replace("[shapes]", "[shape]"),
                         r"structure.txt:14: unknown section \[shape\]"),
                        (body.replace("frame,point,u,v,visible", "frame,point,v,u,visible"),
                         r"structure.txt:5: section \[measurements\] has header row"),
                        (body.replace("mode=orthogonal", "mode=perspectiv"), "unknown mode")):
        (tmp_path / "structure.txt").write_text(text)
        with pytest.raises(SceneFormatError, match=match):
            load_scene(tmp_path / "structure.txt")
    # '#' lines only before the first section, records only inside one, no
    # section without records, and integer header counts
    first = body.index("0,0,")
    record = body[first:body.index("\n", first) + 1]
    shapes_header = "[shapes]\nframe,point,x,y,z\n"
    for text, match in ((body.replace("[measurements]", record + "[measurements]"),
                         "structure.txt:4: data outside any section"),
                        (body.replace(record, record + "# a comment\n", 1),
                         r"structure.txt: \[measurements\] starting at line 6: bad record"),
                        (body.replace(shapes, shapes_header), "empty section"),
                        (body + "[normalization]\nframe,cx,cy,scale\n", "empty section"),
                        (body.replace("frames=2", "frames=2x0"), "bad header field"),
                        (body.replace("frames=2 ", ""),
                         "structure.txt: missing header field 'frames'"),
                        (body[:body.index("[measurements]")] + shapes,
                         r"structure.txt: missing \[measurements\] section"),
                        (body.replace(record, "", 1), r"structure.txt: section \[measurements\] "
                         "has 7 records of 5 fields, expected 8 of 5")):
        (tmp_path / "structure.txt").write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SceneFormatError, match=match):
                load_scene(tmp_path / "structure.txt")


def test_shipped_sample_scene_loads():
    scene = load_scene(FIXTURE)
    assert scene.frame_count == 4
    assert scene.point_count == 31
    assert scene.has_ground_truth


def test_sample_scene_loads_with_crlf_and_a_non_ascii_comment(tmp_path):
    """CRLF line endings and a valid non-ASCII UTF-8 '#' comment load to the
    same arrays as the shipped file."""
    scene = load_scene(FIXTURE)
    with open(FIXTURE, "rb") as fh:
        data = fh.read()
    variants = {"crlf.txt": data.replace(b"\n", b"\r\n"),
                "utf8.txt": data.replace(b"\n", "\n# note=café\n".encode(), 1)}
    for name, content in variants.items():
        (tmp_path / name).write_bytes(content)
        back = load_scene(tmp_path / name)
        for f in fields(Scene):
            want, have = getattr(scene, f.name), getattr(back, f.name)
            assert np.array_equal(have, want) if isinstance(want, np.ndarray) else have == want


def test_hand_ordered_sections_read_like_the_canonical_file(tmp_path):
    """A file with its sections in another order than save_scene's reads to
    the same arrays for every subset of section names, and to the same
    Scene."""
    spec = PlantedSpec(points=5, frames=4, width_first=4, width_last=2,
                       camera_mode="weak_perspective", max_missing=2, seed=12)
    canonical, reordered = tmp_path / "canonical.txt", tmp_path / "reordered.txt"
    save_scene(normalize_scene(synth_planted(spec)[0], "bbox"), canonical)
    preamble, *parts = re.split(r"(?m)^(?=\[)", canonical.read_text())
    blocks = {part[1:part.index("]")]: part for part in parts}
    order = ("cameras", "normalization", "shapes", "measurements")
    assert sorted(blocks) == sorted(order)
    reordered.write_text(preamble + "".join(blocks[name] for name in order))
    for k in range(len(order) + 1):
        for names in itertools.combinations(order, k):
            want, have = (read_scene_sections(path, names) for path in (canonical, reordered))
            assert have[:2] == want[:2] and sorted(have[2]) == sorted(want[2]) == sorted(names)
            for name in names:
                assert np.array_equal(have[2][name], want[2][name])
    want, have = load_scene(canonical), load_scene(reordered)
    for f in fields(Scene):
        a, b = getattr(want, f.name), getattr(have, f.name)
        assert np.array_equal(b, a) if isinstance(a, np.ndarray) else b == a


@pytest.mark.parametrize("io,bound_mib", [("load", 2.05), ("save", 1.75), ("shapes", 1.32),
                                          ("parse", 1.70)])
def test_scene_io_peak_memory(tmp_path, monkeypatch, io, bound_mib):
    """The reader holds one copy of the file's bytes while it finds the
    sections, then streams the records of each section it reads into
    loadtxt; the writer formats a block of records at a time.  For a
    normalized weak-perspective scene of P=31 points and F=500 frames with
    missing points (all four sections, a 1.85 MiB file) the traced peaks are
    1.86 MiB (load) and 1.27 MiB (save); reading the whole text and
    splitting it into lines peaked at 5.26 MiB, and formatting from
    per-column Python lists at 2.55 MiB.  The scan's copy is the peak of
    any read, so the [shapes] and parse cases are measured from the end of
    the scan: reading [shapes] alone peaks there at 1.20 MiB, and its bound
    fails if [measurements] is parsed too; the full load (parse) peaks at
    1.56 MiB, and at 1.83 MiB if a section's parse is still held while the
    next section is parsed."""
    spec = PlantedSpec(points=31, frames=500, camera_mode="weak_perspective", max_missing=3,
                       seed=3)
    scene = normalize_scene(synth_planted(spec)[0], "bbox")
    path = tmp_path / "scene.txt"
    save_scene(scene, path)
    scan = nrsfm.data._scene_layout

    def scan_then_reset_peak(path):
        layout = scan(path)
        tracemalloc.reset_peak()
        return layout

    if io in ("shapes", "parse"):
        monkeypatch.setattr(nrsfm.data, "_scene_layout", scan_then_reset_peak)
    run = {"load": lambda: load_scene(path), "save": lambda: save_scene(scene, path),
           "shapes": lambda: read_scene_sections(path, ("shapes",)),
           "parse": lambda: load_scene(path)}[io]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20


def test_resaving_sample_scene_reproduces_its_bytes(tmp_path):
    save_scene(load_scene(FIXTURE), tmp_path / "again.txt")
    with open(FIXTURE, "rb") as fh:
        assert (tmp_path / "again.txt").read_bytes() == fh.read()


def test_normalized_scene_resaves_byte_for_byte(tmp_path):
    scene, _ = synth_planted(PlantedSpec(points=7, frames=5, seed=10,
                                         width_first=6, width_last=3,
                                         camera_mode="weak_perspective",
                                         max_missing=2))
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    save_scene(normalize_scene(scene, "bbox"), first)
    save_scene(load_scene(first), second)
    assert "[normalization]" in first.read_text()
    assert second.read_bytes() == first.read_bytes()


def test_normalize_scene_matches_per_frame_loop():
    scene, _ = synth_planted(PlantedSpec(points=9, frames=40, seed=15,
                                         width_first=6, width_last=3,
                                         camera_mode="weak_perspective",
                                         max_missing=4))
    nb, nc = normalize_scene(scene, "bbox"), normalize_scene(scene, "center")
    for f in range(40):
        W, m = scene.measurements[f], scene.visibility[f]
        c = W[m].mean(axis=0)
        s = (W[m].max(axis=0) - W[m].min(axis=0)).max()
        assert np.array_equal(nb.measurements[f], np.where(m[:, None], (W - c) / s, 0.0))
        assert np.array_equal(nb.norm_centroids[f], c) and nb.norm_scales[f] == s
        assert np.array_equal(nc.measurements[f], np.where(m[:, None], W - c, 0.0))
        assert np.array_equal(nc.norm_centroids[f], c) and nc.norm_scales[f] == 1.0


def test_normalize_scene_bbox_and_center():
    scene, _ = synth_planted(PlantedSpec(points=8, frames=3, seed=12,
                                         width_first=6, width_last=3))
    nb = normalize_scene(scene, "bbox")
    for f in range(3):
        Wn = nb.measurements[f]
        assert np.isclose((Wn.max(axis=0) - Wn.min(axis=0)).max(), 1.0)
    nc = normalize_scene(scene, "center")
    for f in range(3):
        assert np.allclose(nc.measurements[f].mean(axis=0), 0, atol=1e-12)
        assert nc.norm_scales[f] == 1.0
    nn = normalize_scene(scene, "none")
    assert nn.norm_scales is None
    with pytest.raises(ValueError):
        normalize_scene(scene, "weird")


def test_normalize_scene_rejects_frame_without_visible_points():
    scene, _ = synth_planted(PlantedSpec(points=6, frames=8, seed=3,
                                         width_first=6, width_last=3))
    scene.visibility[2] = False
    for mode in ("center", "bbox"):
        with pytest.raises(ValueError, match="at frame 2"):
            normalize_scene(scene, mode)


_DERIVED = {"bbox": ("measurements", "norm_centroids", "norm_scales"),
            "center": ("measurements", "norm_centroids", "norm_scales"),
            "none": (), "missing": ("visibility",)}


@pytest.mark.parametrize("transform", list(_DERIVED))
def test_derived_scene_shares_the_arrays_it_keeps(transform):
    """normalize_scene and make_missing leave their input as it was and
    return a scene that holds new arrays only for the fields they change;
    every other array is the input's own.  normalize_scene(s, "none") is s."""
    spec = PlantedSpec(points=7, frames=12, width_first=6, width_last=3,
                       camera_mode="weak_perspective", max_missing=2, seed=4)
    scene = normalize_scene(synth_planted(spec)[0], "bbox")     # with records to keep or replace
    before = scene.copy()
    out = (make_missing(scene, 3, seed=5) if transform == "missing"
           else normalize_scene(scene, transform))
    if transform == "none":
        assert out is scene
    for f in fields(Scene):
        a, b = getattr(before, f.name), getattr(scene, f.name)
        if not isinstance(a, np.ndarray):
            assert b == a
            continue
        assert b.dtype == a.dtype and b.tobytes() == a.tobytes(), f.name
        assert np.shares_memory(getattr(out, f.name), b) == (f.name not in _DERIVED[transform])


@pytest.mark.parametrize("kind,bound_mib", [
    (dict(camera_mode="orthogonal"), 5.05),
    (dict(camera_mode="weak_perspective", noise_ratio=0.1, max_missing=3), 5.75)],
    ids=["ortho", "transl"])
def test_normalized_planted_scene_peak_memory(kind, bound_mib):
    """Set-up of the training benchmark's scenes (P=31, F=2000, widths
    32 -> 8, seed 11): the traced peak of normalize_scene(synth_planted(spec)
    [0], "bbox") is 4.60 MiB for the orthographic scene and 5.20 MiB for the
    weak-perspective one with noise and up to 3 hidden points per frame.
    Deep-copying the scene in normalize_scene and make_missing, and then
    replacing the fields they change, peaked at 7.16 MiB for both.  A small
    scene is made first, since a process's first call peaks 0.73 MiB higher."""
    normalize_scene(synth_planted(PlantedSpec(frames=4, seed=11, **kind))[0], "bbox")
    spec = PlantedSpec(points=31, frames=2000, width_first=32, width_last=8, seed=11, **kind)
    tracemalloc.start()
    try:
        normalize_scene(synth_planted(spec)[0], "bbox")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20


def test_scene_checks_every_array():
    """The measurements must be (F, P, 2) and the visibility (F, P).  Each
    optional array must have its field's shape and is converted to
    float; the normalization records come as a pair, and camera scales or
    translations need rotations (save_scene writes them only with rotations).
    Refusals name the field (and both shapes); derived scenes are checked too."""
    F, P = 6, 4
    W, vis = np.zeros((F, P, 2)), np.ones((F, P), bool)
    with pytest.raises(ValueError, match=r"^measurements must be \(F, P, 2\)$"):
        Scene(np.zeros((F, P, 3)), vis)
    with pytest.raises(ValueError, match="^visibility shape must match measurements$"):
        Scene(W, vis[:, :-1])
    bad = {"gt_shapes": np.zeros((F, P, 2)), "gt_rotations": np.zeros((F, 2, 3)),
           "gt_scales": np.ones(F + 1), "gt_translations": np.zeros((F, 3)),
           "norm_centroids": np.zeros((F, 3)), "norm_scales": np.ones((F, 2))}
    pair = {"norm_centroids": np.zeros((F, 2)), "norm_scales": np.ones(F)}
    for name, a in bad.items():
        message = re.escape(f"{name} has shape {a.shape}, expected ")
        with pytest.raises(ValueError, match=message):
            Scene(W, vis, **{**pair, name: a})
        with pytest.raises(ValueError, match=message):
            replace(Scene(W, vis, **pair), **{name: a})
    for name in pair:
        with pytest.raises(ValueError, match="norm_centroids and norm_scales must be given "):
            Scene(W, vis, **{name: pair[name]})
    camera = {"gt_scales": np.ones(F), "gt_translations": np.zeros((F, 2))}
    for name in camera:
        with pytest.raises(ValueError, match=f"^{name} needs gt_rotations$"):
            Scene(W, vis, "weak_perspective", **{name: camera[name]})
        with pytest.raises(ValueError, match=f"^{name} needs gt_rotations$"):
            replace(Scene(W, vis, "weak_perspective"), **{name: camera[name]})
    scene = Scene(W, vis, gt_rotations=np.tile(np.eye(3, 2), (F, 1, 1)), gt_scales=[1] * F,
                  gt_translations=np.zeros((F, 2), int))
    assert scene.gt_scales.dtype == scene.gt_translations.dtype == float


def test_scene_refuses_non_finite_optional_arrays(monkeypatch):
    """A NaN or an infinity in any optional array, or at a visible point of
    the measurements, is refused, naming the field and the first bad frame,
    whether the scene is built or derived, before any SVD: LAPACK's does not
    return on the 3x3 alignment matrix of an infinite ground truth, so
    `train` on such a scene used to hang at its first evaluation."""
    def svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    scene, _ = synth_planted(PlantedSpec(points=5, frames=4, width_first=4, width_last=2,
                                         sparsity=1, camera_mode="weak_perspective", seed=2))
    scene = normalize_scene(scene, "bbox")
    monkeypatch.setattr(np.linalg, "svd", svd)
    names = ["gt_shapes", "gt_rotations", "gt_scales", "gt_translations", "norm_centroids",
             "norm_scales"]
    for name in names:
        for value in (np.nan, np.inf, -np.inf):
            if name == "norm_scales" and not value > 0:
                continue     # refused as not positive
            a = getattr(scene, name).copy()
            a.reshape(len(a), -1)[2:, -1] = value
            message = f"^{name} has a non-finite value at frame 2$"
            with pytest.raises(ValueError, match=message):
                Scene(**{f.name: getattr(scene, f.name) for f in fields(Scene)} | {name: a})
            with pytest.raises(ValueError, match=message):
                replace(scene, **{name: a})
    W, vis = scene.measurements.copy(), scene.visibility.copy()
    W[2, 1] = np.nan
    vis[2, 1] = False
    replace(scene, measurements=W, visibility=vis)      # hidden points may hold anything
    W[3, 4, 0] = np.inf
    with pytest.raises(ValueError, match="^measurements has a non-finite visible point at "
                                         "frame 3$"):
        replace(scene, measurements=W, visibility=vis)
    g = scene.gt_shapes.copy()
    g[1, 0, 0] = np.inf
    with pytest.raises(ValueError, match="^gt_shapes has a non-finite value at frame 1$"):
        train(replace(scene, gt_shapes=g), TrainConfig(width_first=4, width_last=2,
                                                       total_steps=2))


def test_scene_refuses_non_positive_normalization_scales(tmp_path):
    """A normalization scale multiplies the shapes and translations read back
    from the model, so one that is zero, negative or NaN is refused, naming
    the field and the first bad frame, whether the scene is built, derived
    or loaded from a file whose scales were negated."""
    F, P = 6, 4
    W, vis, centroids = np.ones((F, P, 2)), np.ones((F, P), bool), np.zeros((F, 2))
    for bad in (-1.0, 0.0, np.nan):
        scales = np.ones(F)
        scales[[2, 4]] = bad
        message = f"^norm_scales must be positive, frame 2 has {bad}$"
        with pytest.raises(ValueError, match=message):
            Scene(W, vis, norm_centroids=centroids, norm_scales=scales)
        with pytest.raises(ValueError, match=message):
            replace(Scene(W, vis, norm_centroids=centroids, norm_scales=np.ones(F)),
                    norm_scales=scales)
    scene, _ = synth_planted(PlantedSpec(points=5, frames=3, width_first=4, width_last=2,
                                         sparsity=1, seed=2))
    path = tmp_path / "negated.txt"
    save_scene(normalize_scene(scene, "bbox"), path)
    head, records = path.read_text().split("frame,cx,cy,scale\n")
    path.write_text(head + "frame,cx,cy,scale\n" + re.sub(r"^(.*),", r"\1,-", records, flags=re.M))
    with pytest.raises(ValueError, match="^norm_scales must be positive, frame 0 has -"):
        load_scene(path)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    config = TrainConfig(width_first=6, width_last=3, total_steps=5)
    params = init_params(config, 7)
    opt = OptimizerState.zeros(params)
    rng = np.random.default_rng(13)
    opt.moment1 += rng.standard_normal(opt.moment1.shape)
    opt.moment2 += rng.random(opt.moment2.shape)
    opt.step = 17
    path = tmp_path / "ck.bin"
    save_checkpoint(path, params, config=config, opt_state=opt, step=42,
                    skipped=3)
    p2, cfg2, opt2, step, skipped = load_checkpoint(path)
    for (n1, a1), (n2, a2) in zip(params.param_items(), p2.param_items()):
        assert n1 == n2
        assert np.array_equal(a1, a2)
    assert p2.activation == params.activation
    assert p2.block_rows == params.block_rows
    assert cfg2["width_first"] == 6
    assert opt2.step == 17
    assert np.array_equal(opt.moment1, opt2.moment1)
    assert np.array_equal(opt.moment2, opt2.moment2)
    assert step == 42 and skipped == 3


def test_checkpoint_params_only(tmp_path):
    params = init_params(TrainConfig(width_first=4, width_last=2), 5)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, params)
    p2, cfg, opt, step, skipped = load_checkpoint(path)
    assert cfg is None and opt is None and step == 0
    assert np.array_equal(p2.dictionaries[0], params.dictionaries[0])


def test_checkpoint_errors(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"something else v9\n{}\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)
    params = init_params(TrainConfig(width_first=4, width_last=2), 5)
    good = tmp_path / "ck.bin"
    save_checkpoint(good, params)
    data = good.read_bytes()
    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(data[:-16])
    with pytest.raises(CheckpointError):
        load_checkpoint(trunc)
    trailing = tmp_path / "trailing.bin"
    trailing.write_bytes(data + b"\0" * 8)
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(trailing)
    # a manifest without the beta tensor, and its bytes taken out
    magic, manifest, blob = data.split(b"\n", 2)
    entries = json.loads(manifest)["tensors"]
    names = [e["name"] for e in entries]
    offsets = np.cumsum([0] + [8 * int(np.prod(e["shape"])) for e in entries])
    k = names.index("beta")
    man = json.loads(manifest)
    del man["tensors"][k]
    lacking = tmp_path / "lacking.bin"
    lacking.write_bytes(magic + b"\n" + json.dumps(man).encode() + b"\n"
                        + blob[:offsets[k]] + blob[offsets[k + 1]:])
    with pytest.raises(CheckpointError, match="beta"):
        load_checkpoint(lacking)
    # manifests that are not JSON, not an object or without a tensor list,
    # shapes that are not lists of non-negative integers (a truncated 2.5
    # would match gamma's true size of 2), and a name that is not a string
    full = json.loads(manifest)
    lines = [b"{not json", b"[]", json.dumps(dict(full, tensors=5)).encode()]
    lines += [json.dumps(dict(full, tensors=[dict(e, shape=shape) if e["name"] == "gamma"
                                             else e for e in entries])).encode()
              for shape in ([-1], "ab", [2.5])]
    lines.append(json.dumps(dict(full, tensors=[dict(e, name=7) if e["name"] == "gamma"
                                                else e for e in entries])).encode())
    # scalars that are not non-negative integers and a config that is not an
    # object; block_rows the model rejects, a string and a float equal to 3;
    # dict1 ([5, 12]) given as [60], the same byte count at the wrong rank
    lines += [json.dumps(dict(full, **{key: value})).encode()
              for key, value in (("step", "abc"), ("step", -1), ("step", 1.0), ("skipped", "a"),
                                 ("opt_step", "x"), ("opt_step", True), ("config", [1]),
                                 ("config", "x"), ("block_rows", "3"), ("block_rows", 3.0))]
    lines.append(json.dumps(dict(full, tensors=[dict(e, shape=[60]) if e["name"] == "dict1"
                                                else e for e in entries])).encode())
    for i, line in enumerate(lines):
        malformed = tmp_path / f"malformed{i}.bin"
        malformed.write_bytes(magic + b"\n" + line + b"\n" + blob)
        with pytest.raises(CheckpointError, match=f"malformed{i}.bin"):
            load_checkpoint(malformed)
    # a negative encoder threshold in the body
    k = names.index("enc_b1")
    negative = tmp_path / "negative.bin"
    negative.write_bytes(magic + b"\n" + manifest + b"\n" + blob[:offsets[k]]
                         + np.float64(-0.5).tobytes() + blob[offsets[k] + 8:])
    with pytest.raises(CheckpointError, match="negative.bin: thresholds must be non-negative"):
        load_checkpoint(negative)
    # a NaN or an infinity anywhere in the body, Adam's moments included
    ck = tmp_path / "adam.bin"
    save_checkpoint(ck, params, opt_state=OptimizerState.zeros(params), step=1)
    magic, manifest, blob = ck.read_bytes().split(b"\n", 2)
    # tensor lists no writer produces: a stray tensor between the parameters
    # and Adam's moments, two tensors swapped with their bytes, Adam's
    # moments under no optimizer step, and the last tensor listed twice
    man = json.loads(manifest)
    entries = man["tensors"]
    third = len(blob) // 3    # params, then Adam's two moments
    stray = dict(man, tensors=entries[:len(entries) // 3] + [{"name": "extra", "shape": [1]}]
                 + entries[len(entries) // 3:])
    k = [e["name"] for e in entries].index("beta")
    at = [8 * sum(int(np.prod(e["shape"])) for e in entries[:i]) for i in (k, k + 1, k + 2)]
    swapped = dict(man, tensors=entries[:k] + [entries[k + 1], entries[k]] + entries[k + 2:])
    for name, listed, body, match in (
            ("stray", stray, blob[:third] + bytes(8) + blob[third:],
             "tensor entry 7 is {'name': 'extra', 'shape': [1]}, expected {'name': 'adam_m/dict1'"),
            ("swapped", swapped, blob[:at[0]] + blob[at[1]:at[2]] + blob[at[0]:at[1]] + blob[at[2]:],
             "tensor entry 5 is {'name': 'gamma', 'shape': [2]}, expected {'name': 'beta'"),
            ("no-opt-step", dict(man, opt_step=None), blob,
             "tensor entry 7 is {'name': 'adam_m/dict1', 'shape': [5, 12]}, expected None"),
            ("twice", dict(man, tensors=entries + entries[-1:]), blob + blob[-16:],
             "tensor entry 21 is {'name': 'adam_v/gamma', 'shape': [2]}, expected None")):
        listing = tmp_path / f"{name}.bin"
        listing.write_bytes(magic + b"\n" + json.dumps(listed).encode() + b"\n" + body)
        with pytest.raises(CheckpointError, match=re.escape(f"{name}.bin: {match}")):
            load_checkpoint(listing)
    for name, at, value in (("gamma", third - 8, np.nan), ("adam_m/dict1", third, np.inf),
                            ("adam_v/gamma", 3 * third - 8, -np.inf)):
        nonfinite = tmp_path / "nonfinite.bin"
        nonfinite.write_bytes(magic + b"\n" + manifest + b"\n" + blob[:at]
                              + np.float64(value).tobytes() + blob[at + 8:])
        with pytest.raises(CheckpointError,
                           match=f"nonfinite.bin: tensor {name} has a non-finite value"):
            load_checkpoint(nonfinite)


def test_checkpoint_rejects_moment_of_wrong_shape(tmp_path):
    params = init_params(TrainConfig(width_first=4, width_last=2), 5)
    save_checkpoint(tmp_path / "ck.bin", params, opt_state=OptimizerState.zeros(params))
    # the gamma moment rewritten as (2, 8) zeros in the manifest and the body
    magic, manifest, blob = (tmp_path / "ck.bin").read_bytes().split(b"\n", 2)
    man = json.loads(manifest)
    entries = man["tensors"]
    k = [e["name"] for e in entries].index("adam_m/gamma")
    start = 8 * sum(int(np.prod(e["shape"])) for e in entries[:k])
    entries[k]["shape"] = [2, 8]
    blob = blob[:start] + np.zeros(16).tobytes() + blob[start + 8 * params.gamma.size:]
    (tmp_path / "ck.bin").write_bytes(magic + b"\n" + json.dumps(man).encode() + b"\n" + blob)
    with pytest.raises(CheckpointError, match="adam_m/gamma"):
        load_checkpoint(tmp_path / "ck.bin")


def test_generation_bytes_are_pinned(tmp_path):
    """A planted scene, its params and an init_params checkpoint keep the
    bytes they had when the two model generators became one."""
    scene, params = synth_planted(PlantedSpec(
        points=6, frames=4, layers=3, width_first=5, width_last=2, sparsity=1,
        camera_mode="weak_perspective", noise_ratio=0.1, max_missing=2, seed=21))
    save_scene(scene, tmp_path / "scene.txt")
    save_checkpoint(tmp_path / "planted.ckpt", params)
    config = TrainConfig(width_first=6, width_last=3, translation=True)
    save_checkpoint(tmp_path / "init.ckpt", init_params(config, 5, seed=4))
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("scene.txt", "planted.ckpt", "init.ckpt")}
    assert digests == {
        "scene.txt": "a025f80296f63f74c3a4c5d8bae38e51d863fb209cfe72a88477d993680e39c0",
        "planted.ckpt": "51d6d8a3895eb5f08671b2e2fa212ffc9851b429bb65d07ce443790e8efad317",
        "init.ckpt": "e5cd529c27d3f8141996155c8b291c62782b099f8de7e1636fb6f8416a79f8c3",
    }


def test_training_bytes_are_pinned(tmp_path):
    """Short training runs' checkpoints, Adam moments included, and those
    of runs resumed from them keep the bytes they had before the parameters
    and moments moved into flat vectors (soft/translation) and before the
    backward pass read its threshold masks from the stored layer outputs
    (relu/orthogonal); re-pinned when the cameras' polar factor became
    closed-form, and when it became M (M^T M)^(-1/2) with its gradient
    through that inverse square root.  Then the soft checkpoints' bodies
    moved in 312 and 325 of 444 numbers, by at most 1.7e-14 relative; the
    relu ones in 388 and 495 of 582, the parameters by at most 1.2e-8
    relative (gamma), and the Adam moments of gamma, whose gradient there
    is rounding noise (below 4e-15) that Adam scales to full steps, by up
    to 1.1 relative."""
    cases = {
        "soft": (PlantedSpec(points=6, frames=12, layers=3, width_first=5, width_last=2,
                             sparsity=1, camera_mode="weak_perspective", noise_ratio=0.05,
                             max_missing=2, seed=8),
                 TrainConfig(layers=3, width_first=5, width_last=2, activation="soft",
                             translation=True, batch_size=4, total_steps=40, eval_interval=20)),
        "relu": (PlantedSpec(points=7, frames=16, layers=3, width_first=6, width_last=3,
                             sparsity=2, camera_mode="orthogonal", noise_ratio=0.02,
                             max_missing=1, seed=9),
                 TrainConfig(layers=3, width_first=6, width_last=3, activation="relu",
                             batch_size=4, total_steps=40, eval_interval=20)),
    }
    digests = {}
    for case, (spec, config) in cases.items():
        scene = normalize_scene(synth_planted(spec)[0])
        half = train(scene, replace(config, total_steps=20), verbose=False)
        save_checkpoint(tmp_path / f"{case}-half.ckpt", half.params, config=config,
                        opt_state=half.opt_state, step=20, skipped=half.skipped)
        params, _, opt_state, step, skipped = load_checkpoint(tmp_path / f"{case}-half.ckpt")
        resumed = train(scene, config, init=(params, opt_state, step, skipped), verbose=False)
        save_checkpoint(tmp_path / f"{case}-resumed.ckpt", resumed.params, config=config,
                        opt_state=resumed.opt_state, step=40, skipped=resumed.skipped)
        for stage in ("half", "resumed"):
            name = f"{case}-{stage}.ckpt"
            digests[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digests == {
        "soft-half.ckpt": "b2e91d19c74f35a92a325190915de519812eaca04c231007eaacf3c664f5de1f",
        "soft-resumed.ckpt": "f2ccb0d75c626b64ca271a8e81d58b3b0ec7361deece368b4ffc69a128daad7a",
        "relu-half.ckpt": "1c9484fd72663756ddc23bca7c1727e4907225ff823680586e3c7aed0006b702",
        "relu-resumed.ckpt": "598b1c7b665da0a7fb6633456467d724446bc8a90377c8c3dc7052c3c2cc2db9",
    }


def test_scene_copy_is_deep():
    scene, _ = synth_planted(PlantedSpec(points=4, frames=2, seed=14,
                                         width_first=4, width_last=2))
    dup = scene.copy()
    dup.measurements[0, 0, 0] += 1.0
    assert scene.measurements[0, 0, 0] != dup.measurements[0, 0, 0]
