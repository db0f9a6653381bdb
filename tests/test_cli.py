import argparse
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

import nrsfm
import nrsfm.cli
from nrsfm.cli import build_parser, main
from nrsfm.data import (PlantedSpec, SceneFormatError, load_checkpoint, load_scene,
                        normalize_scene, save_scene)
from nrsfm.geometry import normalized_3d_error
from nrsfm.training import HistoryRecord, TrainConfig


def _run(argv):
    return main(argv)


def test_generate_writes_loadable_scene(tmp_path):
    out = str(tmp_path / "scene.txt")
    code = _run(["generate", "--points", "9", "--frames", "12", "--seed", "3",
                 "--width-first", "6", "--width-last", "3", "--out", out])
    assert code == 0
    scene = load_scene(out)
    assert scene.frame_count == 12
    assert scene.point_count == 9
    # sidecar ground-truth params checkpoint
    params, _, _, _, _ = load_checkpoint(out + ".params")
    assert params.point_count == 9


def test_generate_noise_and_missing(tmp_path):
    out = str(tmp_path / "scene.txt")
    assert _run(["generate", "--points", "9", "--frames", "10", "--seed", "1",
                 "--width-first", "6", "--width-last", "3",
                 "--noise", "0.2", "--max-missing", "3", "--out", out]) == 0
    scene = load_scene(out)
    hidden = (~scene.visibility).sum(axis=1)
    assert np.all((hidden >= 1) & (hidden <= 3))
    for f in range(10):
        clean = scene.gt_shapes[f] @ scene.gt_rotations[f]
        ratio = (np.linalg.norm(scene.measurements[f] - clean)
                 / np.linalg.norm(clean))
        assert np.isclose(ratio, 0.2, atol=1e-9)


def test_generate_invalid_spec_fails(tmp_path):
    out = str(tmp_path / "scene.txt")
    assert _run(["generate", "--points", "0", "--out", out]) == 1
    assert not os.path.exists(out)


@pytest.mark.parametrize("flags, message", [
    (["--noise", "inf"], "finite and non-negative"),
    # finite, but ratio * ||W|| overflows to inf
    (["--mode", "weak_perspective", "--noise", "1e308"], "not finite")])
def test_generate_non_finite_noise_fails_cleanly(tmp_path, capsys, flags, message):
    out = str(tmp_path / "scene.txt")
    assert _run(["generate", "--frames", "5", "--seed", "1", *flags, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not os.path.exists(out)
    assert not os.path.exists(out + ".params")


def test_generate_zero_layers_fails_cleanly(tmp_path, capsys):
    out = str(tmp_path / "scene.txt")
    assert _run(["generate", "--layers", "0", "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not os.path.exists(out)
    assert not os.path.exists(out + ".params")


def _subparser_options(command):
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return [a for a in subs.choices[command]._actions
            if a.option_strings and a.dest != "help"]


@pytest.mark.parametrize("command, schema, io_flags, renamed", [
    ("train", TrainConfig, ["checkpoint", "history", "resume", "quiet", "config"], {}),
    ("generate", PlantedSpec, ["out", "params_out"],
     {"camera_mode": "--mode", "noise_ratio": "--noise"}),
])
def test_flags_are_derived_from_schema_fields(command, schema, io_flags, renamed):
    options = _subparser_options(command)
    # exactly one option per field, besides the fixed IO flags
    assert sorted(a.dest for a in options) == sorted([f.name for f in fields(schema)]
                                                     + io_flags)
    by_dest = {a.dest: a for a in options}
    for f in fields(schema):
        assert isinstance(f.type, type)  # not a postponed-annotation string
        action = by_dest[f.name]
        flag = renamed.get(f.name, "--" + f.name.replace("_", "-"))
        assert action.option_strings == [flag]
        assert action.default is None  # the schema's default applies
        if f.type is bool:
            assert action.const is True and action.nargs == 0
        else:
            assert action.type is f.type
            assert action.choices == f.metadata.get("choices")


def _make_scene(tmp_path, frames=16):
    out = str(tmp_path / "scene.txt")
    assert _run(["generate", "--points", "8", "--frames", str(frames),
                 "--width-first", "6", "--width-last", "3", "--sparsity", "1",
                 "--seed", "3", "--out", out]) == 0
    return out


_TRAIN_FLAGS = ["--width-first", "6", "--width-last", "3",
                "--total-steps", "60", "--eval-interval", "20",
                "--batch-size", "8", "--quiet"]


def test_train_history_and_determinism(tmp_path):
    scene = _make_scene(tmp_path)
    ck1, h1 = str(tmp_path / "a.ck"), str(tmp_path / "a.csv")
    ck2, h2 = str(tmp_path / "b.ck"), str(tmp_path / "b.csv")
    assert _run(["train", scene, "--checkpoint", ck1, "--history", h1]
                + _TRAIN_FLAGS) == 0
    assert _run(["train", scene, "--checkpoint", ck2, "--history", h2]
                + _TRAIN_FLAGS) == 0
    body1 = open(h1).read()
    rows = [l for l in body1.splitlines() if l and not l.startswith("#")]
    # header + records at steps 0, 20, 40, 60
    assert len(rows) == 5
    assert rows[0].split(",") == [f.name for f in fields(HistoryRecord)]
    # identical seed, identical bytes (modulo the echoed scene path)
    assert body1.replace(h1, "") == open(h2).read().replace(h2, "")
    # flags echoed into the header
    assert "# total_steps=60" in body1


def test_train_bytes_independent_of_blas_threads(tmp_path):
    # the batch is folded into BLAS products; their results must not depend
    # on how many threads BLAS splits them over
    scene = _make_scene(tmp_path)
    src = os.path.dirname(os.path.dirname(nrsfm.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        ck, h = str(tmp_path / f"t{threads}.ck"), str(tmp_path / f"t{threads}.csv")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        subprocess.run([sys.executable, "-m", "nrsfm.cli", "train", scene,
                        "--checkpoint", ck, "--history", h] + _TRAIN_FLAGS,
                       env=env, check=True, timeout=300)
        # both runs echo the same scene path, so whole files compare
        with open(h, "rb") as fh_h, open(ck, "rb") as fh_ck:
            outputs.append((fh_h.read(), fh_ck.read()))
    assert outputs[0] == outputs[1]


def test_train_single_atom_final_dictionary_fails_cleanly(tmp_path, capsys):
    scene = _make_scene(tmp_path)
    ck, h = str(tmp_path / "w.ck"), str(tmp_path / "w.csv")
    capsys.readouterr()
    assert _run(["train", scene, "--checkpoint", ck, "--history", h,
                 "--width-last", "1", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "final dictionary" in err
    assert not os.path.exists(ck)
    assert not os.path.exists(h)


def test_train_config_file_and_flag_precedence(tmp_path):
    scene = _make_scene(tmp_path)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("width_first = 6\nwidth_last = 3\n"
                   "total_steps = 500   # overridden below\n"
                   "eval_interval = 20\nbatch_size = 8\n")
    ck, h = str(tmp_path / "c.ck"), str(tmp_path / "c.csv")
    assert _run(["train", scene, "--checkpoint", ck, "--history", h,
                 "--config", str(cfg), "--total-steps", "40", "--quiet"]) == 0
    body = open(h).read()
    assert "# total_steps=40" in body
    _, config, _, step, _ = load_checkpoint(ck)
    assert config["total_steps"] == 40
    assert step == 40


def test_train_config_history_is_pinned(tmp_path, monkeypatch):
    """A run from a config file and one overriding flag writes the scene and
    the merged settings as sorted '# key=value' lines before the header row;
    the whole history keeps its bytes (re-pinned when the cameras' polar
    factor became closed-form, and when the 3D error's 3x3 polar factor
    became a Newton iteration: one error3d moved, by 1.2e-16 relative)."""
    monkeypatch.chdir(tmp_path)
    _make_scene(tmp_path)
    with open("cfg.txt", "w") as fh:
        fh.write("width_first = 6\nwidth_last = 3\nactivation = soft\n"
                 "total_steps = 500\neval_interval = 20\nbatch_size = 8\nseed = 2\n")
    assert _run(["train", "scene.txt", "--checkpoint", "model.ckpt", "--history", "h.csv",
                 "--config", "cfg.txt", "--total-steps", "40", "--quiet"]) == 0
    data = open("h.csv", "rb").read()
    assert data.decode().splitlines()[:9] == [
        "# scene=scene.txt", "# activation=soft", "# batch_size=8", "# eval_interval=20",
        "# seed=2", "# total_steps=40", "# width_first=6", "# width_last=3",
        ",".join(f.name for f in fields(HistoryRecord))]
    assert hashlib.sha256(data).hexdigest() == (
        "ff2ae772906534ecb62ad4b5bb26a6f4202205a2365a59a3a3a988b77b172071")


def test_train_zero_decay_steps_fails_cleanly(tmp_path, capsys):
    scene = _make_scene(tmp_path)
    ck, h = str(tmp_path / "z.ck"), str(tmp_path / "z.csv")
    capsys.readouterr()
    assert _run(["train", scene, "--checkpoint", ck, "--history", h,
                 "--decay-steps", "0", "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not os.path.exists(ck)
    assert not os.path.exists(h)


def test_train_bad_config_key_fails_cleanly(tmp_path):
    scene = _make_scene(tmp_path)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("warp_speed = 9\n")
    ck, h = str(tmp_path / "d.ck"), str(tmp_path / "d.csv")
    assert _run(["train", scene, "--checkpoint", ck, "--history", h,
                 "--config", str(cfg), "--quiet"]) == 1
    assert not os.path.exists(ck)
    assert not os.path.exists(h)


@pytest.mark.parametrize("text, message", [
    ("layers = 2.5\n", "1: bad value for layers: '2.5' (expected int)"),
    ("width_last = 3\nbase_lr = abc\n", "2: bad value for base_lr: 'abc' (expected float)"),
    ("# no steps\n\ntotal_steps = 1e3\n",
     "3: bad value for total_steps: '1e3' (expected int)"),
    ("translation = maybe\n", "1: bad value for translation: 'maybe' (expected bool)"),
    ("# steps\ntotal_steps 100\n", "2: expected key=value")],
    ids=["int", "float", "third-line", "bool", "no-equals"])
def test_train_bad_config_value_is_named(tmp_path, capsys, text, message):
    """A config-file value that is not of its field's type is refused with
    the file, the line and the key, and a line without '=' with the file and
    the line, each with exit code 1."""
    scene = _make_scene(tmp_path)
    cfg = tmp_path / "c.txt"
    cfg.write_text(text)
    ck, h = str(tmp_path / "v.ck"), str(tmp_path / "v.csv")
    capsys.readouterr()
    assert _run(["train", scene, "--checkpoint", ck, "--history", h,
                 "--config", str(cfg), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:{message}\n"
    assert not os.path.exists(ck)
    assert not os.path.exists(h)


@pytest.mark.parametrize("argv, message", [
    (["train", "scene.txt", "--checkpoint", "x", "--history", "x"],
     "--checkpoint and --history name the same file 'x'"),
    (["train", "scene.txt", "--checkpoint", "x", "--history", "sub/../x"],
     "--checkpoint and --history name the same file 'sub/../x'"),
    (["train", "scene.txt", "--checkpoint", "x", "--history", "link"],
     "--checkpoint and --history name the same file 'link'"),
    (["generate", "--out", "y", "--params-out", "y"],
     "--out and --params-out name the same file 'y'"),
    (["generate", "--out", "y", "--params-out", "./y"],
     "--out and --params-out name the same file './y'"),
], ids=["train", "train-dotted", "train-symlink", "generate", "generate-dotted"])
def test_two_outputs_at_one_file_are_refused(tmp_path, capsys, monkeypatch, argv, message):
    """Two outputs of one command may not name one file (paths compared after
    realpath, so through a symlink too): the command refuses before it reads
    the scene or generates one, exits 1 and writes nothing.  Before, the
    later output replaced the earlier one and the command exited 0."""
    monkeypatch.chdir(tmp_path)
    os.symlink("x", "link")

    def not_called(*args):
        raise AssertionError("ran past the output check")

    monkeypatch.setattr(nrsfm.cli, "load_scene", not_called)
    monkeypatch.setattr(nrsfm.cli, "synth_planted", not_called)
    assert _run(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert os.listdir() == ["link"]


def test_train_may_write_the_checkpoint_it_resumes_from(tmp_path):
    """An output may name an input: --resume ck --checkpoint ck replaces ck
    with the bytes a resume into another file writes."""
    scene = _make_scene(tmp_path)
    ck, h = str(tmp_path / "i.ck"), str(tmp_path / "i.csv")
    assert _run(["train", scene, "--checkpoint", ck, "--history", h] + _TRAIN_FLAGS) == 0
    resume = ["train", scene, "--resume", ck, "--history", h] + _TRAIN_FLAGS + [
        "--total-steps", "80"]
    other = str(tmp_path / "other.ck")
    assert _run(resume + ["--checkpoint", other]) == 0
    assert _run(resume + ["--checkpoint", ck]) == 0
    with open(ck, "rb") as a, open(other, "rb") as b:
        assert a.read() == b.read()


def test_failed_command_leaves_every_file_as_it_was(tmp_path, capsys):
    """A command writes its outputs beside their paths and they are renamed
    into place only when all are written.  train writes the checkpoint, then
    fails to open a history in a missing directory: it exits 1, writes no
    checkpoint, and a checkpoint it resumed from and was to replace keeps its
    bytes.  generate failing on its params file keeps a scene file that was
    already there.  No temporary file is left."""
    scene = _make_scene(tmp_path)
    ck, h = str(tmp_path / "f.ck"), str(tmp_path / "nodir" / "h.csv")
    capsys.readouterr()
    assert _run(["train", scene, "--checkpoint", ck, "--history", h] + _TRAIN_FLAGS) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory:")
    assert not os.path.exists(ck)
    resume, scene_out = tmp_path / "r.ck", tmp_path / "o.txt"
    assert _run(["train", scene, "--checkpoint", str(resume), "--history", str(tmp_path / "r.csv")]
                + _TRAIN_FLAGS) == 0
    kept = resume.read_bytes()
    assert _run(["train", scene, "--resume", str(resume), "--checkpoint", str(resume),
                 "--history", h] + _TRAIN_FLAGS + ["--total-steps", "80"]) == 1
    assert resume.read_bytes() == kept
    scene_out.write_text("keep\n")
    assert _run(["generate", "--points", "8", "--frames", "4", "--width-first", "6",
                 "--width-last", "3", "--out", str(scene_out),
                 "--params-out", str(tmp_path / "nodir" / "p")]) == 1
    assert scene_out.read_text() == "keep\n"
    assert sorted(os.listdir(tmp_path)) == ["o.txt", "r.ck", "r.csv", "scene.txt",
                                            "scene.txt.params"]


def test_output_through_a_symlink_writes_its_target(tmp_path):
    """An output named through a symlink is written at the link's target,
    which may not exist yet, and the link stays a link."""
    (tmp_path / "d").mkdir()
    link = tmp_path / "link.txt"
    os.symlink(os.path.join("d", "real.txt"), link)
    assert _run(["generate", "--points", "8", "--frames", "4", "--width-first", "6",
                 "--width-last", "3", "--out", str(link)]) == 0
    assert os.path.islink(link)
    assert os.listdir(tmp_path / "d") == ["real.txt"]
    assert load_scene(str(tmp_path / "d" / "real.txt")).frame_count == 4


def test_outputs_named_like_temporary_files(tmp_path, monkeypatch):
    """Each output's temporary file is a new file beside it, so an output or
    an input named like one is an ordinary file.  `generate --out x.partial
    --params-out x` writes the scene to x.partial and the parameters to x
    (at a fixed `<path>.partial` name the scene was renamed onto x and the
    parameters were lost), and `train --resume ck.partial --checkpoint ck`
    keeps ck.partial and writes ck as a resume from ck.partial (the resume
    file was overwritten and renamed onto ck)."""
    monkeypatch.chdir(tmp_path)
    assert _run(["generate", "--points", "8", "--frames", "4", "--width-first", "6",
                 "--width-last", "3", "--out", "x.partial", "--params-out", "x"]) == 0
    assert sorted(os.listdir()) == ["x", "x.partial"]
    assert load_scene("x.partial").frame_count == 4
    assert load_checkpoint("x")[0].point_count == 8
    scene = _make_scene(tmp_path)
    assert _run(["train", scene, "--checkpoint", "ck.partial", "--history", "h.csv"]
                + _TRAIN_FLAGS) == 0
    kept = (tmp_path / "ck.partial").read_bytes()
    assert _run(["train", scene, "--resume", "ck.partial", "--checkpoint", "ck",
                 "--history", "r.csv"] + _TRAIN_FLAGS + ["--total-steps", "80"]) == 0
    assert _run(["train", scene, "--resume", "ck.partial", "--checkpoint", "ref.ck",
                 "--history", "ref.csv"] + _TRAIN_FLAGS + ["--total-steps", "80"]) == 0
    assert (tmp_path / "ck.partial").read_bytes() == kept
    assert (tmp_path / "ck").read_bytes() == (tmp_path / "ref.ck").read_bytes()
    assert sorted(f for f in os.listdir() if f.endswith(".partial")) == ["ck.partial",
                                                                         "x.partial"]


def test_output_mode_follows_the_umask(tmp_path, monkeypatch):
    """A written output gets the mode an open() would give it under the
    umask, not the temporary file's private 0600."""
    monkeypatch.chdir(tmp_path)
    old = os.umask(0o027)
    try:
        assert _run(["generate", "--points", "8", "--frames", "4", "--width-first", "6",
                     "--width-last", "3", "--out", "s.txt"]) == 0
    finally:
        os.umask(old)
    assert {f: os.stat(f).st_mode & 0o777 for f in os.listdir()} == {
        "s.txt": 0o640, "s.txt.params": 0o640}


def test_train_history_without_ground_truth(tmp_path, capsys):
    """A scene without [shapes] trains with no 3D error: each progress line
    ends in 'err3d -' and the history's error3d cells are empty."""
    full = load_scene(_make_scene(tmp_path))
    scene = str(tmp_path / "no-gt.txt")
    save_scene(replace(full, gt_shapes=None, gt_rotations=None, gt_scales=None,
                       gt_translations=None), scene)
    ck, h = str(tmp_path / "n.ck"), str(tmp_path / "n.csv")
    capsys.readouterr()
    assert _run(["train", scene, "--checkpoint", ck, "--history", h]
                + [f for f in _TRAIN_FLAGS if f != "--quiet"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines[:-1]] == ["0", "20", "40", "60"]
    assert all(line.endswith(" err3d -") for line in lines[:-1])
    with open(h) as fh:
        rows = [line.split(",") for line in fh.read().splitlines() if not line.startswith("#")]
    column = rows[0].index("error3d")
    assert [row[column] for row in rows[1:]] == ["", "", "", ""]


def test_reconstruct_and_evaluate_pipeline(tmp_path, capsys):
    scene = _make_scene(tmp_path)
    ck, h = str(tmp_path / "e.ck"), str(tmp_path / "e.csv")
    flags = ["--width-first", "6", "--width-last", "3",
             "--total-steps", "800", "--eval-interval", "400",
             "--batch-size", "8", "--quiet"]
    assert _run(["train", scene, "--checkpoint", ck, "--history", h] + flags) == 0

    rec1 = str(tmp_path / "rec1.txt")
    rec2 = str(tmp_path / "rec2.txt")
    assert _run(["reconstruct", scene, ck, "--out", rec1]) == 0
    assert _run(["reconstruct", scene, ck, "--out", rec2]) == 0
    assert open(rec1).read() == open(rec2).read()
    est = load_scene(rec1)
    assert est.frame_count == 16

    capsys.readouterr()
    cum = str(tmp_path / "cum.csv")
    assert _run(["evaluate", rec1, scene, "--cumulative", cum]) == 0
    out = capsys.readouterr().out
    reported = float(out.split("error ")[1].split()[0])

    # matches the final history record to 1e-9
    last = open(h).read().strip().splitlines()[-1].split(",")
    assert abs(reported - float(last[3])) < 1e-9 + 5e-7  # printed at 6 digits

    # matches library-level error on the same data
    truth = load_scene(scene)
    lib = normalized_3d_error(est.gt_shapes, truth.gt_shapes)
    assert abs(reported - lib) < 5e-7

    # cumulative curve is monotone non-decreasing, ends at 1
    rows = [l.split(",") for l in open(cum).read().strip().splitlines()[1:]]
    fracs = [float(r[1]) for r in rows]
    ths = [float(r[0]) for r in rows]
    assert fracs == sorted(fracs)
    assert ths == sorted(ths)
    assert fracs[-1] == 1.0


def test_evaluate_identity_and_coherence(tmp_path, capsys):
    scene = _make_scene(tmp_path)
    capsys.readouterr()
    assert _run(["evaluate", scene, scene]) == 0
    assert "error 0.000000" in capsys.readouterr().out

    ck, h = str(tmp_path / "f.ck"), str(tmp_path / "f.csv")
    assert _run(["train", scene, "--checkpoint", ck, "--history", h,
                 "--total-steps", "5", "--eval-interval", "5",
                 "--width-first", "6", "--width-last", "3", "--quiet"]) == 0
    assert _run(["evaluate", "--coherence", ck]) == 0
    out = capsys.readouterr().out
    assert "coherence " in out
    c = float(out.split("coherence ")[1].split()[0])
    assert 0.0 <= c <= 1.0


@pytest.mark.parametrize("argv", [
    ["--coherence", "scene.txt.params", "--cumulative", "c.csv"],
    ["--coherence", "scene.txt.params", "scene.txt"],
    ["--coherence", "scene.txt.params", "scene.txt", "--cumulative", "c.csv"],
    ["scene.txt", "--cumulative", "c.csv"],
])
def test_evaluate_checks_its_arguments_first(tmp_path, capsys, monkeypatch, argv):
    """--cumulative needs an estimates file and a truth file, and so does an
    estimates file: evaluate refuses either before it loads the checkpoint,
    so it prints nothing and writes no CSV."""
    monkeypatch.chdir(tmp_path)
    _make_scene(tmp_path)
    capsys.readouterr()
    assert _run(["evaluate", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: evaluate needs an estimates file and a truth file "
                   "(or --coherence alone)\n")
    assert not os.path.exists("c.csv")


def test_evaluate_mismatch_fails(tmp_path, capsys):
    a = _make_scene(tmp_path)
    b = str(tmp_path / "other.txt")
    assert _run(["generate", "--points", "5", "--frames", "4",
                 "--width-first", "4", "--width-last", "2", "--out", b]) == 0
    assert _run(["evaluate", a, b]) == 1
    zero = load_scene(a)
    zero.gt_shapes[3] = 0.0
    z = str(tmp_path / "zero.txt")
    save_scene(zero, z)
    capsys.readouterr()
    assert _run(["evaluate", a, z]) == 1
    assert capsys.readouterr().err == "error: 3D error: zero-norm ground-truth frame at frame 3\n"


def test_reconstruct_point_mismatch_fails(tmp_path):
    scene = _make_scene(tmp_path)
    ck, h = str(tmp_path / "g.ck"), str(tmp_path / "g.csv")
    assert _run(["train", scene, "--checkpoint", ck, "--history", h,
                 "--total-steps", "5", "--eval-interval", "5",
                 "--width-first", "6", "--width-last", "3", "--quiet"]) == 0
    other = str(tmp_path / "other.txt")
    assert _run(["generate", "--points", "5", "--frames", "4",
                 "--width-first", "4", "--width-last", "2", "--out", other]) == 0
    out = str(tmp_path / "rec.txt")
    assert _run(["reconstruct", other, ck, "--out", out]) == 1
    assert not os.path.exists(out)


def test_train_translation_requires_weak_perspective(tmp_path):
    scene = _make_scene(tmp_path)
    ck, h = str(tmp_path / "t.ck"), str(tmp_path / "t.csv")
    assert _run(["train", scene, "--checkpoint", ck, "--history", h,
                 "--translation", "--quiet"]) == 1
    assert not os.path.exists(ck)


def test_train_resume_rejects_mismatched_checkpoint(tmp_path, capsys):
    # the other fields are covered by test_train_resume_rejects_other_structure
    scene = _make_scene(tmp_path)
    ck, h = str(tmp_path / "r.ck"), str(tmp_path / "r.csv")
    assert _run(["train", scene, "--checkpoint", ck, "--history", h]
                + _TRAIN_FLAGS) == 0
    ck2, h2 = str(tmp_path / "r2.ck"), str(tmp_path / "r2.csv")
    resume = ["train", scene, "--checkpoint", ck2, "--history", h2,
              "--resume", ck] + _TRAIN_FLAGS + ["--total-steps", "80"]
    capsys.readouterr()
    assert _run(resume + ["--width-first", "8", "--width-last", "4"]) == 1
    assert capsys.readouterr().err.startswith("error: resume:")
    assert not os.path.exists(ck2)
    assert not os.path.exists(h2)
    assert _run(resume) == 0


def test_train_resume_past_total_steps_fails_cleanly(tmp_path, capsys):
    scene = _make_scene(tmp_path)
    ck, h = str(tmp_path / "p.ck"), str(tmp_path / "p.csv")
    assert _run(["train", scene, "--checkpoint", ck, "--history", h]
                + _TRAIN_FLAGS) == 0
    ck2, h2 = str(tmp_path / "p2.ck"), str(tmp_path / "p2.csv")
    capsys.readouterr()
    assert _run(["train", scene, "--checkpoint", ck2, "--history", h2,
                 "--resume", ck] + _TRAIN_FLAGS + ["--total-steps", "40"]) == 1
    assert capsys.readouterr().err.startswith("error: resume:")
    assert not os.path.exists(ck2)
    assert not os.path.exists(h2)


def test_bad_checkpoint_manifest_fails_cleanly(tmp_path, capsys):
    """Manifest fields and the body are outside input: a step, skipped count
    or optimizer step that is not a non-negative integer, a config that is
    not an object, a block_rows of 3.0 (an integer is required), a tensor of
    the wrong rank and a non-finite value in the body (a parameter or an
    Adam moment) each end in `error: <path>: ...` with exit 1, and the
    command leaves no output file."""
    scene = _make_scene(tmp_path)
    ck, h = str(tmp_path / "m.ck"), str(tmp_path / "m.csv")
    assert _run(["train", scene, "--checkpoint", ck, "--history", h] + _TRAIN_FLAGS) == 0
    magic, manifest, body = open(ck, "rb").read().split(b"\n", 2)
    man = json.loads(manifest)
    flat_dict1 = [dict(e, shape=[8 * 18]) if e["name"] == "dict1" else e
                  for e in man["tensors"]]
    edits = [("step", "abc"), ("skipped", "a"), ("opt_step", "x"), ("config", [1]),
             ("block_rows", 3.0), ("tensors", flat_dict1)]
    files = [(key, "", json.dumps(dict(man, **{key: value})).encode() + b"\n" + body)
             for key, value in edits]
    # a NaN in the last dictionary and an infinity in Adam's last moment
    names = [e["name"] for e in man["tensors"]]
    dict2_at = 8 * sum(int(np.prod(e["shape"])) for e in man["tensors"][:names.index("dict2")])
    for name, at, value in (("dict2", dict2_at, np.nan), ("adam_v/gamma", len(body) - 8, np.inf)):
        files.append((name, f"tensor {name} has a non-finite value", manifest + b"\n"
                      + body[:at] + np.float64(value).tobytes() + body[at + 8:]))
    ck2, h2, rec = (str(tmp_path / name) for name in ("m2.ck", "m2.csv", "rec.txt"))
    for i, (key, message, rest) in enumerate(files):
        bad = str(tmp_path / f"bad{i}.ck")
        with open(bad, "wb") as fh:
            fh.write(magic + b"\n" + rest)
        for argv, outputs in (
                (["train", scene, "--checkpoint", ck2, "--history", h2, "--resume", bad]
                 + _TRAIN_FLAGS + ["--total-steps", "80"], [ck2, h2]),
                (["reconstruct", scene, bad, "--out", rec], [rec]),
                (["evaluate", "--coherence", bad], [])):
            capsys.readouterr()
            assert _run(argv) == 1, (key, argv[0])
            assert capsys.readouterr().err.startswith(f"error: {bad}: {message}"), (key, argv[0])
            assert not any(os.path.exists(p) for p in outputs), (key, argv[0])


@pytest.mark.parametrize("generate, digests", [
    pytest.param(["--seed", "5"], {
        "rec.txt": "8be3008c8ed1c030033376dddc69707e3b1ed5e3a590cc6060f9ac2a3d8196a0",
        "cum.csv": "6694f09bd3ad93cc35c78d7fdb569f5a2d90604304a2f04d75891d0623c2d152",
        "stdout": "4fdac801372a30bc4e211c340bf1676665d335888cde1bb8aee9993cf210819b"},
        id="orthogonal"),
    pytest.param(["--mode", "weak_perspective", "--max-missing", "2", "--seed", "6"], {
        "rec.txt": "c38204af6bc72fdf74a02507913ead164cb2fe9f081f347bf06eecd6e4783c2d",
        "cum.csv": "37722ce7ce17ef88f43988fb0b075fff7f96456ec44b236998fc8b8fcb6a12ae",
        "stdout": "086f61ba5c06444ba586a4079aa47d86cb0f5df20dc96b03af39fea3813126c5"},
        id="weak-perspective-missing"),
])
def test_reconstruct_and_evaluate_bytes_are_pinned(tmp_path, capsys, monkeypatch, generate,
                                                   digests):
    """`reconstruct` and `evaluate --cumulative --coherence` keep the bytes
    they wrote when every command still parsed every section of its scenes:
    rec.txt, the cumulative CSV and the two commands' stdout, which names
    only relative paths (re-pinned when the cameras' polar factor became
    closed-form, and the cumulative CSVs when the 3D error's 3x3 polar
    factor became a Newton iteration: 2 and 6 of 34 numbers moved, by at
    most 1.5e-16 and 2.8e-16 relative)."""
    monkeypatch.chdir(tmp_path)
    assert _run(["generate", "--points", "8", "--frames", "16", "--width-first", "6",
                 "--width-last", "3", "--sparsity", "1", "--out", "scene.txt"] + generate) == 0
    assert _run(["train", "scene.txt", "--checkpoint", "model.ckpt", "--history", "h.csv",
                 "--width-first", "6", "--width-last", "3", "--activation", "soft",
                 "--batch-size", "8", "--total-steps", "40", "--eval-interval", "20",
                 "--seed", "2", "--quiet"]) == 0
    capsys.readouterr()
    assert _run(["reconstruct", "scene.txt", "model.ckpt", "--out", "rec.txt"]) == 0
    assert _run(["evaluate", "rec.txt", "scene.txt", "--cumulative", "cum.csv",
                 "--coherence", "model.ckpt"]) == 0
    outputs = {"rec.txt": open("rec.txt", "rb").read(), "cum.csv": open("cum.csv", "rb").read(),
               "stdout": capsys.readouterr().out.encode()}
    assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == digests


def test_pipeline_bytes_across_a_block_boundary_are_pinned(tmp_path, capsys, monkeypatch):
    """At F=600 every pass over the scene runs a 256-frame block and a
    344-frame block: the history, rec.txt, the cumulative CSV and the
    reconstruct and evaluate stdout keep the bytes they had when each pass
    ran all frames in one forward call (re-pinned when the cameras' polar
    factor became closed-form, and the cumulative CSV when the 3D error's
    3x3 polar factor became a Newton iteration: 141 of 1,202 numbers moved,
    by at most 2.8e-16 relative)."""
    monkeypatch.chdir(tmp_path)
    assert _run(["generate", "--points", "8", "--frames", "600", "--width-first", "6",
                 "--width-last", "3", "--sparsity", "1", "--mode", "weak_perspective",
                 "--max-missing", "2", "--seed", "7", "--out", "scene.txt"]) == 0
    assert _run(["train", "scene.txt", "--checkpoint", "model.ckpt", "--history", "h.csv",
                 "--width-first", "6", "--width-last", "3", "--activation", "soft",
                 "--batch-size", "8", "--total-steps", "40", "--eval-interval", "20",
                 "--seed", "2", "--quiet"]) == 0
    capsys.readouterr()
    assert _run(["reconstruct", "scene.txt", "model.ckpt", "--out", "rec.txt"]) == 0
    assert _run(["evaluate", "rec.txt", "scene.txt", "--cumulative", "cum.csv",
                 "--coherence", "model.ckpt"]) == 0
    outputs = {name: open(name, "rb").read() for name in ("h.csv", "rec.txt", "cum.csv")}
    outputs["stdout"] = capsys.readouterr().out.encode()
    assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == {
        "h.csv": "039ecacad95498f8598e9f7e5f586eb6ad1f8c6f08c74a7d0a22c7b7d55eefc3",
        "rec.txt": "09d52b4ad3c3724179505b3d89d49f92fb21e8a43441617f7bdc7f9319b2075d",
        "cum.csv": "1cf27a460c24527160c814f8ba05a8fe12a439f5bad70952381246ee66d7f347",
        "stdout": "302cf3fbc665ceb1f4df397561dadd00f98576104a87134329337e445d6b592a"}


def test_reconstruct_denormalizes_through_the_scene_file(tmp_path, capsys, monkeypatch):
    """A scene file that carries [normalization], reconstructed with a
    checkpoint trained with --normalize none, is mapped back through the
    file's records: the output keeps the bytes it had when `reconstruct`
    parsed every section (re-pinned when the cameras' polar factor became
    closed-form)."""
    monkeypatch.chdir(tmp_path)
    assert _run(["generate", "--points", "8", "--frames", "16", "--width-first", "6",
                 "--width-last", "3", "--sparsity", "1", "--mode", "weak_perspective",
                 "--max-missing", "2", "--seed", "7", "--out", "raw.txt"]) == 0
    save_scene(normalize_scene(load_scene("raw.txt"), "bbox"), "scene.txt")
    assert _run(["train", "scene.txt", "--checkpoint", "model.ckpt", "--history", "h.csv",
                 "--width-first", "6", "--width-last", "3", "--activation", "soft",
                 "--batch-size", "8", "--total-steps", "40", "--eval-interval", "20",
                 "--normalize", "none", "--seed", "2", "--quiet"]) == 0
    assert _run(["reconstruct", "scene.txt", "model.ckpt", "--out", "rec.txt"]) == 0
    assert hashlib.sha256(open("rec.txt", "rb").read()).hexdigest() == (
        "7c81635c971944428c72815fc565ba00e7c367d49e231c2172986ba76d68197e")


def _edit_record(src, dst, section, row, field, value):
    """Copy scene file src to dst with one field of one record of section replaced."""
    lines = open(src).read().splitlines()
    i = lines.index(f"[{section}]") + 2 + row
    parts = lines[i].split(",")
    parts[field] = value
    lines[i] = ",".join(parts)
    with open(dst, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_evaluate_parses_only_shapes(tmp_path, capsys, monkeypatch):
    """`evaluate` reads the records of [shapes] alone: a corrupt [measurements]
    or [cameras] record in either input changes neither its output nor its
    CSV, while a [shapes] section that is missing or holds a NaN still ends
    in the same error."""
    monkeypatch.chdir(tmp_path)
    for name, seed in (("est.txt", "4"), ("truth.txt", "5")):
        assert _run(["generate", "--points", "6", "--frames", "5", "--width-first", "4",
                     "--width-last", "2", "--mode", "weak_perspective", "--max-missing", "2",
                     "--seed", seed, "--out", name]) == 0
    capsys.readouterr()

    def evaluate(est, truth):
        code = _run(["evaluate", est, truth, "--cumulative", "cum.csv"])
        out, err = capsys.readouterr()
        return code, out, err, open("cum.csv", "rb").read() if code == 0 else None

    clean = evaluate("est.txt", "truth.txt")
    assert clean[0] == 0 and clean[1].startswith("error ")
    for section, field, value in (("measurements", 2, "x"), ("measurements", 4, "2"),
                                  ("cameras", 3, "nan"), ("cameras", 0, "9")):
        for which in ("est.txt", "truth.txt"):
            _edit_record(which, "bad.txt", section, 1, field, value)
            with pytest.raises(SceneFormatError):
                load_scene("bad.txt")
            files = ["bad.txt" if f == which else f for f in ("est.txt", "truth.txt")]
            assert evaluate(*files) == (0, clean[1], "", clean[3]), (section, which)

    lines = open("truth.txt").read().splitlines()
    start, stop = lines.index("[shapes]"), lines.index("[cameras]")
    with open("noshapes.txt", "w") as fh:
        fh.write("\n".join(lines[:start] + lines[stop:]) + "\n")
    _edit_record("truth.txt", "nan.txt", "shapes", 3, 3, "nan")
    for truth, message in (("noshapes.txt", "both files must carry a [shapes] section"),
                           ("nan.txt", "nan.txt: section [shapes] has a non-finite value")):
        for files in (("est.txt", truth), (truth, "est.txt")):
            code, out, err, _ = evaluate(*files)
            assert (code, out, err) == (1, "", f"error: {message}\n"), files


@pytest.mark.parametrize("defect", ["unknown-section", "header-row", "empty-section"])
def test_structural_defect_in_any_section_fails_every_command(tmp_path, capsys, monkeypatch,
                                                               defect):
    """Every section's structure is checked whichever sections a command
    parses: an unknown section, a wrong header row or a section without
    records, in any of the four sections, ends `train`, `reconstruct` and
    `evaluate` (either input) with exit 1, the reader's message and no
    output file."""
    monkeypatch.chdir(tmp_path)
    assert _run(["generate", "--points", "6", "--frames", "5", "--width-first", "4",
                 "--width-last", "2", "--mode", "weak_perspective", "--max-missing", "2",
                 "--seed", "4", "--out", "raw.txt"]) == 0
    save_scene(normalize_scene(load_scene("raw.txt"), "bbox"), "good.txt")
    lines = open("good.txt").read().splitlines()
    for section in ("measurements", "shapes", "cameras", "normalization"):
        bad = list(lines)
        i = bad.index(f"[{section}]")
        if defect == "unknown-section":
            bad[i] = "[extra]"
            message = f"bad.txt:{i + 1}: unknown section [extra]"
        elif defect == "header-row":
            bad[i + 1] = bad[i + 1].upper()
            message = f"bad.txt:{i + 2}: section [{section}] has header row"
        else:
            end = next((j for j in range(i + 1, len(bad)) if bad[j].startswith("[")), len(bad))
            del bad[i + 2:end]
            message = f"bad.txt: empty section [{section}]"
        with open("bad.txt", "w") as fh:
            fh.write("\n".join(bad) + "\n")
        for argv in (["train", "bad.txt", "--checkpoint", "out.ckpt", "--history", "out.csv"],
                     ["reconstruct", "bad.txt", "missing.ckpt", "--out", "out.txt"],
                     ["evaluate", "bad.txt", "good.txt", "--cumulative", "out.csv"],
                     ["evaluate", "good.txt", "bad.txt", "--cumulative", "out.csv"]):
            capsys.readouterr()
            assert _run(argv) == 1, (section, argv)
            assert capsys.readouterr().err.startswith(f"error: {message}"), (section, argv)
            assert not any(os.path.exists(p) for p in ("out.ckpt", "out.csv", "out.txt"))
