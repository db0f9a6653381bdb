"""Command-line pipeline: generate synthetic scenes, train, reconstruct,
and evaluate.

Every subcommand is deterministic given its flags and --seed.  Exit code is
0 only when all requested artifacts were fully written; on failure, partial
outputs are removed.
"""

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from .data import (PlantedSpec, load_checkpoint, load_scene, make_missing,
                   normalize_scene, save_checkpoint, save_scene,
                   synth_planted)
from .geometry import CAMERA_MODES, frame_3d_errors, mutual_coherence
from .model import CameraRankError
from .training import (OptimizerState, TrainConfig, last_dictionary_atoms,
                       reconstruct, train)

_CONFIG_FIELDS = {f.name: f.type for f in fields(TrainConfig)}


def _parse_config_file(path):
    """key=value lines; '#' starts a comment; keys must be TrainConfig fields."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (tok.strip() for tok in line.split("=", 1))
            if key not in _CONFIG_FIELDS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            out[key] = value
    return out


def _coerce(key, value):
    kind = _CONFIG_FIELDS[key]
    if kind is bool:
        if isinstance(value, bool):
            return value
        if value.lower() in ("1", "true", "yes"):
            return True
        if value.lower() in ("0", "false", "no"):
            return False
        raise ValueError(f"bad boolean for {key}: {value!r}")
    return kind(value)


def _build_config(args):
    """Merge TrainConfig defaults < config file < explicit flags."""
    merged = {}
    if args.config:
        for key, value in _parse_config_file(args.config).items():
            merged[key] = _coerce(key, value)
    for key in _CONFIG_FIELDS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = _coerce(key, flag)
    return TrainConfig(**merged), merged


class _Artifacts:
    """Tracks output paths so a failed command can clean up after itself."""

    def __init__(self):
        self.paths = []

    def add(self, path):
        self.paths.append(path)
        return path

    def remove_all(self):
        for path in self.paths:
            try:
                os.remove(path)
            except OSError:
                pass


def cmd_generate(args, artifacts):
    spec = PlantedSpec(points=args.points, frames=args.frames,
                       layers=args.layers, width_first=args.width_first,
                       width_last=args.width_last, sparsity=args.sparsity,
                       camera_mode=args.mode, noise_ratio=args.noise,
                       max_missing=args.max_missing, seed=args.seed)
    scene, params = synth_planted(spec)
    artifacts.add(args.out)
    save_scene(scene, args.out)
    params_out = args.params_out or args.out + ".params"
    artifacts.add(params_out)
    save_checkpoint(params_out, params)
    print(f"wrote {args.out} ({scene.frame_count} frames, "
          f"{scene.point_count} points, mode={scene.mode}) and {params_out}")
    return 0


def cmd_train(args, artifacts):
    scene = load_scene(args.scene)
    config, merged = _build_config(args)
    if config.translation and scene.mode != "weak_perspective":
        raise ValueError("translation mode requires a weak-perspective scene")
    scene_n = normalize_scene(scene, config.normalize)

    init = None
    if args.resume:
        params, _, opt_state, step, skipped = load_checkpoint(args.resume)
        if opt_state is None:
            opt_state = OptimizerState.zeros(params)
        init = (params, opt_state, step, skipped)

    result = train(scene_n, config, init=init, verbose=not args.quiet)

    artifacts.add(args.checkpoint)
    save_checkpoint(args.checkpoint, result.params, config=config,
                    opt_state=result.opt_state, step=config.total_steps,
                    skipped=result.skipped)

    lines = [f"# scene={args.scene}"]
    for key in sorted(merged):
        lines.append(f"# {key}={merged[key]}")
    lines.append("step,mean_loss,coherence,error3d,skipped")
    for rec in result.history.records:
        err = "" if rec.error3d is None else format(rec.error3d, ".17g")
        lines.append(f"{rec.step},{format(rec.mean_loss, '.17g')},"
                     f"{format(rec.coherence, '.17g')},{err},{rec.skipped}")
    artifacts.add(args.history)
    with open(args.history, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.checkpoint} and {args.history}")
    return 0


def cmd_reconstruct(args, artifacts):
    scene = load_scene(args.scene)
    params, config, _, _, _ = load_checkpoint(args.checkpoint)
    if params.point_count != scene.point_count:
        raise ValueError(
            f"checkpoint expects {params.point_count} points, "
            f"scene has {scene.point_count}")
    normalize = (config or {}).get("normalize", "bbox")
    scene_n = normalize_scene(scene, normalize)
    pairs = reconstruct(scene_n, params)

    out = scene.copy()
    out.gt_shapes = np.stack([S for S, _ in pairs])
    out.gt_rotations = np.stack([cam.rotation for _, cam in pairs])
    out.gt_scales = np.array([cam.scale for _, cam in pairs])
    out.gt_translations = np.stack([cam.translation for _, cam in pairs])
    out.norm_centroids = None
    out.norm_scales = None
    artifacts.add(args.out)
    save_scene(out, args.out)
    print(f"wrote {args.out} ({out.frame_count} frames)")
    return 0


def cmd_evaluate(args, artifacts):
    if args.coherence:
        params, _, _, _, _ = load_checkpoint(args.coherence)
        print(f"coherence {mutual_coherence(last_dictionary_atoms(params)):.6f}")
        if not args.estimates:
            return 0
    if not (args.estimates and args.truth):
        raise ValueError("evaluate needs an estimates file and a truth file "
                         "(or --coherence alone)")
    est = load_scene(args.estimates)
    gt = load_scene(args.truth)
    if est.gt_shapes is None or gt.gt_shapes is None:
        raise ValueError("both files must carry a [shapes] section")
    if est.gt_shapes.shape != gt.gt_shapes.shape:
        raise ValueError(
            f"shape mismatch: estimates {est.gt_shapes.shape} "
            f"vs truth {gt.gt_shapes.shape}")
    errs = frame_3d_errors(est.gt_shapes, gt.gt_shapes,
                           allow_scale=gt.mode == "weak_perspective")
    print(f"error {np.mean(errs):.6f}")
    if args.cumulative:
        errs = np.sort(errs)
        F = len(errs)
        lines = ["threshold,fraction",
                 f"0,{format(np.count_nonzero(errs <= 0) / F, '.17g')}"]
        for i, e in enumerate(errs):
            lines.append(f"{format(e, '.17g')},{format((i + 1) / F, '.17g')}")
        artifacts.add(args.cumulative)
        with open(args.cumulative, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {args.cumulative}")
    return 0


def _add_train_config_flags(sub):
    sub.add_argument("--config", help="key=value config file (flags override)")
    sub.add_argument("--layers", type=int)
    sub.add_argument("--width-first", dest="width_first", type=int)
    sub.add_argument("--width-last", dest="width_last", type=int)
    sub.add_argument("--activation", choices=["relu", "soft"])
    sub.add_argument("--translation", action="store_const", const=True,
                     default=None)
    sub.add_argument("--batch-size", dest="batch_size", type=int)
    sub.add_argument("--total-steps", dest="total_steps", type=int)
    sub.add_argument("--base-lr", dest="base_lr", type=float)
    sub.add_argument("--decay-factor", dest="decay_factor", type=float)
    sub.add_argument("--decay-steps", dest="decay_steps", type=int)
    sub.add_argument("--eval-interval", dest="eval_interval", type=int)
    sub.add_argument("--normalize", choices=["bbox", "center", "none"])
    sub.add_argument("--seed", type=int)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nrsfm",
        description="Non-rigid structure from motion via hierarchical "
                    "block-sparse coding.")
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("generate", help="write a synthetic planted scene")
    g.add_argument("--points", type=int, default=31)
    g.add_argument("--frames", type=int, default=200)
    g.add_argument("--layers", type=int, default=2)
    g.add_argument("--width-first", dest="width_first", type=int, default=32)
    g.add_argument("--width-last", dest="width_last", type=int, default=8)
    g.add_argument("--sparsity", type=int, default=2)
    g.add_argument("--mode", choices=CAMERA_MODES, default="orthogonal")
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--max-missing", dest="max_missing", type=int, default=0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="scene file to write")
    g.add_argument("--params-out", dest="params_out",
                   help="ground-truth params checkpoint (default OUT.params)")

    t = subs.add_parser("train", help="train a model on a scene")
    t.add_argument("scene", help="input scene file")
    t.add_argument("--checkpoint", required=True, help="checkpoint to write")
    t.add_argument("--history", required=True, help="history CSV to write")
    t.add_argument("--resume", help="checkpoint to resume from")
    t.add_argument("--quiet", action="store_true")
    _add_train_config_flags(t)

    r = subs.add_parser("reconstruct", help="infer shapes/cameras for a scene")
    r.add_argument("scene", help="input scene file")
    r.add_argument("checkpoint", help="trained checkpoint")
    r.add_argument("--out", required=True, help="scene file with shapes/cameras")

    e = subs.add_parser("evaluate", help="report reconstruction metrics")
    e.add_argument("estimates", nargs="?", help="scene file with estimated shapes")
    e.add_argument("truth", nargs="?", help="scene file with ground-truth shapes")
    e.add_argument("--cumulative", help="write (threshold, fraction) CSV here")
    e.add_argument("--coherence", help="print coherence of this checkpoint's "
                                       "final dictionary")
    return parser


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "reconstruct": cmd_reconstruct,
    "evaluate": cmd_evaluate,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    artifacts = _Artifacts()
    try:
        return _COMMANDS[args.command](args, artifacts)
    except (ValueError, OSError, FloatingPointError, CameraRankError) as exc:
        artifacts.remove_all()
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
