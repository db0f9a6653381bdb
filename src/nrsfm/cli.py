"""Command-line pipeline: generate synthetic scenes, train, reconstruct,
and evaluate.

Every subcommand is deterministic given its flags and --seed.  Each output is
claimed from `main`, written to a new temporary file beside it and renamed
into place once the command succeeds, so a failing command leaves every file as it was.
"""

import argparse
import os
import sys
import tempfile
from contextlib import suppress
from dataclasses import astuple, fields, replace

import numpy as np

from .data import (PlantedSpec, load_checkpoint, load_scene, normalize_scene,
                   read_scene_sections, save_checkpoint, save_scene, synth_planted)
from .geometry import frame_3d_errors, mutual_coherence
from .model import CameraRankError
from .training import (HistoryRecord, TrainConfig, last_dictionary_atoms,
                       reconstruct, train)

_CONFIG_FIELDS = {f.name: f.type for f in fields(TrainConfig)}


def _add_field_flags(sub, schema, **names):
    """One --field-name flag per field of the dataclass schema (names maps a
    field to another flag name): a bool field is a switch, a "choices" entry
    in a field's metadata limits its values, and an unset flag stays None."""
    for f in fields(schema):
        flag = "--" + names.get(f.name, f.name).replace("_", "-")
        if f.type is bool:
            sub.add_argument(flag, dest=f.name, action="store_const", const=True)
        else:
            sub.add_argument(flag, dest=f.name, type=f.type,
                             choices=f.metadata.get("choices"))


def _given_fields(args, schema):
    """The schema's fields whose flags were given, by field name."""
    return {f.name: v for f in fields(schema) if (v := getattr(args, f.name)) is not None}


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_config_file(path):
    """key=value lines; '#' starts a comment; keys must be TrainConfig fields.
    Returns the values as their fields' types; a value that is not of its
    field's type is refused naming the line and the key."""
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
            kind = _CONFIG_FIELDS[key]
            try:
                out[key] = _BOOLEANS[value.lower()] if kind is bool else kind(value)
            except (KeyError, ValueError):
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {value!r} "
                                 f"(expected {kind.__name__})") from None
    return out


def _csv_cell(value):
    """'' for None, 17 significant digits for a float, str otherwise."""
    if value is None:
        return ""
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _write_csv(path, header, rows, comments=()):
    """Write '# ' comment lines, a header line and one line of _csv_cell cells per row."""
    with open(path, "w") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        fh.write(header + "\n")
        fh.writelines(",".join(map(_csv_cell, row)) + "\n" for row in rows)


def cmd_generate(args, out):
    params_out = args.params_out or args.out + ".params"
    scene_file, params_file = out("--out", args.out), out("--params-out", params_out)
    scene, params = synth_planted(PlantedSpec(**_given_fields(args, PlantedSpec)))
    save_scene(scene, scene_file)
    save_checkpoint(params_file, params)
    print(f"wrote {args.out} ({scene.frame_count} frames, "
          f"{scene.point_count} points, mode={scene.mode}) and {params_out}")
    return 0


def cmd_train(args, out):
    checkpoint, history = out("--checkpoint", args.checkpoint), out("--history", args.history)
    scene = load_scene(args.scene)
    # TrainConfig defaults < config file < explicit flags
    merged = _parse_config_file(args.config) if args.config else {}
    merged.update(_given_fields(args, TrainConfig))
    config = TrainConfig(**merged)
    if config.translation and scene.mode != "weak_perspective":
        raise ValueError("translation mode requires a weak-perspective scene")
    scene_n = normalize_scene(scene, config.normalize)

    init = None
    if args.resume:
        params, _, opt_state, step, skipped = load_checkpoint(args.resume)
        init = (params, opt_state, step, skipped)

    result = train(scene_n, config, init=init, verbose=not args.quiet)

    save_checkpoint(checkpoint, result.params, config=config,
                    opt_state=result.opt_state, step=config.total_steps,
                    skipped=result.skipped)

    _write_csv(history, ",".join(f.name for f in fields(HistoryRecord)),
               map(astuple, result.history.records),
               [f"scene={args.scene}"] + [f"{key}={merged[key]}" for key in sorted(merged)])
    print(f"wrote {args.checkpoint} and {args.history}")
    return 0


def cmd_reconstruct(args, out):
    # [normalization] de-normalizes a `--normalize none` model; [shapes] and [cameras] are replaced
    scene = load_scene(args.scene, ("normalization",))
    params, config, _, _, _ = load_checkpoint(args.checkpoint)
    if params.point_count != scene.point_count:
        raise ValueError(
            f"checkpoint expects {params.point_count} points, "
            f"scene has {scene.point_count}")
    normalize = (config or {}).get("normalize", TrainConfig.normalize)
    scene_n = normalize_scene(scene, normalize)
    pairs = reconstruct(scene_n, params)

    rec = replace(scene, gt_shapes=np.stack([S for S, _ in pairs]),
                  gt_rotations=np.stack([cam.rotation for _, cam in pairs]),
                  gt_translations=np.stack([cam.translation for _, cam in pairs]),
                  norm_centroids=None, norm_scales=None)
    save_scene(rec, out("--out", args.out))
    print(f"wrote {args.out} ({rec.frame_count} frames)")
    return 0


def cmd_evaluate(args, out):
    if not (args.estimates and args.truth
            or args.coherence and not args.estimates and not args.cumulative):
        raise ValueError("evaluate needs an estimates file and a truth file "
                         "(or --coherence alone)")
    if args.coherence:
        params, _, _, _, _ = load_checkpoint(args.coherence)
        print(f"coherence {mutual_coherence(last_dictionary_atoms(params)):.6f}")
        if not args.estimates:
            return 0
    # only [shapes] is parsed: the other sections' records are not used
    _, (F, P), est = read_scene_sections(args.estimates, ("shapes",))
    mode, (G, Q), gt = read_scene_sections(args.truth, ("shapes",))
    if "shapes" not in est or "shapes" not in gt:
        raise ValueError("both files must carry a [shapes] section")
    if (F, P) != (G, Q):
        raise ValueError(f"shape mismatch: estimates {(F, P, 3)} vs truth {(G, Q, 3)}")
    errs = frame_3d_errors(est["shapes"].reshape(F, P, 3), gt["shapes"].reshape(F, P, 3),
                           allow_scale=mode == "weak_perspective")
    print(f"error {np.mean(errs):.6f}")
    if args.cumulative:
        errs = np.sort(errs)
        rows = [(0, np.count_nonzero(errs <= 0) / F)]
        rows += [(e, (i + 1) / F) for i, e in enumerate(errs)]
        _write_csv(out("--cumulative", args.cumulative), "threshold,fraction", rows)
        print(f"wrote {args.cumulative}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nrsfm",
        description="Non-rigid structure from motion via hierarchical "
                    "block-sparse coding.")
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("generate", help="write a synthetic planted scene")
    g.set_defaults(run=cmd_generate)
    _add_field_flags(g, PlantedSpec, camera_mode="mode", noise_ratio="noise")
    g.add_argument("--out", required=True, help="scene file to write")
    g.add_argument("--params-out", dest="params_out",
                   help="ground-truth params checkpoint (default OUT.params)")

    t = subs.add_parser("train", help="train a model on a scene")
    t.set_defaults(run=cmd_train)
    t.add_argument("scene", help="input scene file")
    t.add_argument("--checkpoint", required=True, help="checkpoint to write")
    t.add_argument("--history", required=True, help="history CSV to write")
    t.add_argument("--resume", help="checkpoint to resume from")
    t.add_argument("--quiet", action="store_true")
    t.add_argument("--config", help="key=value config file (flags override)")
    _add_field_flags(t, TrainConfig)

    r = subs.add_parser("reconstruct", help="infer shapes/cameras for a scene")
    r.set_defaults(run=cmd_reconstruct)
    r.add_argument("scene", help="input scene file")
    r.add_argument("checkpoint", help="trained checkpoint")
    r.add_argument("--out", required=True, help="scene file with shapes/cameras")

    e = subs.add_parser("evaluate", help="report reconstruction metrics")
    e.set_defaults(run=cmd_evaluate)
    e.add_argument("estimates", nargs="?", help="scene file with estimated shapes")
    e.add_argument("truth", nargs="?", help="scene file with ground-truth shapes")
    e.add_argument("--cumulative", help="write (threshold, fraction) CSV here")
    e.add_argument("--coherence", help="print coherence of this checkpoint's "
                                       "final dictionary")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    claimed = {}  # real path of each output -> (the flag that named it, its temporary file)
    umask = os.umask(0)
    os.umask(umask)

    def out(flag, path):
        """Claim path for flag and return a new temporary file beside it to
        write it to; refuse a file that another output claimed."""
        real = os.path.realpath(path)
        if real in claimed:
            raise ValueError(f"{claimed[real][0]} and {flag} name the same file {path!r}")
        fd, partial = tempfile.mkstemp(".partial", os.path.basename(real) + ".",
                                       os.path.dirname(real))
        claimed[real] = (flag, partial)
        os.fchmod(fd, 0o666 & ~umask)   # mkstemp's mode is 0600
        os.close(fd)
        return partial

    try:
        code = args.run(args, out)
        for real, (_, partial) in claimed.items():
            os.replace(partial, real)
        return code
    except (ValueError, OSError, FloatingPointError, CameraRankError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for _, partial in claimed.values():
            with suppress(OSError):
                os.remove(partial)


if __name__ == "__main__":
    sys.exit(main())
