"""Check that two checkouts write the same bytes.

    python3 tools/same_bytes.py --base REV_OR_DIR [--change REV_OR_DIR]

Each side is a checkout, as in tools/bench_pairs.py, run from a fresh
temporary directory: a directory copied without `__pycache__`, `.git` and
the benchmark's output, or a git revision of this repository exported with
`git archive`; the change defaults to this working tree.  Five pipelines
run in each checkout under PYTHONPATH=src and OPENBLAS_NUM_THREADS=1, with
an `nrsfm` on PATH that runs the checkout's own package.  Both sides write
into the same output directory, since a training history names its scene's
path:

- demo05: `demos/05_cli_pipeline.sh DIR`;
- acceptance: the acceptance config (P=31, F=2000, scene seed 7, widths
  32->8, batch 64) trained for 3,000 steps, then reconstructed, and the
  reconstruction evaluated against the scene with `--cumulative` and
  `--coherence`;
- transl-soft: a weak-perspective scene (F=2001, noise 0.05, up to 3
  missing points per frame, scene seed 8) trained with `--activation soft
  --translation --batch-size 16` for 2,000 steps, then reconstructed, a
  step that may fail (its exit code and stderr are compared like its
  output).  Its passes over the scene run six 256-frame blocks and a
  465-frame block, the 209-frame tail joined to the last.
- normalize-modes: a weak-perspective scene (F=600, scene seed 9) trained
  for 300 steps with `--normalize center`, then with `--normalize none
  --translation`, each run followed by a reconstruct that may fail, so
  that the two normalization modes the other pipelines do not train with
  are covered;
- refusals: commands that must fail, such as `train --total-steps 0`,
  `generate --points 1` and `train --config` with a file that sets
  `batch_size = 2.5`, so that a change to a user-visible error message
  shows as a `DIFFERS` stderr item.

Every file a pipeline writes and every command's exit code, stdout and
stderr are compared byte for byte.  After each pipeline one more item lists
the `*.partial` files (a command's temporary outputs) left in its output
directory; it is `same` only when both sides list none, so a command that
fails, such as a reconstruct that may, must not leave one behind.  The tool
prints one `same` or `DIFFERS` line per item, then each side's line count
of src/nrsfm/*.py, and exits 1 if any item differs; any other command (all
but the reconstructs that may fail and the refusals) that fails on either
side stops it with exit 2, and so does a refusal that succeeds.  An item
that differs only in its numbers (the two sides are equal once every
number is masked) is marked with how many numbers differ and the largest
relative difference, as in `DIFFERS demo05/cumulative.csv
(numbers only: 137 of 402, max rel 2.3e-15)`.
"""

import argparse
import glob
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

from bench_pairs import ROOT, SIDES, checkout

WIDTHS = ["--width-first", "32", "--width-last", "8"]
SCENE = ["--points", "31", *WIDTHS]
RUN = ["--checkpoint", "{out}/model.ckpt", "--history", "{out}/history.csv", "--quiet"]
LEFTOVER = " *.partial files"   # item name suffix: temporary outputs left behind
NUMBER = re.compile(rb"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\binf\b|\bnan\b)")
RECONSTRUCT = ["nrsfm", "reconstruct", "{out}/scene.txt", "{out}/model.ckpt",
               "--out", "{out}/rec.txt"]


def normalize_run(mode, *flags):
    """Train with --normalize mode and flags for 300 steps, then reconstruct, which may
    fail; each run writes its own files."""
    files = [f"{{out}}/{mode}.ckpt", f"{{out}}/{mode}-history.csv", f"{{out}}/{mode}-rec.txt"]
    return [(f"train-{mode}", ["nrsfm", "train", "{out}/scene.txt", "--checkpoint", files[0],
                               "--history", files[1], "--quiet", *WIDTHS, "--normalize", mode,
                               *flags, "--total-steps", "300"], True),
            (f"reconstruct-{mode}", ["nrsfm", "reconstruct", "{out}/scene.txt", files[0],
                                     "--out", files[2]], None)]


def refusal(name, *argv):
    """A step running `nrsfm argv`, which must fail."""
    return (name, ["nrsfm", *argv], False)


SMALL = ["--width-first", "4", "--width-last", "2"]
GENERATE_NONE = ["generate", "--out", "{out}/none.txt"]
TRAIN_SMALL = ["train", "{out}/scene.txt", *RUN, *SMALL]


# pipeline -> steps of (name, argv with {out} for the output directory,
# True if the step must succeed, False if it must fail, None if it may fail)
PIPELINES = {
    "demo05": [("demo", ["sh", "demos/05_cli_pipeline.sh", "{out}"], True)],
    "acceptance": [
        ("generate", ["nrsfm", "generate", *SCENE, "--frames", "2000", "--seed", "7",
                      "--out", "{out}/scene.txt"], True),
        ("train", ["nrsfm", "train", "{out}/scene.txt", *RUN, *WIDTHS, "--batch-size", "64",
                   "--total-steps", "3000"], True),
        ("reconstruct", RECONSTRUCT, True),
        ("evaluate", ["nrsfm", "evaluate", "{out}/rec.txt", "{out}/scene.txt", "--cumulative",
                      "{out}/cumulative.csv", "--coherence", "{out}/model.ckpt"], True)],
    "transl-soft": [
        ("generate", ["nrsfm", "generate", *SCENE, "--frames", "2001",
                      "--mode", "weak_perspective", "--noise", "0.05", "--max-missing", "3",
                      "--seed", "8", "--out", "{out}/scene.txt"], True),
        ("train", ["nrsfm", "train", "{out}/scene.txt", *RUN, *WIDTHS, "--activation", "soft",
                   "--translation", "--batch-size", "16", "--total-steps", "2000"], True),
        ("reconstruct", RECONSTRUCT, None)],
    "normalize-modes": [
        ("generate", ["nrsfm", "generate", *SCENE, "--frames", "600", "--mode",
                      "weak_perspective", "--seed", "9", "--out", "{out}/scene.txt"], True),
        *normalize_run("center"), *normalize_run("none", "--translation")],
    "refusals": [
        ("generate", ["nrsfm", "generate", "--points", "6", "--frames", "10", *SMALL,
                      "--seed", "1", "--out", "{out}/scene.txt"], True),
        ("configs", ["sh", "-c", 'echo batch_size = 2.5 > "{out}/batch.cfg" && '
                                 'echo normalize = boxes > "{out}/normalize.cfg"'], True),
        refusal("generate-points-1", *GENERATE_NONE, "--points", "1"),
        refusal("generate-frames-0", *GENERATE_NONE, "--frames", "0"),
        refusal("generate-max-missing", *GENERATE_NONE, "--max-missing", "-1"),
        refusal("generate-noise-inf", *GENERATE_NONE, "--noise", "inf"),
        refusal("generate-seed", *GENERATE_NONE, "--seed", "-1"),
        refusal("generate-sparsity", *GENERATE_NONE, "--sparsity", "9"),
        refusal("train-total-steps-0", *TRAIN_SMALL, "--total-steps", "0"),
        refusal("train-batch-size-0", *TRAIN_SMALL, "--batch-size", "0"),
        refusal("train-base-lr-inf", *TRAIN_SMALL, "--base-lr", "inf"),
        refusal("train-width-last-1", "train", "{out}/scene.txt", *RUN, "--width-first", "4",
                "--width-last", "1"),
        refusal("train-config-batch-size", *TRAIN_SMALL, "--config", "{out}/batch.cfg"),
        refusal("train-config-normalize", *TRAIN_SMALL, "--config", "{out}/normalize.cfg")],
}


def run_side(side, path, tmp):
    """Run every pipeline in checkout path: {item name: bytes}, the output
    directory read after each pipeline and then removed."""
    env = dict(os.environ, PYTHONPATH=os.path.join(path, "src"), OPENBLAS_NUM_THREADS="1",
               PATH=os.path.join(tmp, "bin") + os.pathsep + os.environ.get("PATH", ""))
    out, items = os.path.join(tmp, "out"), {}
    for pipeline, steps in PIPELINES.items():
        os.makedirs(out)
        for step, argv, succeeds in steps:
            print(f"{side}: {pipeline} {step}", file=sys.stderr, flush=True)
            proc = subprocess.run([a.format(out=out) for a in argv], cwd=path, env=env,
                                  capture_output=True)
            if succeeds is not None and succeeds != (proc.returncode == 0):
                sys.stderr.buffer.write(proc.stderr[-2000:])
                print(f"error: {side}: {pipeline} {step} exited {proc.returncode}",
                      file=sys.stderr)
                sys.exit(2)
            name = f"{pipeline}/{step}"
            items.update({f"{name} exit code": str(proc.returncode).encode(),
                          f"{name} stdout": proc.stdout, f"{name} stderr": proc.stderr})
        for file in sorted(os.listdir(out)):
            with open(os.path.join(out, file), "rb") as fh:
                items[f"{pipeline}/{file}"] = fh.read()
        items[pipeline + LEFTOVER] = " ".join(
            file for file in sorted(os.listdir(out)) if file.endswith(".partial")).encode()
        shutil.rmtree(out)
    return items


def relative(p, q):
    """|p - q| / max(|p|, |q|) of two floats: 0 if equal, inf if either is not finite."""
    if p == q:
        return 0.0
    if not (math.isfinite(p) and math.isfinite(q)):
        return math.inf
    return abs(p - q) / max(abs(p), abs(q))


def numbers_only(a, b):
    """' (numbers only: n of m, max rel x)' when bytes a and b are equal once
    every number is masked: n of a's m numbers are written differently, and
    x is the largest relative difference among them.  '' when a and b differ
    elsewhere too."""
    if NUMBER.sub(b"#", a) != NUMBER.sub(b"#", b):
        return ""
    pairs = list(zip(NUMBER.findall(a), NUMBER.findall(b)))
    rel = [relative(float(p), float(q)) for p, q in pairs if p != q]
    return f" (numbers only: {len(rel)} of {len(pairs)}, max rel {max(rel, default=0.0):.1e})"


def src_lines(path):
    """Lines of the checkout's src/nrsfm/*.py, as `wc -l` counts them."""
    total = 0
    for name in glob.glob(os.path.join(path, "src", "nrsfm", "*.py")):
        with open(name, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="checkout directory or git revision")
    parser.add_argument("--change", default=ROOT,
                        help="checkout directory or git revision (default: this working tree)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        shim = os.path.join(tmp, "bin", "nrsfm")    # runs the package PYTHONPATH finds
        os.makedirs(os.path.dirname(shim))
        with open(shim, "w") as fh:
            fh.write(f'#!/bin/sh\nexec "{sys.executable}" -m nrsfm.cli "$@"\n')
        os.chmod(shim, 0o755)
        paths = {side: checkout(getattr(args, side), tmp, side)[0] for side in SIDES}
        items = {side: run_side(side, path, tmp) for side, path in paths.items()}
        lines = {side: src_lines(path) for side, path in paths.items()}
    differ = 0
    for name in sorted(items["base"].keys() | items["change"].keys()):
        have = [items[side].get(name) for side in SIDES]
        same = (None not in have and have[0] == have[1]
                and not (name.endswith(LEFTOVER) and have[0]))
        missing = [side for side, v in zip(SIDES, have) if v is None]
        print(f"{'same' if same else 'DIFFERS':8}{name}"
              + (f" (missing on {missing[0]})" if missing else "")
              + (numbers_only(*have) if not missing and have[0] != have[1] else ""))
        differ += not same
    print("src/nrsfm lines: " + ", ".join(f"{side} {lines[side]}" for side in SIDES))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
