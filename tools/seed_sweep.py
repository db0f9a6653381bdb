"""Accuracy of two checkouts over training seeds, written as one JSON file.

    python3 tools/seed_sweep.py --base REV_OR_DIR --change REV_OR_DIR --out SEEDS_<pr>.json

The accuracy twin of tools/bench_pairs.py, whose `checkout` makes each side:
a directory copied, or a git revision of this repository exported.  In each
side, TrainConfig seeds 0-5 train on the clean, noise and missing scenes of
acceptance criteria 5, 6 and 7, each run in its own process with that
side's `src` and one BLAS thread.  The scenes and the training are
tests/test_acceptance.py's own, loaded by path from this tree for both
sides: its `_run_bench`, with only the config's seed replaced.  Per run the
file holds the final 3D error, mean loss and coherence, the skipped frame
visits, the minority-hand fraction (a frame's hand is the sign of
det(S_est^T S_gt); the fraction is the share of valid frames in the rarer
hand, and a run above SPLIT is split) and, on the missing scene, the mean
error by number of hidden points.  Per seed it holds criteria 5, 6 and 7
under that seed (their error bounds; criterion 7's mask check does not
depend on the seed), and per side the pass counts and the split runs.
"""

import argparse
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS)
ACCEPTANCE = os.path.join(ROOT, "tests", "test_acceptance.py")
SEEDS = list(range(6))
# the keyword arguments criteria 5, 6 and 7 pass to test_acceptance._bench
SCENES = {"clean": {}, "noise": {"noise": 0.10}, "missing": {"max_missing": 3}}
SPLIT = 0.03
CLEAN_TARGET = 0.05     # criterion 5's bound; 6 and 7 allow twice the clean error
JOBS = 2                # runs at once, each in its own process


def load_acceptance():
    spec = importlib.util.spec_from_file_location("acceptance", ACCEPTANCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def train_run(acceptance, scene_kw, seed):
    """(scene, TrainResult) of acceptance._run_bench(**scene_kw) with the
    config's seed set to seed."""
    seen = {}
    real = acceptance.train

    def seeded(scene, config, **kw):
        seen["scene"] = scene
        return real(scene, dataclasses.replace(config, seed=seed), **kw)

    acceptance.train = seeded
    try:
        result = acceptance._run_bench(**scene_kw)
    finally:
        acceptance.train = real
    return seen["scene"], result


def worker(name, seed):
    """One run's figures as a dict; nrsfm comes from the working directory's src."""
    import numpy as np
    from nrsfm.geometry import frame_3d_errors
    from nrsfm.training import _scene_pass

    scene, result = train_run(load_acceptance(), SCENES[name], seed)
    last = result.history.records[-1]
    _, valid, shapes, _, _ = _scene_pass(scene, result.params)   # as the history's error3d
    est, gt = shapes[valid], scene.gt_shapes[valid]
    hands = np.linalg.det(np.swapaxes(est, 1, 2) @ gt) > 0
    run = {"error3d": last.error3d, "mean_loss": last.mean_loss, "coherence": last.coherence,
           "skipped": result.skipped, "valid_frames": int(valid.sum()),
           "minority_hand": float(min(hands.mean(), 1 - hands.mean()))}
    if name == "missing":
        hidden = (~scene.visibility[valid]).sum(axis=1)
        errors = frame_3d_errors(est, gt)
        run["error_by_hidden"] = {int(h): float(errors[hidden == h].mean())
                                  for h in np.unique(hidden)}
    return run


def run_side(path):
    """{scene: [run per seed]} for the checkout at path."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(path, "src"))

    def one(task):
        name, seed = task
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", name,
                               str(seed)], cwd=path, env=env, capture_output=True, text=True)
        if proc.returncode:
            sys.exit(f"error: {name} seed {seed} failed in {path}:\n{proc.stderr[-2000:]}")
        print(f"{os.path.basename(path)} {name} seed {seed}: {proc.stdout.strip()}",
              file=sys.stderr, flush=True)
        return json.loads(proc.stdout)

    tasks = [(name, seed) for name in SCENES for seed in SEEDS]
    with ThreadPoolExecutor(JOBS) as pool:
        runs = list(pool.map(one, tasks))
    return {name: [run for (n, _), run in zip(tasks, runs) if n == name] for name in SCENES}


def criteria(runs):
    """Criteria 5, 6 and 7 per seed, and the side's summary."""
    per_seed = []
    for i, seed in enumerate(SEEDS):
        clean = runs["clean"][i]["error3d"]
        per_seed.append({"seed": seed,
                         "criterion_5": clean <= CLEAN_TARGET,
                         "criterion_6": runs["noise"][i]["error3d"] <= 2 * clean,
                         "criterion_7": runs["missing"][i]["error3d"] <= 2 * clean})
    every = [run for name in SCENES for run in runs[name]]
    summary = {f"criterion_{k}_passes": sum(s[f"criterion_{k}"] for s in per_seed)
               for k in (5, 6, 7)}
    summary.update(seeds=len(SEEDS), runs=len(every),
                   split_runs=sum(run["minority_hand"] > SPLIT for run in every))
    return per_seed, summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="checkout directory or git revision")
    parser.add_argument("--change", help="checkout directory or git revision")
    parser.add_argument("--out")
    parser.add_argument("--worker", nargs=2, metavar=("SCENE", "SEED"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(worker(args.worker[0], int(args.worker[1]))))
        return 0
    if not (args.base and args.change and args.out):
        parser.error("--base, --change and --out are required")

    sys.path.insert(0, TOOLS)
    from bench_pairs import checkout

    result = {"about": " ".join(__doc__.split("\n\n")[2].split()),
              "command": " ".join([os.path.relpath(sys.argv[0], ROOT)] + sys.argv[1:]),
              "seeds": SEEDS, "scenes": SCENES, "split_threshold": SPLIT, "sides": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for side in ("base", "change"):
            spec = getattr(args, side)
            path, tree = checkout(spec, tmp, side)
            runs = run_side(path)
            per_seed, summary = criteria(runs)
            result["sides"][side] = {"spec": spec, "src_tree": tree, "summary": summary,
                                     "criteria": per_seed, "runs": runs}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for side, data in result["sides"].items():
        print(side, json.dumps(data["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
