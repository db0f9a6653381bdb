"""Paired before/after runs of the benchmark, written as one JSON file.

    python3 tools/bench_pairs.py --base REV_OR_DIR --change REV_OR_DIR --out BENCH_<pr>.json

Each side is a checkout run from a fresh temporary directory: a directory
copied without `__pycache__`, `.git`, `perfbench/.results` and
`perfbench/.work`, or a git revision of this repository exported with `git
archive`.  For each of the seeds 11-20 and every workload in
BENCHMARK.json, `perfbench/run.py --trace 0` runs once in each checkout for
BENCHMARK.json's `run_seconds`, one after the other; which side goes first
alternates from seed to seed, so that a drift of the shared machine's speed
falls on both sides alike.  The
output holds every run's end-to-end metrics and correctness, each side's
median and quartiles, the number of pairs the change wins, the seeds, and
the environment that perfbench reports (BLAS threads, nproc, numpy); each
run also keeps its wall times and reference bursts, so a disturbed run can
be told from the file alone.  Per metric, the seeds at which either side's
value lies outside that side's Tukey fences (Q1 - 1.5 IQR to Q3 + 1.5 IQR)
are listed, with the pairs the change wins once those seeds are left out.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from statistics import quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")
# Report figures kept next to the end-to-end metrics: the deterministic
# result, so both sides can be seen to compute the same thing, and the
# wall times that pass_ref and setup_s normalise.
EXTRA = ("error3d", "ops_failed_frac", "pass_s", "setup_wall_s")
SEEDS = list(range(11, 21))
# left out when a directory side is copied: bytecode, history, benchmark output
SKIP = {"__pycache__", ".git", os.path.join("perfbench", ".results"),
        os.path.join("perfbench", ".work")}


def checkout(spec, tmp, label):
    """(directory to run in, id of its src/ tree or None): tmp/label holding
    directory spec copied without SKIP, or git revision spec exported with
    git archive."""
    path = os.path.join(tmp, label)
    if os.path.isdir(spec):
        def skip(directory, names):
            rel = os.path.relpath(directory, spec)
            return {n for n in names
                    if n in SKIP or os.path.normpath(os.path.join(rel, n)) in SKIP}
        shutil.copytree(spec, path, ignore=skip)
        return path, None
    tree = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", spec + ":src"],
                          capture_output=True, text=True, check=True).stdout.strip()
    os.makedirs(path)
    archive = subprocess.run(["git", "-C", ROOT, "archive", spec], capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", path], input=archive, check=True)
    return path, tree


def run(path, workload, seed, seconds):
    """One untraced perfbench run: (result line, report) as parsed JSON."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=path, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"error: perfbench failed in {path} ({workload}, seed {seed}), "
                 f"exit {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(next(line for line in lines if line.startswith("report "))[7:])
    return json.loads(lines[-1]), report


def spread(values):
    q1, q2, q3 = quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}


def outside_fences(values, stats):
    """Indices of the values outside Tukey's fences, Q1 - 1.5 IQR to
    Q3 + 1.5 IQR, of their own side's quartiles."""
    lo, hi = stats["q1"] - 1.5 * stats["iqr"], stats["q3"] + 1.5 * stats["iqr"]
    return {i for i, v in enumerate(values) if not lo <= v <= hi}


def summarise(pairs, metrics):
    """Per metric: each side's median and quartiles, the change's wins, and
    whether it is better in the median by more than the base's IQR; then the
    seeds where either side lies outside its Tukey fences, and the change's
    wins over the other pairs."""
    out = {}
    for name, better in metrics.items():
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        stats = {side: spread(values[side]) for side in SIDES}
        sign = 1 if better == "lower" else -1
        won = [sign * (b - c) > 0 for b, c in zip(values["base"], values["change"])]
        gain = sign * (stats["base"]["median"] - stats["change"]["median"])
        outliers = set().union(*(outside_fences(values[side], stats[side]) for side in SIDES))
        out[name] = {
            "better": better, **stats, "change_wins": sum(won), "pairs": len(pairs),
            "median_change_pct": 100 * (stats["change"]["median"] / stats["base"]["median"] - 1),
            "gain_exceeds_base_iqr": gain > stats["base"]["iqr"],
            "tukey_outlier_seeds": [pairs[i]["seed"] for i in sorted(outliers)],
            "change_wins_without_outliers": sum(w for i, w in enumerate(won) if i not in outliers),
            "pairs_without_outliers": len(pairs) - len(outliers)}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="checkout directory or git revision")
    parser.add_argument("--change", required=True, help="checkout directory or git revision")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}

    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {side: checkout(getattr(args, side), tmp, side) for side in SIDES}
        result = {
            "about": " ".join(__doc__.split("\n\n")[2].split()),
            "command": " ".join([os.path.relpath(sys.argv[0], ROOT)] + sys.argv[1:]),
            "sides": {side: {"spec": getattr(args, side), "src_tree": tree}
                      for side, (_, tree) in checkouts.items()},
            "seeds": SEEDS, "seconds": seconds, "environment": None,
            "workloads": {}}
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for i, seed in enumerate(SEEDS):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    line, report = run(checkouts[side][0], workload, seed, seconds)
                    env = report["environment"]
                    result["environment"] = result["environment"] or {
                        k: env[k] for k in ("nproc", "python", "numpy", "blas")}
                    pair[side] = {
                        "correct": line["correct"], "attempted": line["attempted"],
                        "failed": line["failed"],
                        "metrics": {**{k: v["value"] for k, v in line["metrics"].items()},
                                    **{k: report["figures"][k] for k in EXTRA}},
                        "loadavg_start": env["loadavg_start"],
                        # per timed pass: its reference bursts, to spot a disturbed run
                        "reference_bursts": report["passes"]["reference_bursts"]}
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} pass_ref {pair[side]['metrics']['pass_ref']:.2f}" for side in SIDES),
                    file=sys.stderr, flush=True)
            result["workloads"][workload] = {
                "all_correct": all(p[side]["correct"] for p in pairs for side in SIDES),
                "summary": summarise(pairs, metrics), "pairs": pairs}
            with open(args.out, "w") as fh:     # rewritten as each workload ends
                json.dump(result, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
