"""nrsfm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S          # every workload

Run from the root of a checkout; the program under test is its src/nrsfm.
One workload runs closed-loop in this process from inputs made from --seed.
The bounded times, pass_ref and setup_s, are taken against a fixed
reference computation sampled all through the timed code (reference.py),
so they follow the program's speed and not the shared machine's.
The last line of standard output is one JSON object: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.  The line before it, "report {...}", holds every figure, the
environment, the checks and the gradient gate.  With --trace 1 the timed
passes alternate untraced and traced, and the spans are written to
perfbench/.results/.  perfbench/layer_map.json says what each per-layer
metric should move.  Without --workload, every workload runs in a child
process, untraced then traced, and all their figures are printed.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Fixed before numpy loads.  One thread: the products here are small, and a
# second BLAS thread on a 2-core machine shared with other work measured
# slower (about 83 against 87 steps/s on train-ortho-b64).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# Figures of the report that BENCHMARK.json does not list, with their units.
REPORT_UNITS = {"pass_s": "s", "setup_wall_s": "s", "train_steps_per_s": "1/s",
                "error3d": "1", "generate_s": "s", "reconstruct_s": "s",
                "evaluate_s": "s", "ops_failed_frac": "1"}


def load_program():
    """Import nrsfm from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, BENCH_DIR]
    import nrsfm
    if os.path.dirname(os.path.dirname(os.path.abspath(nrsfm.__file__))) != src:
        sys.exit(f"error: nrsfm was imported from {nrsfm.__file__}, not {src}")


def blas_threads_runtime():
    """OpenBLAS's own thread count, or None where it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for lib in map(ctypes.CDLL, libs):
            for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads64_"):
                if hasattr(lib, sym):
                    return getattr(lib, sym)()
    except OSError:
        pass
    return None


def environment(args, load):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": BLAS_THREADS, "threads_runtime": blas_threads_runtime()},
            "loadavg_start": load}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_one(args, bench):
    load = os.getloadavg()
    load_program()
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    work = os.path.join(BENCH_DIR, ".work")
    workdir = os.path.join(work, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        checks, figures, report = workloads.measure(
            args.workload, args.seed, args.seconds, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(work):
            os.rmdir(work)
    if tracer:
        results = os.path.join(BENCH_DIR, ".results")
        os.makedirs(results, exist_ok=True)
        path = os.path.join(results, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path)
        report["trace"]["file"] = os.path.relpath(path, ROOT)
        with open(os.path.join(BENCH_DIR, "layer_map.json")) as fh:
            kinds = json.load(fh)["per_layer"]
        report["trace"]["computed"] = [n for n, v in kinds.items() if v["kind"] == "computed"]

    section = bench["per_layer" if args.trace else "end_to_end"]
    print("report " + json.dumps({"environment": environment(args, load),
                                  "figures": figures, **report}))
    print(json.dumps({
        "correct": not checks.failures, "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                    for m in section}}))


def run_all(args, bench):
    """Every workload in its own process, untraced then traced; prints each
    figure with its unit, the correctness verdict and the tracing overhead."""
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(REPORT_UNITS)
    e2e = [m["name"] for m in bench["end_to_end"]] + list(REPORT_UNITS)
    ok = True
    for wl in (w["name"] for w in bench["workloads"]):
        reports = []
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", wl,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"== {wl} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            report = json.loads(next(l for l in lines if l.startswith("report "))[7:])
            reports.append(report)
            ok = ok and result["correct"]
            print(f"== {wl}  trace={trace}  correct={result['correct']}  "
                  f"attempted={result['attempted']}  failed={result['failed']}")
            names = e2e if not trace else [m["name"] for m in bench["per_layer"]]
            computed = report.get("trace", {}).get("computed", [])
            for name in names:
                if name in report["figures"]:
                    print(f"   {name:34s} {report['figures'][name]:14.6g} {units[name]}"
                          + ("  (computed)" if name in computed else ""))
            for failure in report["failed_checks"]:
                print(f"   FAILED {failure}")
        if len(reports) == 2:
            untraced, traced = (r["figures"] for r in reports)
            walls = sorted(reports[1]["passes"]["traced_s"])
            known = sorted(reports[0]["gradient_gate"]["known_failing"])
            print(f"   gradient gate, known failing: {', '.join(known) or 'none'}")
            print(f"   tracing overhead: {traced['trace.overhead_pct']:.2f}% within the "
                  f"traced run; median traced pass {walls[len(walls) // 2]:.4g} s "
                  f"against pass_s {untraced['pass_s']:.4g} s of the untraced run")
            print(f"   error3d untraced {untraced['error3d']!r}, traced {traced['error3d']!r}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "nrsfm", "__init__.py")):
        sys.exit(f"error: no program to measure: {ROOT}/src/nrsfm is missing")
    bench = spec()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.workload is None:
        return run_all(args, bench)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    run_one(args, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
