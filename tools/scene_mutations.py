"""Check that two checkouts read mutated scene files alike.

    python3 tools/scene_mutations.py --base REV_OR_DIR [--change REV_OR_DIR] [--files N]

Each side is a checkout, exported or copied as tools/bench_pairs.py does
it; the change defaults to this working tree.  The base checkout writes one
four-section scene (P=4, F=3, weak perspective, missing points, bbox
normalization), and N seeded mutations of it (default 3,000) are written
next to it.  Each mutated file gets one to three line edits (a line
deleted, two lines swapped, a line duplicated, a blank or whitespace line,
a '#' line or a stray '[section]' line inserted, a field edited, the
sections reordered), and some also get CRLF or lone CR line endings, a
truncation, a non-ASCII character or a byte of invalid UTF-8.

In a subprocess per checkout, under PYTHONPATH=src and
OPENBLAS_NUM_THREADS=1, every mutated file is read with
`nrsfm.data.read_scene_sections` for every subset of the four section
names.  A read's outcome is the mode, (F, P) and a digest of each array,
or the type and message of the exception it raised, with the warnings it
gave.  The tool prints three counts: reads that agree, reads that differ
only in a refusal's message (both sides refuse, with the same warnings),
and reads that differ in any other way (only one side loads, or the
arrays or warnings differ), each of the last kind on a line of its own.
It exits 1 if any read is of the last kind.
"""

import argparse
import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import warnings

from bench_pairs import ROOT, SIDES, checkout

SECTIONS = ("measurements", "shapes", "cameras", "normalization")
SUBSETS = [names for k in range(len(SECTIONS) + 1)
           for names in itertools.combinations(SECTIONS, k)]
WRITE_SCENE = (
    "import sys\n"
    "from nrsfm.data import PlantedSpec, normalize_scene, save_scene, synth_planted\n"
    "spec = PlantedSpec(points=4, frames=3, width_first=4, width_last=2,\n"
    "                   camera_mode='weak_perspective', max_missing=2, seed=5)\n"
    "save_scene(normalize_scene(synth_planted(spec)[0], 'bbox'), sys.argv[1])\n")
FIELD_VALUES = ("", "x", "nan", "inf", "-inf", "-1", "0", "1", "2", "0.5", "7", "1e400",
                " 1", "1,2", "0x1")
STRAY_NAMES = SECTIONS + ("shape", "Shapes", "", "measurements ")
MUTATION_SEED = 20190601


def reorder(lines, rng):
    """The lines with the sections (each '[name]' line up to the next) shuffled."""
    starts = [i for i, line in enumerate(lines) if line.startswith("[")] or [len(lines)]
    blocks = [lines[i:j] for i, j in zip(starts, starts[1:] + [len(lines)])]
    rng.shuffle(blocks)
    return lines[:starts[0]] + [line for block in blocks for line in block]


def edit_field(lines, rng):
    """The lines with one comma-separated field of one line replaced."""
    rows = [i for i, line in enumerate(lines) if "," in line] or [0]
    i = rng.choice(rows)
    parts = lines[i].split(",")
    parts[rng.randrange(len(parts))] = rng.choice(FIELD_VALUES)
    return lines[:i] + [",".join(parts)] + lines[i + 1:]


def line_edit(lines, rng):
    """The lines after one random edit."""
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    kind = rng.choice(("delete", "swap", "duplicate", "blank", "comment", "stray", "field",
                       "reorder"))
    if kind == "delete":
        return lines[:i] + lines[i + 1:]
    if kind == "swap":
        lines = list(lines)
        lines[i], lines[j] = lines[j], lines[i]
        return lines
    insert = {"duplicate": lines[i], "blank": rng.choice(("", " ", "\t", "  ")),
              "comment": "# note=1", "stray": f"[{rng.choice(STRAY_NAMES)}]"}
    if kind in insert:
        return lines[:i] + [insert[kind]] + lines[i:]
    return edit_field(lines, rng) if kind == "field" else reorder(lines, rng)


def mutated(text, rng):
    """The bytes of one mutation of a scene file's text."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        lines = line_edit(lines, rng)
    data = "\n".join(lines).encode()
    ending = rng.random()
    if ending < 0.1:
        data = data.replace(b"\n", b"\r\n")
    elif ending < 0.15:
        data = data.replace(b"\n", b"\r")
    at = rng.randrange(len(data) + 1)
    byte_edit = rng.random()
    if byte_edit < 0.08:
        data = data[:at]
    elif byte_edit < 0.12:
        data = data[:at] + b"\xff" + data[at:]
    elif byte_edit < 0.16:
        data = data[:at] + "é".encode() + data[at:]
    return data


def out_of_order(data):
    """Whether the known '[section]' lines of a file come in another order than SECTIONS'."""
    text = re.sub(r"\r\n?", "\n", data.decode(errors="replace"))
    found = [SECTIONS.index(m[1]) for m in re.finditer(r"(?m)^\[(\w+)\]$", text)
             if m[1] in SECTIONS]
    return found != sorted(found)


def read_every_subset(directory):
    """[[outcome, warnings] for each file in directory, in name order, and each subset]:
    the outcome is ["load", mode, (F, P), {name: [shape, sha256 of the bytes]}] or
    ["refuse", exception type, message]."""
    from nrsfm.data import read_scene_sections
    results = []
    for file in sorted(os.listdir(directory)):
        for names in SUBSETS:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    mode, grid, arrays = read_scene_sections(os.path.join(directory, file),
                                                             names)
                    outcome = ["load", mode, list(grid), {
                        name: [list(a.shape), hashlib.sha256(a.tobytes()).hexdigest()]
                        for name, a in sorted(arrays.items())}]
                except Exception as exc:    # any exception is an outcome to compare
                    outcome = ["refuse", type(exc).__name__, str(exc)]
            results.append([outcome, [f"{w.category.__name__}: {w.message}" for w in caught]])
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="checkout directory or git revision (required)")
    parser.add_argument("--change", default=ROOT,
                        help="checkout directory or git revision (default: this working tree)")
    parser.add_argument("--files", type=int, default=3000, help="mutated files (default 3000)")
    parser.add_argument("--read", help=argparse.SUPPRESS)  # in a checkout: print its reads
    args = parser.parse_args()
    if args.read:
        json.dump(read_every_subset(args.read), sys.stdout)
        return 0
    if not args.base or args.files < 1:
        parser.error("--base is required, and --files must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        paths = {side: checkout(getattr(args, side), tmp, side)[0] for side in SIDES}
        env = {side: dict(os.environ, PYTHONPATH=os.path.join(path, "src"),
                          OPENBLAS_NUM_THREADS="1") for side, path in paths.items()}
        files, scene = os.path.join(tmp, "files"), os.path.join(tmp, "scene.txt")
        subprocess.run([sys.executable, "-c", WRITE_SCENE, scene], env=env["base"],
                       check=True)
        with open(scene) as fh:
            text = fh.read()
        os.makedirs(files)
        rng = random.Random(MUTATION_SEED)
        unordered = set()
        for k in range(args.files):
            data = mutated(text, rng)
            if out_of_order(data):
                unordered.add(k)
            with open(os.path.join(files, f"{k:05d}.txt"), "wb") as fh:
                fh.write(data)
        reads = {}
        for side in SIDES:
            print(f"{side}: reading {args.files} files x {len(SUBSETS)} subsets",
                  file=sys.stderr, flush=True)
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--read", files],
                                  env=env[side], capture_output=True, text=True)
            if proc.returncode:
                sys.exit(f"error: {side}: reading exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
            reads[side] = json.loads(proc.stdout)
    counts = {"agree": 0, "message": 0, "other": 0}
    loads = message_unordered = 0
    for n, (base, change) in enumerate(zip(reads["base"], reads["change"])):
        k, subset = divmod(n, len(SUBSETS))
        if base == change:
            counts["agree"] += 1
            loads += base[0][0] == "load"
        elif base[0][0] == change[0][0] == "refuse" and base[1] == change[1]:
            counts["message"] += 1
            message_unordered += k in unordered
        else:
            counts["other"] += 1
            print(f"DIFFERS  {k:05d}.txt {list(SUBSETS[subset])}: base {base}, change {change}")
    print(f"agree         {counts['agree']} ({loads} load)")
    print(f"message only  {counts['message']} ({message_unordered} in files whose sections are "
          "out of canonical order)")
    print(f"other         {counts['other']}")
    return 1 if counts["other"] else 0


if __name__ == "__main__":
    sys.exit(main())
