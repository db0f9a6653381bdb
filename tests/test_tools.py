"""tools/seed_sweep.py trains on the acceptance criteria's own scenes."""

import contextlib
import importlib.util
import io
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(f"tool_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_sweep_scenes_are_the_acceptance_scenes(monkeypatch):
    """The sweep's scenes are the ones criteria 5, 6 and 7 ask `_bench` for,
    and a sweep run is `_run_bench`'s scene and config with only the seed
    replaced."""
    sweep = _load_tool("seed_sweep")
    acceptance = sweep.load_acceptance()
    done = SimpleNamespace(history=SimpleNamespace(records=[SimpleNamespace(error3d=0.0)]))
    asked = {}

    def bench(key, **kw):
        asked[key] = kw
        return done

    monkeypatch.setattr(acceptance, "_bench", bench)
    with contextlib.redirect_stdout(io.StringIO()):     # their PASS lines would mislead
        for test in ("05_planted_end_to_end", "06_noise_robustness", "07_missing_data"):
            getattr(acceptance, f"test_criterion_{test}")()
    assert asked == sweep.SCENES

    trained = []

    def train(scene, config, **kw):
        trained.append((scene, config))
        return done

    monkeypatch.setattr(acceptance, "train", train)
    assert acceptance._run_bench(**sweep.SCENES["missing"]) is done
    assert sweep.train_run(acceptance, sweep.SCENES["missing"], 4) == (trained[1][0], done)
    assert acceptance.train is train
    (scene, config), (swept, swept_config) = trained
    assert np.array_equal(swept.measurements, scene.measurements)
    assert np.array_equal(swept.visibility, scene.visibility)
    assert swept_config == replace(config, seed=4)


def test_seed_sweep_passes_and_fails_as_the_criteria_do(monkeypatch):
    """The sweep's pass or fail of criteria 5, 6, 7 and 8 for a seed is the
    criteria's own verdict on the same final errors, at and just past their
    bounds, so the sweep's restated bounds cannot drift from the tests'."""
    sweep = _load_tool("seed_sweep")
    acceptance = sweep.load_acceptance()
    past = lambda x: np.nextafter(x, np.inf)
    cases = [(0.05, 0.1, 0.1), (past(0.05), 0.1, 0.1), (0.04, past(0.08), 0.08),
             (0.04, 0.08, past(0.08)), (0.02, 0.01, 0.05), (0.3, 0.5, 0.7)]
    # criterion 8's (r=4, r=3) errors, at and past both ends of its gap bound
    pairs = [(1.25, 1.0), (past(1.25), 1.0), (0.75, 1.0), (np.nextafter(0.75, 0), 1.0),
             (0.3, 0.3), (0.5, 0.1)]
    assert len(cases) == len(pairs) == len(sweep.SEEDS)
    runs = {name: [{"error3d": errors[k], "minority_hand": 0.0} for errors in cases]
            for k, name in enumerate(sweep.SCENES)}
    runs[sweep.TRANSLATION] = [{"error3d_r4": r4, "error3d_r3": r3} for r4, r3 in pairs]
    per_seed, summary = sweep.criteria(runs)
    assert summary["criterion_8_passes"] == 3
    for errors, pair, verdict in zip(cases, pairs, per_seed):
        error = dict(zip(sweep.SCENES, errors))
        monkeypatch.setattr(acceptance, "_bench", lambda key, **kw: SimpleNamespace(
            history=SimpleNamespace(records=[SimpleNamespace(error3d=error[key])])))
        monkeypatch.setattr(acceptance, "_translation_pair", lambda seed: pair)
        for k, test in ((5, "05_planted_end_to_end"), (6, "06_noise_robustness"),
                        (7, "07_missing_data"), (8, "08_translation_model")):
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    getattr(acceptance, f"test_criterion_{test}")()
                    passed = True
                except AssertionError:
                    passed = False
            assert verdict[f"criterion_{k}"] == passed, (errors, k)


def test_same_bytes_reports_items_that_differ_in_numbers_only(monkeypatch, capsys):
    """An item whose two sides are equal once their numbers are masked is
    marked with how many numbers differ and the largest relative
    difference; other differences, and a leftover temporary file listed
    alike on both sides, are marked as before, and any difference still
    exits 1."""
    monkeypatch.syspath_prepend(str(TOOLS))
    same_bytes = _load_tool("same_bytes")
    numbers_only = same_bytes.numbers_only
    assert numbers_only(b"a,1.5\nb,2e-3,-inf\n", b"a,1.5\nb,2.0000000001e-3,-inf\n") == (
        " (numbers only: 1 of 3, max rel 5.0e-11)")
    assert numbers_only(b"v 1.0 2 nan", b"v 1.00 inf nan") == " (numbers only: 2 of 3, max rel inf)"
    assert numbers_only(b"x 1", b"y 1") == numbers_only(b"1,2", b"1,2,3") == ""
    left = same_bytes.LEFTOVER
    sides = {"base": {"h.csv": b"e,0.25\n", "rec.txt": b"1 2\n", "out": b"ok 3\n",
                      "p" + left: b"x.1.partial"},
             "change": {"h.csv": b"e,0.2500000000000001\n", "rec.txt": b"1 2\n",
                        "out": b"no 3\n", "p" + left: b"x.1.partial"}}
    monkeypatch.setattr(same_bytes, "checkout", lambda spec, tmp, side: (side, None))
    monkeypatch.setattr(same_bytes, "run_side", lambda side, path, tmp: sides[side])
    monkeypatch.setattr(same_bytes, "src_lines", lambda path: 7)
    monkeypatch.setattr("sys.argv", ["same_bytes.py", "--base", "b", "--change", "c"])
    assert same_bytes.main() == 1
    assert capsys.readouterr().out.splitlines() == [
        "DIFFERS h.csv (numbers only: 1 of 1, max rel 4.4e-16)", "DIFFERS out",
        "DIFFERS p" + left, "same    rec.txt", "src/nrsfm lines: base 7, change 7"]
