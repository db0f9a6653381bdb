"""In-memory spans around calls into the public functions of each nrsfm
module, recorded from outside the package.

A Tracer replaces every binding of a traced function in the nrsfm modules
(the defining module and every module that imported it by name) with a
wrapper that records one span, and restores the originals on exit.  Calls
nest, so each span knows the span that caused it, and a layer's self time
is its duration minus the time its child spans cover.
"""

import json
import os
import statistics
import time

import nrsfm.cli
import nrsfm.data
import nrsfm.geometry
import nrsfm.model
import nrsfm.sparse
import nrsfm.training

MODULES = {
    "model": nrsfm.model, "training": nrsfm.training, "geometry": nrsfm.geometry,
    "data": nrsfm.data, "sparse": nrsfm.sparse, "cli": nrsfm.cli,
}

# Only public names.  Per-frame helpers (project, align_shapes, ...) are left
# out: they are called thousands of times per scene and would cost more to
# trace than they tell.
TRACED = {
    "model": ["forward_batch", "backward_batch", "polar_vjp"],
    "training": ["train", "adam_step", "scene_forward",
                 "scene_error", "reconstruct", "init_params"],
    "geometry": ["normalized_3d_error", "mutual_coherence"],
    "data": ["synth_planted", "make_missing", "normalize_scene", "save_scene",
             "load_scene", "save_checkpoint", "load_checkpoint"],
    "sparse": ["block_sparsity"],
}


# name -> f(call args) giving the span's attributes, read after the call
_ATTRS = {
    "model.forward_batch": lambda a: {"batch": len(a[0])},
    "geometry.normalized_3d_error": lambda a: {"frames": len(a[0])},
    "data.load_scene": lambda a: {"bytes": os.path.getsize(a[0])},
    "data.save_scene": lambda a: {"bytes": os.path.getsize(a[1])},
}


class Tracer:
    """Records spans as (name, parent index, start, end, phase, attrs)."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, attrs = self.spans, self._stack, _ATTRS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = attrs(args) if attrs and ok else None
                spans[idx] = (name, parent, t0, t1, self.phase, extra)
        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span of the benchmark's own (e.g. one CLI stage)."""
        return self._wrap(name, fn)(*args, **kwargs)

    def __enter__(self):
        originals = {}
        for mod_name, names in TRACED.items():
            for fn_name in names:
                fn = getattr(MODULES[mod_name], fn_name, None)
                if fn is not None:
                    originals[id(fn)] = (f"{mod_name}.{fn_name}", fn)
        for module in MODULES.values():
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and value is hit[1]:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, self._wrap(hit[0], value))
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        return False

    # ------------------------------------------------------------------
    # analysis

    def children(self):
        kids = [[] for _ in self.spans]
        for i, (_, parent, *_rest) in enumerate(self.spans):
            if parent >= 0:
                kids[parent].append(i)
        return kids

    def self_times(self):
        """{name: (calls, total ms, self ms)} over all recorded spans."""
        kids = self.children()
        out = {}
        for i, (name, _, t0, t1, _, _) in enumerate(self.spans):
            dur = t1 - t0
            own = dur - sum(self.spans[k][3] - self.spans[k][2] for k in kids[i])
            calls, tot, slf = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, tot + dur * 1e3, slf + own * 1e3)
        return out

    def durations_ms(self, name, where=None):
        """Durations of spans called `name`, from the first phase among run,
        setup and check that has any; where(span, parent name) filters."""
        for phase in ("run", "setup", "check"):
            out = []
            for s in self.spans:
                if s[0] != name or s[4] != phase:
                    continue
                parent = self.spans[s[1]][0] if s[1] >= 0 else None
                if where is None or where(s, parent):
                    out.append((s[3] - s[2]) * 1e3)
            if out:
                return out
        return []

    def train_breakdown(self):
        """Per-step durations (ms) and the evaluation share of train() calls.

        A step runs from the end of the previous adam_step (or the start of
        train) to the end of its own adam_step, less any evaluation in
        between.  Uses the run phase, or set-up where the run does not train.
        """
        kids = self.children()
        for phase in ("run", "setup"):
            trains = [i for i, s in enumerate(self.spans)
                      if s[0] == "training.train" and s[4] == phase]
            if trains:
                break
        steps, eval_total, train_total = [], 0.0, 0.0
        for i in trains:
            start, evals = self.spans[i][2], 0.0
            train_total += self.spans[i][3] - self.spans[i][2]
            for k in kids[i]:
                name, _, t0, t1, _, _ = self.spans[k]
                if name in ("training.scene_forward", "geometry.mutual_coherence",
                            "geometry.normalized_3d_error"):
                    evals += t1 - t0
                    eval_total += t1 - t0
                elif name == "training.adam_step":
                    steps.append((t1 - start - evals) * 1e3)
                    start, evals = t1, 0.0
        share = eval_total / train_total if train_total else float("nan")
        return steps, share

    def write(self, path):
        base = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, parent, t0, t1, phase, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": parent, "name": name, "phase": phase,
                    "start_ms": round((t0 - base) * 1e3, 4),
                    "dur_ms": round((t1 - t0) * 1e3, 4), "attrs": attrs,
                }) + "\n")


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values):
    return statistics.median(values) if values else float("nan")
