"""Span tracer for one wavechain CLI process, kept entirely in memory.

Run as a script, it stands in for ``python3 -m wavechain.cli``:

    python3 perfbench/tracer.py SPANS.json -- <wavechain CLI arguments>

It imports the package, replaces every public function of the traced
layers with a timing wrapper (in every ``wavechain`` module namespace that
holds it, so ``from .x import f`` bindings are covered too), runs
``wavechain.cli.main`` and writes the spans to SPANS.json when the CLI
returns.  Nothing under ``src/`` is modified.

`summarize` turns the span files of one pass into per-layer numbers.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

# Package modules measured as layers.  `groups` is left unwrapped so its time
# counts inside `models`; `interchange` and `errors` are on no hot path.
LAYERS = ("cli", "models", "core", "spectral", "merging", "sim", "rng")

# Extra facts recorded for a few spans: (variant, work count).
_DETAIL = {
    "merging.merging_time": lambda a, r: (a["metric"], len(r.values) - 1),
    "core.evolve": lambda a, r: (None, int(a["n"])),
    "rng.uniforms": lambda a, r: (None, int(r.size)),
}


class Tracer:
    """Collects spans as [name, start, end, parent, thread, error, variant, work]."""

    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._run = None  # id of the open cli.run span, parent of pool-thread spans

    def wrap(self, name: str, fn):
        detail = _DETAIL.get(name)
        signature = inspect.signature(fn) if detail else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._run
            with self._lock:
                sid = len(self.spans)
                self.spans.append(None)
            stack.append(sid)
            if name == "cli.run":
                self._run = sid
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans[sid] = [name, start, time.perf_counter(), parent,
                                   threading.get_ident(), True, None, 0]
                raise
            finally:
                stack.pop()
                if name == "cli.run":
                    self._run = None
            end = time.perf_counter()
            variant, work = None, 0
            if detail:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                variant, work = detail(bound.arguments, result)
            self.spans[sid] = [name, start, end, parent, threading.get_ident(), False,
                               variant, work]
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"wavechain.{layer}") for layer in LAYERS]
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if key == "wavechain" or key.startswith("wavechain.")]
        for layer, module in zip(LAYERS, modules):
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, traced)


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(span_docs: list) -> dict:
    """Per-layer totals over the span files of one pass.

    Self time is span time minus the union of its child spans.  Summed over
    every span, self time exceeds the root span time by exactly the overlap
    between concurrent siblings, reported as ``trace.overlap_s``.
    """
    out: dict = defaultdict(float)
    for doc in span_docs:
        spans = doc["spans"]
        children = defaultdict(list)
        for sid, s in enumerate(spans):
            if s[3] is not None:
                children[s[3]].append(sid)
        for sid, (name, start, end, parent, _, error, variant, work) in enumerate(spans):
            kids = [(max(spans[k][1], start), min(spans[k][2], end)) for k in children[sid]]
            covered = _union_length(kids)
            own = (end - start) - covered
            out["trace.overlap_s"] += sum(hi - lo for lo, hi in kids) - covered
            out[name.split(".")[0] + ".self_s"] += own
            out[name + ".self_s"] += own
            out[name + ".calls"] += 1
            out[name + ".work"] += work
            if variant is not None:
                out[f"{name}.{variant}.self_s"] += own
            out["trace.errors"] += int(error)
            if parent is None:
                out["trace.main_s"] += end - start
            if name == "cli.run":
                out["cli.run.span_s"] += end - start
                out["cli.run.child_s"] += sum(spans[k][2] - spans[k][1] for k in children[sid])
            if name.startswith("sim.empirical_"):
                out["sim.span_s"] += end - start
                out["sim.lane_steps"] += _descendant_work(spans, children, sid, "rng.uniforms")
        out["trace.import_s"] += doc["import_s"]
    return out


def _descendant_work(spans, children, sid, name) -> int:
    total, todo = 0, list(children[sid])
    while todo:
        k = todo.pop()
        if spans[k][0] == name:
            total += spans[k][7]
        todo.extend(children[k])
    return total


def main(argv: list) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <wavechain arguments>", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    cli = importlib.import_module("wavechain.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    code = cli.main(argv[2:])
    with open(argv[0], "w") as fh:
        json.dump({"import_s": import_s, "code": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
