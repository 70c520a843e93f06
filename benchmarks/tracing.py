"""The traced run: spans around the program's public functions, kept in
memory, plus the probes that no CLI job reaches.

Spans are recorded from here, not from inside the program: ``patched()``
swaps a recording wrapper into every ``hypercomplex`` module attribute that
holds a traced function, so the calls ``cli.main`` makes through
``fractal.render_grid`` and friends are caught too.  Core operations are
too fine for spans; they are timed as micro-batches on fixed inputs.
"""

from __future__ import annotations

import functools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import workloads as wl


def _render_attrs(grid, cfg, workers=1):
    import numpy as np

    useful = int(np.minimum(grid.counts, cfg.n_max).sum())
    return {"approach": cfg.approach, "workers": workers, "useful_iters": useful}


def _export_attrs(_, grid, fmt, destination):
    return {"format": fmt, "bytes": os.path.getsize(destination)}


TRACED = {
    "cli.main": None,
    "fractal.render_grid": _render_attrs,
    "fractal.export_grid": _export_attrs,
    "checks.run_property_checks": None,
    "extensions.nth_roots": None,
    "relativity.square_and_project": None,
}


class Recorder:
    """In-memory spans: id, parent id, job, name, start/end (ns), attrs."""

    def __init__(self):
        self.spans: list[dict] = []
        self.job = None
        self._stack: list[int] = []

    def _wrap(self, name, fn, annotate):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                    "job": self.job, "name": name}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start_ns"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end_ns"] = time.perf_counter_ns()
                self._stack.pop()
            if annotate is not None:
                span["attrs"] = annotate(result, *args, **kwargs)
            return result

        return traced

    @contextmanager
    def patched(self):
        wrappers = {}
        for qualname, annotate in TRACED.items():
            module, attr = qualname.split(".")
            fn = getattr(sys.modules[f"hypercomplex.{module}"], attr)
            wrappers[id(fn)] = self._wrap(qualname, fn, annotate)
        swaps = [
            (mod, attr, value)
            for name, mod in list(sys.modules.items())
            if name == "hypercomplex" or name.startswith("hypercomplex.")
            for attr, value in vars(mod).items()
            if id(value) in wrappers
        ]
        for mod, attr, value in swaps:
            setattr(mod, attr, wrappers[id(value)])
        try:
            yield
        finally:
            for mod, attr, value in swaps:
                setattr(mod, attr, value)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _dur(span) -> int:
    return span["end_ns"] - span["start_ns"]


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span duration minus the time its direct children cover (ns); calls
    are sequential on one thread, so children never overlap."""
    child = defaultdict(int)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += _dur(span)
    return {span["id"]: _dur(span) - child[span["id"]] for span in spans}


# -- probes no CLI job reaches ----------------------------------------------------

def import_ms(pairs: int = 3) -> float:
    """``import hypercomplex.cli`` in a fresh interpreter minus ``pass``."""
    env = wl.program_env()
    bare, full = [], []
    for _ in range(pairs):
        for code, acc in (("pass", bare), ("import hypercomplex.cli", full)):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           timeout=wl.CLI_TIMEOUT_S)
            acc.append(time.perf_counter() - t)
    return (statistics.median(full) - statistics.median(bare)) * 1e3


CORE_OPS = ("SphericalForm", "CartesianVec", "to_cartesian", "to_spherical",
            "canonicalize", "mul_geometric", "mul_cartesian", "pow_int")


def core_batches(seed: int, calls: int = 400) -> dict[str, float]:
    """Microseconds per call of each core operation in dimensions 3, 4, 7."""
    from hypercomplex import core

    rng = random.Random(f"core:{seed}")
    out = {}
    for dim in (3, 4, 7):
        raw = [wl.random_form(rng, dim) for _ in range(8)]
        forms = [core.SphericalForm(v[0], v[1:]) for v in raw]
        vecs = [core.to_cartesian(f) for f in forms]
        comps = [v.components for v in vecs]
        # last latitude past pi/2 and longitude past 2*pi: real folding work
        wide = [core.SphericalForm(f.modulus, (f.args[0] + 7.0,) + f.args[1:-1]
                                   + (f.args[-1] + 3.0,)) for f in forms]
        ops = {
            "SphericalForm": lambda i: core.SphericalForm(raw[i][0], raw[i][1:]),
            "CartesianVec": lambda i: core.CartesianVec(comps[i]),
            "to_cartesian": lambda i: core.to_cartesian(forms[i]),
            "to_spherical": lambda i: core.to_spherical(vecs[i]),
            "canonicalize": lambda i: core.canonicalize(wide[i]),
            "mul_geometric": lambda i: core.mul_geometric(forms[i], forms[i - 1]),
            "mul_cartesian": lambda i: core.mul_cartesian(vecs[i], vecs[i - 1]),
            "pow_int": lambda i: core.pow_int(forms[i], 3),
        }
        for name in CORE_OPS:
            op = ops[name]
            t = time.perf_counter()
            for k in range(calls):
                op(k & 7)
            out[f"core.{name}.d{dim}_us"] = (time.perf_counter() - t) / calls * 1e6
    return out


# -- the traced run ------------------------------------------------------------

def run(seed: int, seconds: float) -> dict:
    """Sweeps of one untraced and one traced in-process job per workload,
    plus the probes, until ``seconds`` have passed; at least one sweep."""
    jobs = {w: wl.build(w, seed) for w in wl.WORKLOADS}
    for cmds in jobs.values():
        wl.run_job(cmds, fresh_process=False)  # warm-up
    rec = Recorder()
    job_ms = {w: {"traced": [], "untraced": []} for w in wl.WORKLOADS}
    probes = defaultdict(list)
    outputs, attempted, failed, identical = {}, 0, 0, True
    start = time.perf_counter()
    sweep = 0
    while sweep == 0 or time.perf_counter() - start < seconds:
        for w, cmds in jobs.items():
            for mode, tracing in (("untraced", nullcontext), ("traced", rec.patched)):
                rec.job = f"{w}#{sweep}"
                t = time.perf_counter()
                with tracing():
                    results = wl.run_job(cmds, fresh_process=False)
                job_ms[w][mode].append((time.perf_counter() - t) * 1e3)
                attempted += len(results)
                failed += sum(code != 0 for code, _ in results)
            outputs[w] = results
        rec.job = f"reference#{sweep}"
        with rec.patched():
            identical &= wl.workers_agree(seed)
        probes["cli.import_ms"].append(import_ms())
        for name, value in core_batches(seed).items():
            probes[name].append(value)
        sweep += 1
    return {
        "attempted": attempted, "failed": failed, "outputs": outputs,
        "workers_identical": identical, "sweeps": sweep,
        "metrics": derive(rec.spans, job_ms, probes), "recorder": rec,
    }


def derive(spans: list[dict], job_ms: dict, probes: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as (value, unit); span times are medians per call."""
    med = statistics.median
    selfs = self_times(spans)

    def ms(chosen):
        return med(_dur(s) for s in chosen) / 1e6, "ms"

    by_id = {s["id"]: s for s in spans}

    def under_cli(span):
        return span["parent"] is not None and by_id[span["parent"]]["name"] == "cli.main"

    def of(workload, name):
        return [s for s in spans if s["name"] == name
                and s["job"].startswith(workload + "#") and under_cli(s)]

    m = {}
    for w in ("render-escape", "render-member"):
        renders = of(w, "fractal.render_grid")
        for approach in ("first", "second"):
            mine = [s for s in renders if s["attrs"]["approach"] == approach]
            m[f"{w}.fractal.render_grid.{approach}_ms"] = ms(mine)
            iters = sum(s["attrs"]["useful_iters"] for s in mine)
            m[f"{w}.fractal.useful_cell_iters_per_s.{approach}"] = (
                iters / (sum(_dur(s) for s in mine) / 1e9), "1/s")
        exports = defaultdict(list)
        for s in of(w, "fractal.export_grid"):
            exports[s["attrs"]["format"]].append(s)
        for fmt, mine in exports.items():
            m[f"{w}.fractal.export_grid.{fmt}_ms"] = ms(mine)
        if "csv" in exports:
            csv = exports["csv"]
            m[f"{w}.fractal.export_grid.csv_mb_per_s"] = (
                sum(s["attrs"]["bytes"] for s in csv) / 1e6 / (sum(_dur(s) for s in csv) / 1e9),
                "MB/s")
    algebra = "cli-algebra"
    m[f"{algebra}.checks.run_property_checks_ms"] = ms(of(algebra, "checks.run_property_checks"))
    m[f"{algebra}.extensions.nth_roots_ms"] = ms(of(algebra, "extensions.nth_roots"))
    squares = of(algebra, "relativity.square_and_project")
    m[f"{algebra}.relativity.square_and_project_us"] = (med(_dur(s) for s in squares) / 1e3, "us")
    for w in wl.WORKLOADS:
        per_job = defaultdict(int)
        for s in spans:
            if s["name"] == "cli.main" and s["job"].startswith(w + "#"):
                per_job[s["job"]] += selfs[s["id"]]
        m[f"{w}.cli.main.self_ms"] = (med(per_job.values()) / 1e6, "ms")
        m[f"{w}.trace.overhead_ms"] = (
            med(job_ms[w]["traced"]) - med(job_ms[w]["untraced"]), "ms")
    w2 = [s for s in spans if s["name"] == "fractal.render_grid" and s["attrs"]["workers"] == 2]
    m["fractal.render_grid.w2_ms"] = ms(w2)
    for name, values in probes.items():
        m[name] = (med(values), "ms" if name == "cli.import_ms" else "us")
    return m
