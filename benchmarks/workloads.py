"""Workload inputs, made from the seed, and the jobs that feed them to the CLI.

Every job of a workload repeats the same commands on the same inputs, so job
times have one mode.  The seed moves what does not change the amount of work:
the lattices shift by less than half a cell (keeping the z = 0 plane of the
``first`` render and the y = 0 plane of the ``second`` exactly on the
lattice), and the algebra operands are drawn from fixed ranges.  ``property-check`` keeps ``--seed 0`` because its cost depends on
its seed.
"""

from __future__ import annotations

import io
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout

WORKLOADS = ("render-escape", "render-member", "cli-algebra")
OUT_DIR = ".bench_out"
N_MAX = 100
# odd resolutions put a lattice plane exactly on z = 0 and y = 0
ESCAPE_RES = 49
MEMBER_RES = 41
ROOT_DEGREE = 3
CLI_TIMEOUT_S = 120


def _region(rng: random.Random, half: float, res: int, pinned: int):
    """The box [-half, half]^3 shifted by under half a cell along every axis
    but ``pinned``, whose centre plane must stay exactly at 0.  The shift
    also breaks the map's mirror symmetry, so a flipped export shows."""
    cell = 2.0 * half / res
    shifts = [0.0 if axis == pinned else (rng.random() - 0.5) * cell for axis in range(3)]
    return tuple((-half + s, half + s) for s in shifts)


def _region_arg(region) -> str:
    return "--region=" + ",".join(f"{lo!r}:{hi!r}" for lo, hi in region)


def _values(vals) -> str:
    return ",".join(repr(v) for v in vals)


def random_form(rng: random.Random, dim: int) -> tuple[float, ...]:
    lats = tuple(rng.uniform(-1.2, 1.2) for _ in range(dim - 2))
    return (rng.uniform(0.5, 2.0), rng.uniform(0.0, math.tau)) + lats


def build(workload: str, seed: int) -> list[dict]:
    """The commands of one job: each has a ``name``, its CLI ``argv``, the
    ``files`` it writes and the ``spec`` its oracle needs."""
    rng = random.Random(f"{workload}:{seed}")
    out = f"{OUT_DIR}/{workload}"
    if workload in ("render-escape", "render-member"):
        escape = workload == "render-escape"
        res = ESCAPE_RES if escape else MEMBER_RES
        cmds = []
        for approach, pinned, ext, extra in (
            ("first", 2, "raw" if escape else "csv", []),
            ("second", 1, "pgm" if escape else "csv", ["--slice", "y=0"] if escape else []),
        ):
            region = _region(rng, 2.0 if escape else 0.5, res, pinned)
            path = f"{out}/{approach}.{ext}"
            files = [path, path + ".meta"] if ext == "raw" else [path]
            cmds.append({
                "name": f"fractal-{approach}",
                "argv": ["fractal", "--approach", approach, "--nmax", str(N_MAX),
                         _region_arg(region), "--res", f"{res},{res},{res}",
                         *extra, "--out", path],
                "files": files,
                "spec": {"approach": approach, "region": region, "res": (res,) * 3,
                         "n_max": N_MAX, "format": ext},
            })
        return cmds
    if workload != "cli-algebra":
        raise ValueError(f"unknown workload {workload!r}")
    value = random_form(rng, 6)
    a, b = random_form(rng, 7), random_form(rng, 7)
    deltas = [tuple(rng.uniform(-3.0, 3.0) for _ in range(4)) for _ in range(4)]
    betas = [rng.uniform(-0.9, 0.9) for _ in range(3)]
    return [
        {"name": "property-check", "argv": ["property-check", "--seed", "0"],
         "files": [], "spec": {}},
        {"name": "roots", "files": [],
         "argv": ["roots", "-m", str(ROOT_DEGREE), "--dim", "6", "--format", "json-lines",
                  _values(value)],
         "spec": {"m": ROOT_DEGREE, "value": value}},
        {"name": "relativity-check", "files": [],
         "argv": ["relativity-check", "--format", "json-lines",
                  *(f"--delta={_values(d)}" for d in deltas),
                  *(f"--beta={b!r}" for b in betas)],
         "spec": {"deltas": deltas, "betas": betas}},
        {"name": "mul", "files": [],
         "argv": ["mul", "--dim", "7", "--format", "json-lines", _values(a), _values(b)],
         "spec": {"a": a, "b": b}},
    ]


def in_process(workload: str) -> bool:
    """Render jobs call ``cli.main`` in the worker; algebra jobs start fresh
    ``python -m hypercomplex`` processes, as a one-shot user does."""
    return workload != "cli-algebra"


def program_env() -> dict:
    """Environment for a fresh interpreter that imports the program from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_command(argv: list[str], fresh_process: bool) -> tuple[int, str]:
    """One CLI call: (exit code, stdout)."""
    if fresh_process:
        proc = subprocess.run(
            [sys.executable, "-m", "hypercomplex", *argv],
            capture_output=True, text=True, env=program_env(), timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout
    from hypercomplex import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_job(cmds: list[dict], fresh_process: bool) -> list[tuple[int, str]]:
    return [run_command(cmd["argv"], fresh_process) for cmd in cmds]


def workers_agree(seed: int) -> bool:
    """Render the ``render-escape`` first-approach lattice with one and with
    two workers; the counts must be identical."""
    from hypercomplex import fractal

    spec = build("render-escape", seed)[0]["spec"]
    cfg = fractal.FractalConfig(approach=spec["approach"], n_max=spec["n_max"],
                                region=spec["region"], resolution=spec["res"])
    two = fractal.render_grid(cfg, workers=2)
    one = fractal.render_grid(cfg, workers=1)
    return bool((two.counts == one.counts).all())
