"""Benchmark of the hypercomplex CLI: one command per workload and mode.

    python3 benchmarks/run.py --workload render-escape --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics of a timed closed loop;
``--trace 1`` prints the per-layer metrics of the traced run.  Either way the
outputs the jobs produced are checked against the independent oracles in
``oracles.py`` after timing ends, and the last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--record-digests`` rewrites ``reference_digests.json`` for seeds 0-9.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

import oracles
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference_digests.json")
SETUP_PROBES = 2  # fresh set-ups besides the timed worker's own
WORKER_SLACK_S = 150  # worker budget beyond --seconds before it is killed


def _worker(mode: str, workload: str, seed: int, seconds: float) -> dict:
    path = f"{wl.OUT_DIR}/worker-{mode}.json"
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, "--result", path],
        check=True, timeout=seconds + WORKER_SLACK_S,
    )
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _prepare(workload: str, seed: int) -> list[dict]:
    """The workload's commands, with the oracle's own set-up work done."""
    cmds = wl.build(workload, seed)
    for cmd in cmds:
        if cmd["name"] == "roots":
            value = cmd["spec"]["value"]
            cmd["spec"]["expected_roots"] = len(oracles.enumerate_roots(value[1:], cmd["spec"]["m"]))
    return cmds


def _check(cmd: dict, stdout: str) -> list[str]:
    spec = cmd["spec"]
    if cmd["name"] == "property-check":
        return oracles.check_property_report(stdout)
    if cmd["name"] == "roots":
        return oracles.check_roots(stdout, spec)
    if cmd["name"] == "relativity-check":
        return oracles.check_relativity(stdout, spec)
    if cmd["name"] == "mul":
        return oracles.check_mul(stdout, spec)
    path = cmd["files"][0]
    if spec["format"] == "csv":
        with open(path, encoding="ascii") as fh:
            text = fh.read()
        print(f"{path}: member fraction {oracles.member_fraction(text):.4f}")
        return oracles.check_csv(text, spec)
    with open(path, "rb") as fh:
        data = fh.read()
    if spec["format"] == "pgm":
        return oracles.check_pgm(data, spec)
    with open(cmd["files"][1], encoding="ascii") as fh:
        meta = fh.read()
    print(f"{path}: member fraction {oracles.member_fraction(data):.4f}")
    return oracles.check_voxel(data, meta, spec)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(cmds: list[dict], outputs: list) -> dict[str, str]:
    out = {}
    for cmd, (_, stdout) in zip(cmds, outputs):
        out[f"{cmd['name']}.stdout"] = _sha(stdout.encode())
        for path in cmd["files"]:
            with open(path, "rb") as fh:
                out[os.path.basename(path)] = _sha(fh.read())
    return out


def _load_reference() -> dict:
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _report_digests(workload: str, seed: int, digests: dict) -> None:
    """Print the digests and how they compare with the reference; a change
    is news, not a failure, since a corrected method changes the bytes."""
    print(f"digests {workload}: {json.dumps(digests, sort_keys=True)}")
    ref = _load_reference().get(workload, {}).get(str(seed))
    if ref is None:
        print(f"digest-check {workload}: no reference for seed {seed}")
        return
    changed = sorted(k for k in digests if ref.get(k) != digests[k])
    print(f"digest-check {workload}: " + (f"CHANGED {changed}" if changed else "same as reference"))


def _record_digests() -> int:
    table = {}
    for workload in wl.WORKLOADS:
        for seed in range(10):
            cmds = wl.build(workload, seed)
            res = _worker("setup", workload, seed, 0)
            table.setdefault(workload, {})[str(seed)] = _digests(cmds, res["outputs"][workload])
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "hypercomplex", "cli.py")):
        print(f"error: no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.makedirs(wl.OUT_DIR, exist_ok=True)
    if args.record_digests:
        return _record_digests()
    if args.workload is None:
        ap.error("--workload is required")

    checked = wl.WORKLOADS if args.trace else (args.workload,)
    cmds = {w: _prepare(w, args.seed) for w in checked}
    if args.trace:
        res = _worker("trace", args.workload, args.seed, args.seconds)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in sorted(res["metrics"].items())}
        print(f"traced sweeps: {res['sweeps']}; spans in "
              f"{wl.OUT_DIR}/trace-{args.workload}-{args.seed}.jsonl")
    else:
        setups = [_worker("setup", args.workload, args.seed, 0)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        res = _worker("timed", args.workload, args.seed, args.seconds)
        setups.append(res["setup_s"])
        jobs = res["job_ms"]
        print(f"jobs: {len(jobs)}; job ms min/median/max "
              f"{min(jobs):.1f}/{statistics.median(jobs):.1f}/{max(jobs):.1f}; "
              f"setups s {[round(s, 3) for s in setups]}")
        metrics = {
            "jobs_per_s": {"value": len(jobs) / res["wall_s"], "unit": "1/s"},
            "job_p50_ms": {"value": statistics.median(jobs), "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }

    problems = []
    if not res["workers_identical"]:
        problems.append("counts differ between one and two render workers")
    print("workers-1-vs-2: " + ("identical" if res["workers_identical"] else "DIFFERENT"))
    if not res.get("stdout_stable", True):
        problems.append("a command printed different output in different jobs")
    for w in checked:
        outputs = res["outputs"][w]
        for cmd, (code, stdout) in zip(cmds[w], outputs):
            if code != 0:
                continue
            try:
                found = _check(cmd, stdout)
            except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
                found = [f"unreadable output ({type(exc).__name__}: {exc})"]
            problems += [f"{w} {cmd['name']}: {p}" for p in found]
        _report_digests(w, args.seed, _digests(cmds[w], outputs))
    for p in problems:
        print(f"WRONG: {p}")
    print(json.dumps({"correct": not problems, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
