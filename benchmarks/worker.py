"""The process that runs the program for ``run.py``.

Run from the checkout root.  Modes:

* ``setup``  -- import the package and run one warm-up job; report the time.
* ``timed``  -- the same set-up, then a closed loop of jobs for ``--seconds``
  (one client, no think time), then the peak resident memory of whatever ran
  the program, then the one-versus-two-worker render check.
* ``trace``  -- the traced run of ``tracing.run``; spans go to a JSON-lines
  file.

The result goes to ``--result`` as JSON; the worker prints nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import workloads as wl


def _timed(workload: str, seed: int, seconds: float, mode: str) -> dict:
    cmds = wl.build(workload, seed)
    fresh = not wl.in_process(workload)
    t0 = time.perf_counter()
    import hypercomplex.cli  # noqa: F401  (part of set-up: the package import)

    last = wl.run_job(cmds, fresh)
    result = {"setup_s": time.perf_counter() - t0}
    if mode == "setup":
        result["outputs"] = {workload: last}
        return result
    job_ms, attempted, failed = [], 0, 0
    seen = [set() for _ in cmds]
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        last = wl.run_job(cmds, fresh)
        end = time.perf_counter()
        job_ms.append((end - t) * 1e3)
        attempted += len(last)
        failed += sum(code != 0 for code, _ in last)
        for outs, (_, stdout) in zip(seen, last):
            outs.add(stdout)
        if end - start >= seconds:
            break
    who = resource.RUSAGE_CHILDREN if fresh else resource.RUSAGE_SELF
    result.update(
        wall_s=end - start, job_ms=job_ms, attempted=attempted, failed=failed,
        peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
        stdout_stable=all(len(outs) == 1 for outs in seen),
        outputs={workload: last},
        workers_identical=wl.workers_agree(seed),
    )
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath("src"))
    for w in wl.WORKLOADS:
        os.makedirs(f"{wl.OUT_DIR}/{w}", exist_ok=True)
    if args.mode == "trace":
        import tracing

        result = tracing.run(args.seed, args.seconds)
        result.pop("recorder").write(
            f"{wl.OUT_DIR}/trace-{args.workload}-{args.seed}.jsonl")
    else:
        result = _timed(args.workload, args.seed, args.seconds, args.mode)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
