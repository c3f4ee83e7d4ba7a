"""Benchmark entry point.

    python3 perfbench/run.py --workload {refine,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
`src` directory. Each workload runs in a fresh worker process (worker.py)
with the BLAS thread count fixed, and set-up time counts from that
process's start. Set-up is repeated in extra processes where it is cheap,
and its median reported. The last line of standard output is one JSON
object: correct, attempted, failed and metrics (every end-to-end metric of
BENCHMARK.json, or with --trace 1 every per-layer one; a run that measured
other metrics exits without a result).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK = HERE / "work"
BLAS_THREADS = 1
# set-up samples per run; refine's set-up trains three networks, so it is
# measured once
SETUP_SAMPLES = {"refine": 1, "cli": 3}
# every worker ends before this many seconds from the start of the run
DEADLINE_S = 170


def declared_units(trace: int) -> dict[str, str]:
    """Unit of every end-to-end metric, or with trace every per-layer one,
    from BENCHMARK.json beside this directory."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SOURCE)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(args, work: Path, setup_only: bool, deadline: float) -> tuple[float, dict]:
    """(set-up seconds from process start, the worker's result)."""
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work), "--result", str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    # in a process group of its own, so that a worker that overruns goes
    # down with the skelrefine processes it started
    proc = subprocess.Popen(cmd, env=worker_env(), cwd=ROOT, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise SystemExit(f"worker exited with code {code}")
    payload = json.loads(result_path.read_text(encoding="utf-8"))
    return payload["setup_done"] - started, payload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_SAMPLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SOURCE / "skelrefine" / "__init__.py").is_file():
        print(f"error: no program source at {SOURCE / 'skelrefine'}; run from a checkout",
              file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + DEADLINE_S
    setups = [run_worker(args, work, True, deadline)[0]
              for _ in range(SETUP_SAMPLES[args.workload] - 1)]
    setup_s, result = run_worker(args, work, False, deadline)
    setups.append(setup_s)

    print(json.dumps({"machine": result["machine"]}))
    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    values = dict(result["layers"] if args.trace else result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    units = declared_units(args.trace)
    if values.keys() != units.keys():
        raise SystemExit(f"metrics measured {sorted(values)} differ from those declared "
                         f"{sorted(units)}")
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(values.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
