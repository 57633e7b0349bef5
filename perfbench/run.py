"""Benchmark of the tripletwb analysis chain: one workload per invocation.

Run from the repository root; the package need not be installed:

    python3 perfbench/run.py --workload cli-chain --seed 1 --seconds 10 --trace 0

The workload runs in its own process with ``src`` on the path and BLAS
pinned to one thread. Two further processes only time the set-up, and
``setup_s`` is the median of the three. Times are in reference seconds,
corrected for the host's speed by a probe (see workload.py). The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli-chain", "nc-lattice", "fit")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # every run must end within 180 s


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], timeout: float) -> dict:
    """Run workload.py with ``args`` and return its last stdout line as JSON."""
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tripletwb benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (Path.cwd() / "src" / "tripletwb" / "__init__.py").is_file():
        print("error: run from the repository root; src/tripletwb is missing",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    workdir = HERE / "_work" / args.workload
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--workdir", str(workdir)]
    def left() -> float:
        return DEADLINE_S - (time.monotonic() - start)

    try:
        setups = [run_child(common + ["--setup-only"], left())
                  for _ in range(SETUP_SAMPLES - 1)]
        res = run_child(common, left())
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res)
    if args.trace:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in res["layers"].items()}
    else:
        metrics = {
            "wall_ref_s": {"value": statistics.median(res["round_ref_s"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(s["setup_ref_s"] for s in setups),
                        "unit": "s"},
        }
    print(f"rounds: measured {[round(r, 3) for r in res['round_s']]} s, reference "
          f"{[round(r, 3) for r in res['round_ref_s']]} s; set-up: measured "
          f"{[round(s['setup_s'], 4) for s in setups]} s, reference "
          f"{[round(s['setup_ref_s'], 4) for s in setups]} s; checks {res['checks']}",
          file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
