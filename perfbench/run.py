"""pwfloquet benchmark: time to Floquet multipliers, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The command measures the library
under ``src/`` (no install step), so it exits with an error when ``src/`` is
missing. It starts the workload process once for the measured run and, two
before and two after it, for set-up only (``setup_s`` is the median of the
five set-up times, since import time can be measured once per process),
each time with BLAS threads capped at the number of usable CPUs before numpy
loads. With ``--trace 0`` the last
line of standard output holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics; the line before it records the environment. Workloads,
metrics and references are described in ``perfbench/README.md``.
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
ROOT = HERE.parent
WORKER = HERE / "workloads.py"
WORKLOADS = ("qre-distributed", "plant-adapted", "logistic-cli", "convergence-sweep")
SETUP_PROCESSES = 4    # set-up-only processes, plus the measured one
DEADLINE_S = 170.0     # the whole command must end within this


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest(src: Path) -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run the workload process and return its final JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting the workload process")
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, timeout=timeout, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="pwfloquet benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = ROOT / "src"
    if not (src / "pwfloquet" / "__init__.py").is_file():
        print(f"no pwfloquet sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2

    threads = str(len(os.sched_getaffinity(0)))
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        # half of the set-up samples before the measured run, half after it,
        # so that their median does not hinge on one moment of machine load
        setups = [_worker(common + ["--setup-only"], env, deadline)["setup_s"]
                  for _ in range(SETUP_PROCESSES // 2)]
        run = _worker(common + ["--seconds", str(args.seconds),
                                "--trace", str(args.trace)], env, deadline)
        setups += [_worker(common + ["--setup-only"], env, deadline)["setup_s"]
                   for _ in range(SETUP_PROCESSES - SETUP_PROCESSES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(run["setup_s"])

    env_record = dict(run["env"], git_commit=_git_commit(ROOT),
                      src_digest=_source_digest(src), blas_thread_cap=int(threads))
    print(json.dumps({"env": env_record, "workload": args.workload,
                      "seed": args.seed, "inputs": run["inputs"],
                      "cases": run["cases"], "setup_samples_s": setups,
                      "trace_file": run.get("trace_file")}))

    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in run["layers"].items()}
    else:
        attempted = run["attempted"]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "case_s.p50": {"value": run["p50"], "unit": "s"},
            "case_s.tail": {"value": run["tail"], "unit": "s"},
            "discs_per_s": {"value": run["discs_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
            "ok_ratio": {"value": (attempted - run["failed"]) / attempted,
                         "unit": "ratio"},
        }
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith((".s", "self_s", "overhead_s")):
        return "s"
    if name.endswith(".flops"):
        return "flop"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
