"""Recompute ``perfbench/references.json``, the values every case is checked on.

    PYTHONPATH=src python3 perfbench/make_references.py

Run from the root of a source checkout, only at a commit whose multipliers
are trusted: the benchmark counts any case that differs from these values
by more than the stated tolerance as failed. Besides the pinned values, the
file records the largest relative drift seen across the seed-chosen inputs
(orbit shifts, mesh rotations), which each tolerance must exceed.
"""

from __future__ import annotations

import json
import sys

import workloads as wl
from run import ROOT, _git_commit, _source_digest

TOLERANCES = {
    # seed drift is roundoff here; allows reordered summation in assembly
    "qre-distributed": (1e-9, 1e-14),
    # the orbit comes from Newton stopped at residual 1e-10: allows another
    # Newton path (e.g. an exact Jacobian) to stop elsewhere in that ball
    "plant-adapted": (1e-7, 1e-12),
    "logistic-cli": (1e-7, 1e-12),
    # errors near the roundoff floor (1e-16) need the absolute term
    "convergence-sweep": (1e-6, 1e-12),
}


def drift(observations: list[dict]) -> float:
    """Largest relative change of the leading multipliers across inputs."""
    base = [complex(*v) for v in observations[0]["top"][:wl.COMPARED]]
    worst = 0.0
    for obs in observations[1:]:
        got = [complex(*v) for v in obs["top"]]
        for r in base:
            worst = max(worst, min(abs(g - r) for g in got) / abs(r))
    return worst


def pin(obs: dict, name: str, seed_drift: float) -> dict:
    rtol, atol = TOLERANCES[name]
    if seed_drift >= rtol:
        raise SystemExit(f"{name}: seed drift {seed_drift:.1e} exceeds rtol {rtol:.0e}")
    return {"top": obs["top"], "dim": obs["dim"], "verdict": obs["verdict"],
            "trivial_err": obs["trivial_err"],
            "trivial_err_max": max(10.0 * obs["trivial_err"], 1e-12),
            "rtol": rtol, "atol": atol, "seed_drift": seed_drift}


def main() -> int:
    refs = {"computed_at": {"git_commit": _git_commit(ROOT),
                            "src_digest": _source_digest(ROOT / "src")}}

    qre = wl.QreDistributed()
    seen = []
    for k in (0, 7, 13, 26, 39):
        qre.build(k)
        seen.append(qre.case())
        print(f"qre shift {k}: {seen[-1]['top'][1]}", file=sys.stderr)
    refs[qre.name] = pin(seen[0], qre.name, drift(seen))

    plant = wl.PlantAdapted()
    seen = []
    for k in sorted(plant.ROTATIONS):
        plant.build(k)
        seen.append(plant.case())
        print(f"plant rotation {k}: dim {seen[-1]['dim']}", file=sys.stderr)
        if seen[-1]["dim"] != seen[0]["dim"]:
            raise SystemExit(f"rotation {k} changes the dimension")
    refs[plant.name] = pin(seen[0], plant.name, drift(seen))

    logistic = wl.LogisticCli()
    logistic.setup(0)
    obs = wl.parse_multiplier_csv(*logistic.case())
    if obs["exit_code"] != 0:
        raise SystemExit("logistic CLI failed")
    refs[logistic.name] = pin(obs, logistic.name, 0.0)

    sweep = wl.ConvergenceSweep()
    sweep.setup(0)
    rtol, atol = TOLERANCES[sweep.name]
    refs[sweep.name] = {"rtol": rtol, "atol": atol, "sweeps": {}}
    for key, out in sorted(sweep.case().items()):
        obs = wl.parse_converge_csv(*out)
        if obs["exit_code"] != 0:
            raise SystemExit(f"sweep {key} failed")
        del obs["exit_code"]
        refs[sweep.name]["sweeps"][key] = obs

    wl.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {wl.REFERENCES}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
