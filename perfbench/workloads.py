"""Workload process of the pwfloquet benchmark.

One process is one closed-loop client: it sets a workload up, then computes
one case at a time until the measuring time is used up, checking every
case's multipliers against ``references.json``. ``run.py`` starts it with
the BLAS thread cap in its environment and ``src/`` on ``PYTHONPATH``.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/workloads.py --workload NAME --seed N --setup-only

The last line of standard output is one JSON object. Only the standard
library is imported at module level, so the set-up time includes loading
numpy, scipy and pwfloquet.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import re
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCES = HERE / "references.json"
TRACE_DIR = HERE / "out"

TOP = 8        # multipliers stored per reference, by decreasing modulus
COMPARED = 6   # of which the leading ones are compared


def _close(obs: float, ref: float, rtol: float, atol: float) -> bool:
    return abs(obs - ref) <= rtol * abs(ref) + atol


def multiplier_observation(values, trivial_index, verdict: str, dim: int) -> dict:
    """The facts a case is checked on: top multipliers, trivial error, verdict."""
    trivial = None if trivial_index is None else complex(values[trivial_index])
    return {
        "top": [[float(v.real), float(v.imag)] for v in values[:TOP]],
        "trivial_err": None if trivial is None else abs(trivial - 1.0),
        "verdict": verdict,
        "dim": int(dim),
    }


def compare_multipliers(obs: dict, ref: dict) -> list[str]:
    """Differences between an observation and its reference, as messages.

    Moduli are compared in order; each reference value must also have a
    computed value nearby among the stored ones, since conjugate pairs of
    equal modulus may come out in either order.
    """
    rtol, atol = ref["rtol"], ref["atol"]
    problems = []
    if obs["verdict"] != ref["verdict"]:
        problems.append(f"verdict {obs['verdict']} != {ref['verdict']}")
    if obs["dim"] != ref["dim"]:
        problems.append(f"dim {obs['dim']} != {ref['dim']}")
    if obs["trivial_err"] is None or obs["trivial_err"] > ref["trivial_err_max"]:
        problems.append(f"trivial error {obs['trivial_err']} above "
                        f"{ref['trivial_err_max']}")
    got = [complex(*v) for v in obs["top"]]
    want = [complex(*v) for v in ref["top"][:COMPARED]]
    if len(got) < len(want):
        return problems + [f"only {len(got)} multipliers"]
    for i, r in enumerate(want):
        if not _close(abs(got[i]), abs(r), rtol, atol):
            problems.append(f"|mu_{i}| = {abs(got[i])!r}, reference {abs(r)!r}")
        if min(abs(g - r) for g in got) > rtol * abs(r) + atol:
            problems.append(f"no multiplier near reference {r!r}")
    return problems


def _run_cli(cli, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code != 0:
        print(err.getvalue(), file=sys.stderr)
    return code, out.getvalue()


def parse_multiplier_csv(code: int, text: str) -> dict:
    """Observation from the CSV that ``pwfloquet multipliers`` prints."""
    verdict, values, trivial_index = None, [], None
    for line in text.splitlines():
        if line.startswith("# verdict="):
            verdict = line.split("=", 1)[1]
        elif line and line[0] in "-0123456789":
            re_, im, _mod, is_trivial, _flag = line.split(",")
            if is_trivial == "1":
                trivial_index = len(values)
            values.append(complex(float(re_), float(im)))
    obs = multiplier_observation(values, trivial_index, verdict, len(values))
    obs["exit_code"] = code
    return obs


def parse_converge_csv(code: int, text: str) -> dict:
    """Observation from the CSV that ``pwfloquet converge`` prints."""
    reference, columns, rows = None, None, []
    for line in text.splitlines():
        if line.startswith("# reference:"):
            reference = line
        elif line and not line.startswith("#"):
            if columns is None:
                columns = line.split(",")
            else:
                size, *errs = line.split(",")
                rows.append([int(size)] + [float(e) for e in errs])
    ref_value = None
    match = re.search(r"\(([^)]*)\)", reference or "")
    if match:
        z = complex(match.group(1))
        ref_value = [z.real, z.imag]
    return {"exit_code": code, "columns": columns, "rows": rows,
            "reference_value": ref_value,
            "self_reference": reference is not None and "self-computed" in reference}


def compare_converge(obs: dict, ref: dict, rtol: float, atol: float) -> list[str]:
    if obs["exit_code"] != 0:
        return [f"exit code {obs['exit_code']}"]
    problems = []
    if obs["columns"] != ref["columns"]:
        problems.append(f"columns {obs['columns']} != {ref['columns']}")
    if obs["self_reference"] != ref["self_reference"]:
        problems.append("reference kind changed")
    if obs["reference_value"] is None or not all(
            _close(o, r, rtol, atol)
            for o, r in zip(obs["reference_value"], ref["reference_value"])):
        problems.append(f"reference value {obs['reference_value']}")
    if len(obs["rows"]) != len(ref["rows"]):
        return problems + [f"{len(obs['rows'])} rows, expected {len(ref['rows'])}"]
    for got, want in zip(obs["rows"], ref["rows"]):
        if got[0] != want[0] or not all(
                _close(g, w, rtol, atol) for g, w in zip(got[1:], want[1:])):
            problems.append(f"row {got} != reference {want}")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class QreDistributed:
    """Quadratic renewal equation (gamma = 4) around its closed-form orbit,
    uniform mesh L = 40, degree M = 15: distributed-kernel assembly."""

    name = "qre-distributed"
    L, M, GAMMA = 40, 15, 4.0

    def setup(self, seed: int, tracer=None) -> None:
        self.build(random.Random(seed).randrange(self.L), tracer)

    def build(self, shift_pieces: int, tracer=None) -> None:
        import numpy as np
        from pwfloquet import mesh, model, monodromy

        self.model, self.monodromy = model, monodromy
        built = model.builtin("quadratic-re", gamma=self.GAMMA)
        omega = built.exact.omega
        # a shift by whole mesh pieces leaves the discretized problem the
        # same up to roundoff, so the multipliers do not move
        self.shift_pieces = shift_pieces
        shift = shift_pieces * omega / self.L
        fn = built.exact.fn
        self.solution = model.ExactSolution(
            fn=lambda t: fn(np.asarray(t, dtype=float) + shift), omega=omega, d=1)
        self.problem = built.problem
        self.traced_problem = tracer.instrument_problem(built.problem) if tracer else None
        self.mesh = mesh.Mesh(np.linspace(0.0, omega, self.L + 1))
        self.family = mesh.chebyshev_family(self.M)

    def inputs(self) -> dict:
        return {"shift_pieces": self.shift_pieces}

    def case(self, tracer=None):
        problem = self.traced_problem if tracer else self.problem
        eq = self.model.linearize(problem, self.solution)
        disc = self.monodromy.assemble(eq, self.mesh, self.family)
        ms = self.monodromy.multipliers(disc)
        return multiplier_observation(ms.values, ms.trivial_index, ms.verdict, disc.dim)

    def check(self, obs: dict, refs: dict) -> tuple[int, list[str]]:
        return 1, compare_multipliers(obs, refs[self.name])


class PlantAdapted:
    """Neural-feedback DDE: re-solve the shipped degree-5 orbit at degree 6
    on the adapted mesh (ratio 55.91), linearize, multipliers at M = 40."""

    name = "plant-adapted"
    DEGREE, M = 6, 40
    # rotations by whole pieces that keep the history grid, and hence the
    # matrix sizes (T is 1042^2), equal to the unrotated problem; other
    # rotations give dim 1122..1282 and a different cost per case
    ROTATIONS = (29, 0, 1, 2)

    @staticmethod
    def rotated(breakpoints, orbit, k: int):
        """Mesh on [0, 1] and guess profile rotated left by ``k`` pieces."""
        import numpy as np

        b = np.asarray(breakpoints, dtype=float)
        if k == 0:
            return b, orbit
        rb = np.concatenate([b[k:-1] - b[k], b[: k + 1] + 1.0 - b[k]])
        rb[-1] = 1.0
        start, omega = b[k], orbit.omega
        return rb, (lambda s: orbit((np.asarray(s, dtype=float) + start) * omega))

    def setup(self, seed: int, tracer=None) -> None:
        self.build(random.Random(seed).choice(self.ROTATIONS), tracer)

    def build(self, rotation: int, tracer=None) -> None:
        from pwfloquet import bvp, mesh, model, monodromy

        self.model, self.monodromy, self.bvp = model, monodromy, bvp
        built = model.builtin("plant")
        mesh01 = mesh.read_mesh(model.data_path("plant_adapted.mesh"))
        orbit = model.read_solution(model.data_path("plant_solution.sol"))
        self.rotation = rotation
        breakpoints, profile = self.rotated(mesh01.breakpoints, orbit, self.rotation)
        self.family = mesh.chebyshev_family(self.M)
        self.problem = bvp.BvpProblem(
            problem=built.problem, mesh=mesh.Mesh(breakpoints), degree=self.DEGREE,
            period_guess=orbit.omega, guess_profile=profile)
        self.traced_problem = None
        if tracer:
            import dataclasses
            self.traced_problem = dataclasses.replace(
                self.problem, problem=tracer.instrument_problem(built.problem))

    def inputs(self) -> dict:
        return {"rotation_pieces": self.rotation}

    def case(self, tracer=None):
        bvp_problem = self.traced_problem if tracer else self.problem
        result = self.bvp.solve_periodic(bvp_problem)
        eq = self.model.linearize(bvp_problem.problem, result.solution)
        disc = self.monodromy.assemble(eq, result.solution.mesh, self.family)
        ms = self.monodromy.multipliers(disc)
        return multiplier_observation(ms.values, ms.trivial_index, ms.verdict, disc.dim)

    def check(self, obs: dict, refs: dict) -> tuple[int, list[str]]:
        return 1, compare_multipliers(obs, refs[self.name])


class LogisticCli:
    """The README command for the delay logistic equation, in-process."""

    name = "logistic-cli"
    ARGV = ("multipliers", "--problem", "logistic", "--r", "1.6",
            "--mesh", "solution", "-M", "4")

    def setup(self, seed: int, tracer=None) -> None:
        # the CLI takes no phase or shift input for this problem, so the
        # seed leaves the inputs unchanged
        from pwfloquet import cli

        self.cli = cli

    def inputs(self) -> dict:
        return {"argv": list(self.ARGV)}

    def case(self, tracer=None):
        code, text = _run_cli(self.cli, self.ARGV)
        if tracer:
            tracer.note("cli.output_bytes", len(text.encode()))
        return code, text

    def check(self, out, refs: dict) -> tuple[int, list[str]]:
        obs = parse_multiplier_csv(*out)
        if obs["exit_code"] != 0:
            return 1, [f"exit code {obs['exit_code']}"]
        return 1, compare_multipliers(obs, refs[self.name])


QRE_REFERENCE = "value:-0.13546429565783374"
SWEEPS = {
    "qre-sem-M": ("converge", "--problem", "quadratic-re", "--gamma", "4", "--exact",
                  "--vary", "M", "--values", "4,5,6,7,8,9,10,11,12,13,14,15",
                  "--fixed", "4", "--mesh", "uniform:4",
                  "--reference", QRE_REFERENCE, "--track", "trivial,dominant"),
    "qre-fem-L-M2": ("converge", "--problem", "quadratic-re", "--gamma", "4", "--exact",
                     "--vary", "L", "--values", "5,10,20,40", "--fixed", "2",
                     "--mesh", "uniform:5",
                     "--reference", QRE_REFERENCE, "--track", "trivial,dominant"),
    "qre-fem-L-M3": ("converge", "--problem", "quadratic-re", "--gamma", "4", "--exact",
                     "--vary", "L", "--values", "5,10,20,40", "--fixed", "3",
                     "--mesh", "uniform:5",
                     "--reference", QRE_REFERENCE, "--track", "trivial,dominant"),
    "tent-M": ("converge", "--problem", "tent", "--vary", "M",
               "--values", "4,8,16,32,64", "--fixed", "1", "--mesh", "uniform:1",
               "--enforce", "ignore", "--reference", "self:2,120", "--track", "dominant"),
}


class ConvergenceSweep:
    """The convergence sweeps of acceptance criteria 03-05 through the CLI:
    one case runs all four ``converge`` commands in a seed-shuffled order."""

    name = "convergence-sweep"

    def setup(self, seed: int, tracer=None) -> None:
        from pwfloquet import cli

        self.cli = cli
        self.rng = random.Random(seed)
        self.orders = []

    def inputs(self) -> dict:
        return {"first_orders": self.orders[:3]}

    def case(self, tracer=None):
        order = self.rng.sample(sorted(SWEEPS), len(SWEEPS))
        self.orders.append(order)
        outputs = {}
        for key in order:
            outputs[key] = _run_cli(self.cli, SWEEPS[key])
            if tracer:
                tracer.note("cli.output_bytes", len(outputs[key][1].encode()))
        return outputs

    def check(self, outputs, refs: dict) -> tuple[int, list[str]]:
        ref = refs[self.name]
        discs, problems = 0, []
        for key, out in outputs.items():
            obs = parse_converge_csv(*out)
            discs += len(obs["rows"]) + (1 if obs["self_reference"] else 0)
            problems += [f"{key}: {p}" for p in
                         compare_converge(obs, ref["sweeps"][key], ref["rtol"], ref["atol"])]
        return discs, problems


WORKLOADS = {w.name: w for w in (QreDistributed, PlantAdapted, LogisticCli,
                                 ConvergenceSweep)}


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


def tail_quantile(n: int) -> float:
    """The higher of p90 and the highest percentile with ten samples beyond it."""
    return max(0.9, 1.0 - 10.0 / n) if n else 0.9


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def measure(workload, seconds: float, tracer, refs: dict) -> dict:
    """Run and check cases one after another for about ``seconds``.

    With a tracer, odd-numbered cases are traced and even-numbered ones are
    not, so the tracing overhead is measured under the same conditions.
    Timings are taken over the cases that passed their check; failed cases
    count in ``failed`` (their times are used only if no case passed).
    """
    times = {False: [], True: []}
    failed_times = []
    attempted = failed = discs = 0
    case_time = 0.0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and attempted % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_case()
        t0 = time.perf_counter()
        try:
            out = workload.case(tracer if traced else None)
            error = None
        except Exception:
            error = traceback.format_exc()
        dt = time.perf_counter() - t0
        if traced:
            tracer.end_case()
            tracer.uninstall()
        attempted += 1
        if error is None:
            n_discs, problems = workload.check(out, refs)
        else:
            n_discs, problems = 0, [error]
        if problems:
            failed += 1
            failed_times.append(dt)
            print(f"case {attempted} failed:", *problems, sep="\n  ", file=sys.stderr)
        else:
            times[traced].append(dt)
            discs += n_discs
            case_time += dt
        # start another case only if a typical one would end within the
        # measuring time, so that a run of slow cases keeps to its time
        typical = statistics.median(times[False] + times[True] + failed_times)
        if (time.perf_counter() - start + typical > seconds
                and (tracer is None or tracer.cases)):
            break
    untraced = times[False] or failed_times
    result = {"attempted": attempted, "failed": failed,
              "p50": statistics.median(untraced),
              "tail": quantile(untraced, tail_quantile(len(untraced))),
              "cases": len(times[False]),
              "discs_per_s": discs / case_time if case_time > 0 else 0.0}
    if tracer is not None:
        result["traced_p50"] = statistics.median(times[True] or failed_times)
        result["traced_cases"] = len(times[True])
    return result


def environment() -> dict:
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    workload = WORKLOADS[args.workload]()
    t0 = time.perf_counter()
    import pwfloquet
    workload.setup(args.seed, tracer)
    setup_s = time.perf_counter() - t0
    if not Path(pwfloquet.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"pwfloquet imported from {pwfloquet.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    refs = json.loads(REFERENCES.read_text())
    result = measure(workload, args.seconds, tracer, refs)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    result["inputs"] = workload.inputs()
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["trace.cases"] = tracer.cases
        layers["trace.overhead_s"] = result["traced_p50"] - result["p50"]
        layers["trace.overhead_ratio"] = layers["trace.overhead_s"] / result["p50"]
        result["layers"] = layers
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "env": result["env"],
             "layers": layers, **tracer.dump()}))
        result["trace_file"] = str(trace_file.relative_to(HERE.parent))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
