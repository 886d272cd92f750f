"""Command line front end.

Subcommands: ``solve`` (periodic solutions), ``multipliers`` (Floquet
multipliers of a linearized problem), ``converge`` (discretization sweeps
with fitted convergence orders), ``mesh-info``. Options come from an INI
config file plus flag overrides; outputs are CSV files with ``#``-prefixed
header metadata. Exit codes: 0 success, 2 convergence failure, 3
configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bvp as bvp_mod
from . import model, monodromy
from .mesh import (
    Mesh,
    chebyshev_family,
    mesh_ratio,
    read_mesh,
    refine_mesh,
    write_mesh,
)

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 2
EXIT_CONFIG = 3


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


@dataclass
class RunConfig:
    problem: str = ""
    params: dict = field(default_factory=dict)
    exact: bool = False
    bvp_L: int = 40
    bvp_m: int = 4
    bvp_tol: float = 1e-10
    bvp_max_iters: int = 50
    colloc: str = bvp_mod.GAUSS_LEGENDRE
    phase: str = "integral"
    mesh_file: str | None = None
    guess_file: str | None = None
    mesh_source: str = "solution"
    M: int = 10
    enforce: str = "merge"
    solution_file: str | None = None
    output: str | None = None

    def hash(self) -> str:
        # where the output goes does not change what is computed, and the
        # parameters are hashed in name order, not in the order they were set
        fields = dict(vars(self), params=dict(sorted(self.params.items())))
        del fields["output"]
        lines = [f"{key}={fields[key]!r}" for key in sorted(fields)]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


_PARAM_NAMES = ("r", "gamma", "a", "b", "eta", "tau")
# the allowed values of RunConfig fields, for their flags and INI keys alike
_CHOICES = {"colloc": (bvp_mod.GAUSS_LEGENDRE, bvp_mod.CHEBYSHEV_ZEROS),
            "phase": ("integral", "fixed"), "enforce": monodromy.ENFORCE_CHOICES}
# INI sections and their keys (configparser lowercases keys): the RunConfig
# field each sets and its type; problem parameters go to RunConfig.params
_INI_KEYS = {
    "problem": {"name": ("problem", str), **{p: (None, float) for p in _PARAM_NAMES}},
    "bvp": {"l": ("bvp_L", int), "m": ("bvp_m", int), "tol": ("bvp_tol", float),
            "max_iters": ("bvp_max_iters", int), "family": ("colloc", str),
            "phase": ("phase", str)},
    "monodromy": {"mesh": ("mesh_source", str), "m": ("M", int),
                  "enforce": ("enforce", str)},
    "output": {"path": ("output", str)},
}


def _load_config(path: str | None) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg
    ini = configparser.ConfigParser(inline_comment_prefixes=(";",))
    if not ini.read(path):
        raise ConfigError(f"cannot read config file {path!r}")
    if ini.defaults():
        raise ConfigError(f"config file {path!r}: unknown section [{ini.default_section}]")
    for name in ini.sections():
        keys = _INI_KEYS.get(name)
        if keys is None:
            raise ConfigError(f"config file {path!r}: unknown section [{name}]")
        sec = ini[name]
        for key in sec:
            if key not in keys:
                raise ConfigError(f"config file {path!r}: unknown key {key!r} "
                                  f"in section [{name}]")
        for key, (attr, kind) in keys.items():
            if key not in sec:
                continue
            if attr is None:
                cfg.params[key] = kind(sec[key])
                continue
            if attr in _CHOICES and sec[key] not in _CHOICES[attr]:
                raise ConfigError(f"config file {path!r}: [{name}] {key} = {sec[key]!r} "
                                  f"is not one of {_CHOICES[attr]}")
            setattr(cfg, attr, kind(sec[key]))
    return cfg


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    # every flag's dest is the RunConfig field (or problem parameter) it sets
    for key, val in vars(args).items():
        if val is None:
            continue
        if key in _PARAM_NAMES:
            cfg.params[key] = val
        elif key in vars(cfg):
            setattr(cfg, key, val)
    return cfg


def _get_builtin(cfg: RunConfig) -> model.Builtin:
    if not cfg.problem:
        raise ConfigError("no problem selected (use --problem or a config file)")
    if not np.all(np.isfinite(list(cfg.params.values()))):
        raise ConfigError(f"problem parameters must be finite: {cfg.params}")
    try:
        return model.builtin(cfg.problem, **cfg.params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _bvp_mesh(cfg: RunConfig) -> Mesh:
    if cfg.mesh_file:
        return read_mesh(cfg.mesh_file)
    return Mesh(np.linspace(0.0, 1.0, cfg.bvp_L + 1))


def _solve(cfg: RunConfig, built: model.Builtin) -> bvp_mod.BvpResult:
    if built.problem is None:
        raise ConfigError(f"problem {built.name!r} is linear; nothing to solve")
    if built.name == "plant-coupled":
        # linearized around the plant orbit: its orbit files are plant (v, w) orbits
        built = model.builtin("plant", **cfg.params)
    # before the guess, whose orbit integration can take seconds
    bvp_mod.check_newton_settings(cfg.bvp_tol, cfg.bvp_max_iters)
    mesh01 = _bvp_mesh(cfg)
    if cfg.guess_file:
        guess = model.read_solution(cfg.guess_file)
        profile, period = guess, guess.omega
    elif built.make_guess is not None:
        profile, period = built.make_guess()
    else:
        raise ConfigError(f"problem {built.name!r} has no initial-guess heuristic; "
                          "supply --guess-file")
    problem = bvp_mod.BvpProblem(
        problem=built.problem, mesh=mesh01, degree=cfg.bvp_m,
        period_guess=period, guess_profile=profile,
        colloc_kind=cfg.colloc, phase=cfg.phase,
    )
    return bvp_mod.solve_periodic(problem, tol=cfg.bvp_tol, max_iters=cfg.bvp_max_iters)


def _exact(built: model.Builtin) -> model.ExactSolution:
    if built.exact is None:
        raise ConfigError(f"problem {built.name!r} has no closed-form solution")
    return built.exact


def _solution_for(cfg: RunConfig, built: model.Builtin):
    """Solution to linearize around: file, closed form, or a fresh solve."""
    if cfg.solution_file:
        return model.read_solution(cfg.solution_file)
    if cfg.exact:
        return _exact(built)
    return _solve(cfg, built).solution


def _linear_equation(cfg: RunConfig, built: model.Builtin):
    if built.linear is not None:
        return built.linear, None
    solution = _solution_for(cfg, built)
    if built.name == "plant-coupled":
        # a plant orbit (v, w), reordered into the coupled layout (w, v)
        solution = model.coupled_view_of_plant(solution)
    return model.linearize(built.problem, solution), solution


def _monodromy_mesh(cfg: RunConfig, eq, solution) -> Mesh:
    src = cfg.mesh_source
    if src == "solution":
        if not isinstance(solution, model.PiecewiseSolution):
            raise ConfigError("mesh source 'solution' needs a piecewise solution "
                              "(use uniform:<L>, refined:<hmax> or file:<path>)")
        return solution.mesh
    if src.startswith("uniform:"):
        L = int(src.split(":", 1)[1])
        return Mesh(np.linspace(0.0, eq.omega, L + 1))
    if src.startswith("refined:"):
        if not isinstance(solution, model.PiecewiseSolution):
            raise ConfigError("mesh source 'refined' needs a piecewise solution")
        spec = src.split(":", 1)[1]
        # default cap: a fifth of the longest solution-mesh piece
        hmax = (solution.mesh.widths.max() / 5.0 if spec in ("", "auto")
                else float(spec))
        return refine_mesh(solution.mesh, hmax)
    if src.startswith("file:"):
        mesh = read_mesh(src.split(":", 1)[1])
        if abs(mesh.breakpoints[-1] - 1.0) < 1e-12 and eq.omega != 1.0:
            mesh = mesh.scaled(eq.omega)
        return mesh
    raise ConfigError(f"unknown mesh source {src!r}")


def _write_multiplier_csv(path, cfg: RunConfig, ms, extra_header=()):
    lines = ["# pwfloquet multipliers", f"# config_hash={cfg.hash()}"]
    lines += [f"# {h}" for h in extra_header]
    lines.append(f"# verdict={ms.verdict}")
    lines.append("re,im,modulus,is_trivial,flag")
    for i, mu in enumerate(ms.values):
        flag = "spurious" if ms.spurious[i] else ""
        lines.append("%.16e,%.16e,%.16e,%d,%s" % (
            mu.real, mu.imag, abs(mu), 1 if i == ms.trivial_index else 0, flag,
        ))
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def cmd_solve(cfg: RunConfig) -> int:
    built = _get_builtin(cfg)
    if cfg.exact:
        exact = _exact(built)
        sol = model.sample_solution(exact, exact.omega, _bvp_mesh(cfg), cfg.bvp_m)
        omega, report = sol.omega, "residual=exact"
    else:
        result = _solve(cfg, built)
        sol, omega = result.solution, result.period
        report = f"iterations={result.iterations} residual={result.residual_norm:.3e}"
    out = cfg.output or f"{built.name}.sol"
    model.write_solution(sol, out)
    print(f"solve {built.name}: omega={omega!r} rho={sol.mesh_ratio:.6g} {report} -> {out}")
    return EXIT_OK


def cmd_multipliers(cfg: RunConfig, save_mesh: str | None = None) -> int:
    built = _get_builtin(cfg)
    eq, solution = _linear_equation(cfg, built)
    mesh = _monodromy_mesh(cfg, eq, solution)
    disc = monodromy.assemble(eq, mesh, chebyshev_family(cfg.M), enforce=cfg.enforce)
    if save_mesh:
        write_mesh(disc.grid.mesh, save_mesh,
                   header=f"collocation mesh, problem={built.name} "
                          f"source={cfg.mesh_source}")
    ms = monodromy.multipliers(disc)
    header = [
        f"problem={built.name} params={sorted(built.params.items())}",
        f"mesh_source={cfg.mesh_source} L={disc.grid.mesh.L} M={cfg.M}",
    ]
    text = _write_multiplier_csv(cfg.output, cfg, ms, header)
    if not cfg.output:
        sys.stdout.write(text)
    triv = ms.trivial()
    triv_msg = f"|trivial-1|={abs(triv - 1.0):.3e}" if triv is not None else "trivial=absent"
    print(f"multipliers {built.name}: dominant={ms.dominant():.10g} "
          f"dominant_nontrivial={ms.dominant_nontrivial()} {triv_msg} verdict={ms.verdict}")
    return EXIT_OK


def _reference_multiplier(ms: monodromy.MultiplierSet) -> complex:
    """The dominant multiplier, nontrivial where a trivial one exists."""
    return ms.dominant_nontrivial() if ms.trivial_index is not None else ms.dominant()


def _fit_order(sizes, errors) -> float:
    sizes = np.asarray(sizes, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = errors > 0
    if keep.sum() < 2:
        return float("nan")
    slope = np.polyfit(np.log(sizes[keep]), np.log(errors[keep]), 1)[0]
    return float(-slope)


def cmd_converge(cfg: RunConfig, vary: str, values: list[int],
                 fixed: int, ref_spec: str, track: str) -> int:
    columns = [c.strip() for c in track.split(",") if c.strip()]
    if not columns or not set(columns) <= {"trivial", "dominant"}:
        raise ConfigError(f"unknown --track {track!r}: expected trivial, dominant or both")
    built = _get_builtin(cfg)
    eq, solution = _linear_equation(cfg, built)
    # meshes are uniform with L pieces, unless the source gives one mesh (the
    # solved orbit's, a refinement of it or a file), on which only M can vary
    fixed_mesh = None
    if not cfg.mesh_source.startswith("uniform:") and (
            cfg.mesh_source != "solution" or isinstance(solution, model.PiecewiseSolution)):
        if vary == "L":
            raise ConfigError(f"--vary L needs uniform meshes, but mesh source "
                              f"{cfg.mesh_source!r} gives a single mesh "
                              "(use --mesh uniform:<L>)")
        fixed_mesh = _monodromy_mesh(cfg, eq, solution)
    one_mesh = None if fixed_mesh is None else f"mesh {cfg.mesh_source} L={fixed_mesh.L}"

    def run(L, M):
        mesh = fixed_mesh
        if mesh is None:
            mesh = Mesh(np.linspace(0.0, eq.omega, L + 1))
        disc = monodromy.assemble(eq, mesh, chebyshev_family(M), enforce=cfg.enforce)
        return monodromy.multipliers(disc)

    # reference for the dominant (nontrivial where present) multiplier
    if ref_spec.startswith("value:"):
        parts = [float(x) for x in ref_spec.split(":", 1)[1].split(",")]
        ref = complex(parts[0], parts[1] if len(parts) > 1 else 0.0)
        ref_desc = f"pinned value {ref}"
    elif ref_spec.startswith("self:"):
        L_ref, M_ref = (int(x) for x in ref_spec.split(":", 1)[1].split(","))
        ref = _reference_multiplier(run(L_ref, M_ref))
        ref_desc = f"self-computed {one_mesh or f'L={L_ref}'} M={M_ref} value={ref}"
    else:
        raise ConfigError(f"unknown reference spec {ref_spec!r} "
                          "(expected self:<L>,<M> or value:<re>[,<im>])")

    rows = []
    for v in values:
        L, M = (fixed, v) if vary == "M" else (v, fixed)
        ms = run(L, M)
        row = {"size": v}
        if "trivial" in columns:
            triv = ms.trivial()
            row["err_trivial"] = abs(triv - 1.0) if triv is not None else float("nan")
        if "dominant" in columns:
            dom = _reference_multiplier(ms)
            row["err_dominant"] = min(abs(dom - ref), abs(dom - np.conj(ref)))
        rows.append(row)

    header = [
        "# pwfloquet converge",
        f"# config_hash={cfg.hash()}",
        f"# problem={built.name} params={sorted(built.params.items())}",
        f"# sweep: vary {vary}, " + (one_mesh or f"fixed {'L' if vary == 'M' else 'M'}={fixed}"),
        f"# reference: {ref_desc}",
    ]
    for col in columns:
        key = f"err_{col}"
        errs = [row.get(key, float("nan")) for row in rows]
        header.append(f"# fitted_order_{col}={_fit_order(values, errs):.4g}")
    lines = header + [",".join([vary] + [f"err_{c}" for c in columns])]
    for row in rows:
        lines.append(",".join(
            [str(row["size"])] + ["%.16e" % row[f"err_{c}"] for c in columns]
        ))
    text = "\n".join(lines) + "\n"
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text if not cfg.output else "\n".join(header) + "\n")
    return EXIT_OK


def cmd_mesh_info(path: str) -> int:
    mesh = read_mesh(path)
    w = mesh.widths
    print(f"mesh {path}: L={mesh.L} span=[{float(mesh.breakpoints[0])!r}, "
          f"{float(mesh.breakpoints[-1])!r}] ratio={mesh_ratio(mesh):.6g} "
          f"h_min={w.min():.6g} h_max={w.max():.6g}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="pwfloquet",
                     description="Floquet multipliers of periodic delay equations "
                                 "by piecewise collocation")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--problem", help="builtin problem name")
        for name in _PARAM_NAMES:
            p.add_argument(f"--{name}", type=float, help=f"problem parameter {name}")
        p.add_argument("-o", "--output", help="output file path")

    def add_bvp(p):
        p.add_argument("-L", dest="bvp_L", type=int, help="number of mesh pieces")
        p.add_argument("-m", dest="bvp_m", type=int, help="polynomial degree of the solver")
        p.add_argument("--tol", dest="bvp_tol", type=float, help="Newton residual tolerance")
        p.add_argument("--max-iters", dest="bvp_max_iters", type=int)
        p.add_argument("--family", dest="colloc", choices=_CHOICES["colloc"],
                       help="collocation node family of the periodic solver")
        p.add_argument("--phase", choices=_CHOICES["phase"])
        p.add_argument("--mesh-file", dest="mesh_file", help="solver mesh on [0, 1]")
        p.add_argument("--guess-file", dest="guess_file", help="initial guess solution file")
        p.add_argument("--exact", action="store_true", default=None,
                       help="use the closed-form solution where available")

    def add_mono(p):
        p.add_argument("-M", type=int, help="collocation degree per piece")
        p.add_argument("--mesh", dest="mesh_source", help="mesh source: solution | "
                       "uniform:<L> | refined:<hmax|auto> | file:<path>")
        p.add_argument("--enforce", choices=_CHOICES["enforce"],
                       help="smoothness-breakpoint handling")
        p.add_argument("--solution-file", dest="solution_file",
                       help="linearize around this stored solution")
        p.add_argument("--save-mesh", dest="save_mesh",
                       help="write the collocation mesh actually used")

    p_solve = sub.add_parser("solve", help="compute a periodic solution")
    add_common(p_solve)
    add_bvp(p_solve)

    p_mult = sub.add_parser("multipliers", help="Floquet multipliers")
    add_common(p_mult)
    add_bvp(p_mult)
    add_mono(p_mult)

    p_conv = sub.add_parser("converge", help="discretization sweeps")
    add_common(p_conv)
    add_bvp(p_conv)
    add_mono(p_conv)
    p_conv.add_argument("--vary", choices=["M", "L"], required=True)
    p_conv.add_argument("--values", required=True,
                        help="comma-separated sweep values")
    p_conv.add_argument("--fixed", type=int, required=True,
                        help="the value of the non-varied parameter")
    p_conv.add_argument("--reference", default=None,
                        help="self:<L>,<M> or value:<re>[,<im>]")
    p_conv.add_argument("--track", default="trivial,dominant",
                        help="columns: trivial,dominant")

    p_info = sub.add_parser("mesh-info", help="inspect a mesh file")
    p_info.add_argument("path")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "mesh-info":
            return cmd_mesh_info(args.path)
        cfg = _apply_overrides(_load_config(args.config), args)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "multipliers":
            return cmd_multipliers(cfg, save_mesh=getattr(args, "save_mesh", None))
        # converge, the last of the required subcommands
        values = [int(x) for x in args.values.split(",")]
        ref = args.reference or "self:2,120"
        return cmd_converge(cfg, args.vary, values, args.fixed, ref, args.track)
    except BrokenPipeError:
        # the reader stopped early (``| head``); stdout goes to devnull so
        # that its flush at exit does not fail again
        import os

        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:  # not a file descriptor
            pass
        return EXIT_OK
    except (ValueError, OSError, configparser.Error) as exc:
        # bad options, unreadable or malformed input files (INI files
        # included), unwritable outputs, meshes missing a breakpoint in strict
        # mode, and problems over the size cap are all input errors
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        # the numerical layers signal failure with RuntimeError subclasses
        # (Newton, singular systems, an orbit guess that does not oscillate)
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
