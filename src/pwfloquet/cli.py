"""Command line front end.

Subcommands: ``solve`` (periodic solutions), ``multipliers`` (Floquet
multipliers of a linearized problem), ``converge`` (discretization sweeps
with fitted convergence orders), ``mesh-info``. Options come from an INI
config file, whose keys are parsed as the flags they stand for, plus flag
overrides; every option and spec is parsed before any orbit is computed.
Outputs are CSV files with ``#``-prefixed header metadata. Exit codes: 0
success, 2 convergence failure, 3 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import os
import re
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import bvp as bvp_mod
from . import model, monodromy
from .mesh import (UNIFORM, Mesh, chebyshev_family, mesh_ratio, read_mesh, reference_nodes,
                   refine_mesh, write_mesh)

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 2
EXIT_CONFIG = 3


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern (-2, -1.5) misses the exponent form: --eta -1e-1
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

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
# INI sections and their keys (configparser lowercases keys), each the flag it
# stands for: a file is parsed as those flags, with their types and choices
_INI_FLAGS = {
    "problem": {"name": "--problem", **{p: f"--{p}" for p in _PARAM_NAMES}},
    "bvp": {"l": "-L", "m": "-m", "tol": "--tol", "max_iters": "--max-iters",
            "family": "--family", "phase": "--phase"},
    "monodromy": {"mesh": "--mesh", "m": "-M", "enforce": "--enforce"},
    "output": {"path": "-o"},
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
    # the multipliers subcommand carries every flag; the flag=value form keeps
    # a short flag or a negative value in one token
    tokens = ["multipliers"]
    for name in ini.sections():
        flags = _INI_FLAGS.get(name)
        if flags is None:
            raise ConfigError(f"config file {path!r}: unknown section [{name}]")
        for key, value in ini[name].items():
            if key not in flags:
                raise ConfigError(f"config file {path!r}: unknown key {key!r} "
                                  f"in section [{name}]")
            tokens.append(f"{flags[key]}={value}")
    try:
        args = _build_parser().parse_args(tokens)
    except ConfigError as exc:
        raise ConfigError(f"config file {path!r}: {exc}") from None
    return _apply_overrides(cfg, args)


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
    reference_nodes(UNIFORM, cfg.bvp_m)  # refuses a degree below 1
    mesh01 = _bvp_mesh(cfg)
    if cfg.guess_file:
        guess = model.read_solution(cfg.guess_file)
        profile, period = guess, guess.omega
    elif built.make_guess is not None:
        profile, period = built.make_guess()
    else:
        raise ConfigError(f"problem {built.name!r} has no initial-guess heuristic; "
                          "supply --guess-file")
    problem = bvp_mod.BvpProblem(problem=built.problem, mesh=mesh01, degree=cfg.bvp_m,
                                 period_guess=period, guess_profile=profile,
                                 colloc_kind=cfg.colloc, phase=cfg.phase)
    return bvp_mod.solve_periodic(problem, tol=cfg.bvp_tol, max_iters=cfg.bvp_max_iters)


def _exact(built: model.Builtin) -> model.ExactSolution:
    if built.exact is None:
        raise ConfigError(f"problem {built.name!r} has no closed-form solution")
    return built.exact


def _linear_equation(cfg: RunConfig, built: model.Builtin):
    """The equation to take multipliers of, and the solution it linearizes."""
    if built.linear is not None:
        return built.linear, None
    if cfg.solution_file:
        solution = model.read_solution(cfg.solution_file)
    elif cfg.exact:
        solution = _exact(built)
    else:
        solution = _solve(cfg, built).solution
    if built.name == "plant-coupled":
        # a plant orbit (v, w), reordered into the coupled layout (w, v)
        solution = model.coupled_view_of_plant(solution)
    return model.linearize(built.problem, solution), solution


def _mesh_source(spec: str) -> tuple[str, object]:
    """``(kind, value)`` of a mesh source: ``solution``, ``uniform:<L>``,
    ``refined:<hmax>`` with ``hmax > 0``, ``refined:auto`` (value None) or
    ``file:<path>`` (value the mesh, read here): all before any orbit."""
    kind, colon, value = spec.partition(":")
    if colon and kind == "file":
        return kind, read_mesh(value)
    try:
        if spec == "solution":
            return kind, value
        if colon and kind == "refined" and value in ("", "auto"):
            return kind, None
        if colon and kind == "refined" and float(value) > 0.0:  # nan fails too
            return kind, float(value)
        if kind == "uniform" and int(value) >= 1:
            return kind, int(value)
    except ValueError:
        pass
    raise ConfigError(f"unknown mesh source {spec!r} (expected solution, uniform:<L> with "
                      "L >= 1, refined:<hmax|auto> where hmax must be positive, or file:<path>)")


def _monodromy_mesh(source: tuple[str, object], eq, solution) -> Mesh:
    kind, value = source
    if kind == "uniform":
        return Mesh(np.linspace(0.0, eq.omega, value + 1))
    if kind == "file":
        return value.over_period(eq.omega)
    if not isinstance(solution, model.PiecewiseSolution):
        raise ConfigError(f"mesh source {kind!r} needs a piecewise solution "
                          "(use uniform:<L> or file:<path>)")
    if kind == "solution":
        return solution.mesh
    # default cap: a fifth of the longest solution-mesh piece
    return refine_mesh(solution.mesh, solution.mesh.widths.max() / 5.0 if value is None
                       else value)


def _reference_spec(spec: str) -> tuple[str, object]:
    """The reference of a sweep: ``("value", mu)`` or ``("self", (L, M))``."""
    kind, _, value = spec.partition(":")
    try:
        if kind == "value" and value.count(",") <= 1:
            return kind, complex(*map(float, value.split(",")))
        if kind == "self" and value.count(",") == 1:
            return kind, tuple(map(_count, value.split(",")))
    except (ValueError, argparse.ArgumentTypeError):
        pass
    raise argparse.ArgumentTypeError(f"unknown reference spec {spec!r} (expected "
                                     "self:<L>,<M> with L, M >= 1 or value:<re>[,<im>])")


def _count(text: str) -> int:
    """A number of mesh pieces or a sweep's degree: an integer >= 1."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not an integer >= 1: {text!r}")


def _track(text: str) -> list[str]:
    columns = [c.strip() for c in text.split(",") if c.strip()]
    if not columns or not set(columns) <= {"trivial", "dominant"}:
        raise argparse.ArgumentTypeError(f"{text!r}: expected trivial, dominant or both")
    return columns


def _write_csv(path: str | None, lines: list[str], shown: list[str]) -> None:
    """Write the CSV ``lines`` to ``path`` and print ``shown``, or print them all."""
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        text = "".join(line + "\n" for line in shown)
    sys.stdout.write(text)


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
    print(f"solve {built.name}: omega={omega!r} rho={mesh_ratio(sol.mesh):.6g} {report} "
          f"-> {out}")
    return EXIT_OK


def cmd_multipliers(cfg: RunConfig, source, save_mesh: str | None) -> int:
    family = chebyshev_family(cfg.M)  # refuses a degree below 1
    built = _get_builtin(cfg)
    eq, solution = _linear_equation(cfg, built)
    disc = monodromy.assemble(eq, _monodromy_mesh(source, eq, solution), family,
                              enforce=cfg.enforce)
    if save_mesh:
        write_mesh(disc.grid.mesh, save_mesh,
                   header=f"collocation mesh, problem={built.name} "
                          f"source={cfg.mesh_source}")
    ms = monodromy.multipliers(disc)
    lines = ["# pwfloquet multipliers", f"# config_hash={cfg.hash()}",
             f"# problem={built.name} params={sorted(built.params.items())}",
             f"# mesh_source={cfg.mesh_source} L={disc.grid.mesh.L} M={cfg.M}",
             f"# verdict={ms.verdict}", "re,im,modulus,is_trivial,flag"]
    lines += ["%.16e,%.16e,%.16e,%d,%s" % (mu.real, mu.imag, abs(mu), i == ms.trivial_index,
                                           "spurious" if ms.spurious[i] else "")
              for i, mu in enumerate(ms.values)]
    _write_csv(cfg.output, lines, shown=[])
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


def cmd_converge(cfg: RunConfig, source, args) -> int:
    vary, values, fixed, columns = args.vary, args.values, args.fixed, args.track
    built = _get_builtin(cfg)
    # meshes are uniform with L pieces, unless the source gives one mesh: a
    # file, or the mesh of the orbit (read or solved) or a refinement of it
    orbit = built.linear is None and bool(cfg.solution_file or not cfg.exact)
    one_mesh = source[0] in ("refined", "file") or source[0] == "solution" and orbit
    if one_mesh and vary == "L":
        raise ConfigError(f"--vary L needs uniform meshes, but mesh source "
                          f"{cfg.mesh_source!r} gives a single mesh "
                          "(use --mesh uniform:<L>)")
    eq, solution = _linear_equation(cfg, built)
    fixed_mesh = _monodromy_mesh(source, eq, solution) if one_mesh else None
    where = f"mesh {cfg.mesh_source} L={fixed_mesh.L}" if one_mesh else None
    sweep = where or f"fixed {'L' if vary == 'M' else 'M'}={fixed}"

    def run(L, M):
        mesh = fixed_mesh if one_mesh else _monodromy_mesh(("uniform", L), eq, solution)
        disc = monodromy.assemble(eq, mesh, chebyshev_family(M), enforce=cfg.enforce)
        return monodromy.multipliers(disc)

    # reference for the dominant (nontrivial where present) multiplier
    kind, ref = args.reference
    if kind == "self":
        L_ref, M_ref = ref
        ref = _reference_multiplier(run(L_ref, M_ref))
        ref_desc = f"self-computed {where or f'L={L_ref}'} M={M_ref} value={ref}"
    else:
        ref_desc = f"pinned value {ref}"

    errors = {col: [] for col in columns}
    for v in values:
        ms = run(*((fixed, v) if vary == "M" else (v, fixed)))
        if "trivial" in errors:
            triv = ms.trivial()
            errors["trivial"].append(abs(triv - 1.0) if triv is not None else float("nan"))
        if "dominant" in errors:
            dom = _reference_multiplier(ms)
            errors["dominant"].append(min(abs(dom - ref), abs(dom - np.conj(ref))))

    header = ["# pwfloquet converge", f"# config_hash={cfg.hash()}",
              f"# problem={built.name} params={sorted(built.params.items())}",
              f"# sweep: vary {vary}, {sweep}", f"# reference: {ref_desc}"]
    header += [f"# fitted_order_{col}={_fit_order(values, errors[col]):.4g}"
               for col in columns]
    lines = header + [",".join([vary] + [f"err_{col}" for col in columns])]
    lines += [",".join([str(v)] + ["%.16e" % errors[col][i] for col in columns])
              for i, v in enumerate(values)]
    _write_csv(cfg.output, lines, shown=header)
    return EXIT_OK


def cmd_mesh_info(path: str) -> int:
    mesh = read_mesh(path)
    w = mesh.widths
    print(f"mesh {path}: L={mesh.L} span=[{float(mesh.breakpoints[0])!r}, "
          f"{float(mesh.breakpoints[-1])!r}] ratio={mesh_ratio(mesh):.6g} "
          f"h_min={w.min():.6g} h_max={w.max():.6g}")
    return EXIT_OK


@lru_cache(maxsize=None)  # main and _load_config share one parser per process
def _build_parser() -> _Parser:
    parser = _Parser(prog="pwfloquet",
                     description="Floquet multipliers of periodic delay equations "
                                 "by piecewise collocation")
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="compute a periodic solution")
    p_mult = sub.add_parser("multipliers", help="Floquet multipliers")
    p_conv = sub.add_parser("converge", help="discretization sweeps")
    for p in (p_solve, p_mult, p_conv):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--problem", help="builtin problem name")
        for name in _PARAM_NAMES:
            p.add_argument(f"--{name}", type=float, help=f"problem parameter {name}")
        p.add_argument("-o", "--output", help="output file path")
        p.add_argument("-L", dest="bvp_L", type=_count, help="number of mesh pieces")
        p.add_argument("-m", dest="bvp_m", type=int, help="polynomial degree of the solver")
        p.add_argument("--tol", dest="bvp_tol", type=float, help="Newton residual tolerance")
        p.add_argument("--max-iters", dest="bvp_max_iters", type=int)
        p.add_argument("--family", dest="colloc",
                       choices=(bvp_mod.GAUSS_LEGENDRE, bvp_mod.CHEBYSHEV_ZEROS),
                       help="collocation node family of the periodic solver")
        p.add_argument("--phase", choices=("integral", "fixed"))
        p.add_argument("--mesh-file", dest="mesh_file", help="solver mesh on [0, 1]")
        p.add_argument("--guess-file", dest="guess_file", help="initial guess solution file")
        p.add_argument("--exact", action="store_true", default=None,
                       help="use the closed-form solution where available")
    for p in (p_mult, p_conv):
        p.add_argument("-M", type=int, help="collocation degree per piece")
        p.add_argument("--mesh", dest="mesh_source", help="mesh source: solution | "
                       "uniform:<L> | refined:<hmax|auto> | file:<path>")
        p.add_argument("--enforce", choices=monodromy.ENFORCE_CHOICES,
                       help="smoothness-breakpoint handling")
        p.add_argument("--solution-file", dest="solution_file",
                       help="linearize around this stored solution")
    p_mult.add_argument("--save-mesh", dest="save_mesh",
                        help="write the collocation mesh actually used")
    p_conv.add_argument("--vary", choices=["M", "L"], required=True)
    p_conv.add_argument("--values", type=lambda text: [*map(_count, text.split(","))],
                        required=True, help="comma-separated sweep values")
    p_conv.add_argument("--fixed", type=_count, required=True,
                        help="the value of the non-varied parameter")
    p_conv.add_argument("--reference", type=_reference_spec, default="self:2,120",
                        help="self:<L>,<M> or value:<re>[,<im>]")
    p_conv.add_argument("--track", type=_track, default="trivial,dominant",
                        help="columns: trivial,dominant")
    p_info = sub.add_parser("mesh-info", help="inspect a mesh file")
    p_info.add_argument("path")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "mesh-info":
            return cmd_mesh_info(args.path)
        cfg = _apply_overrides(_load_config(args.config), args)
        if args.command == "solve":
            return cmd_solve(cfg)
        source = _mesh_source(cfg.mesh_source)
        if args.command == "multipliers":
            return cmd_multipliers(cfg, source, args.save_mesh)
        return cmd_converge(cfg, source, args)  # the last required subcommand
    except BrokenPipeError:
        # the reader stopped early (``| head``); stdout goes to devnull so
        # that its flush at exit does not fail again
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
