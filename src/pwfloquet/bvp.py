"""Periodic solutions by piecewise collocation with unknown period.

The problem is rescaled to [0, 1]: the unknowns are the values of a
continuous piecewise polynomial at equidistant nodes per piece, plus the
period. Equations are the delay equation collocated at per-piece Gauss
(or Chebyshev) points, the periodicity constraint ``p(0) = p(1)``, and one
scalar phase condition removing the time-translation degeneracy. The
resulting square nonlinear system is solved by a damped Newton iteration
with a forward-difference Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .interp import bary_table, derivative_matrix_at, lagrange_matrix
from .mesh import UNIFORM, Mesh, reference_nodes
from .model import NonlinearProblem, PiecewiseSolution

__all__ = [
    "BvpProblem",
    "BvpResult",
    "ConvergenceError",
    "SingularJacobianError",
    "GAUSS_LEGENDRE",
    "CHEBYSHEV_ZEROS",
    "solve_periodic",
    "residual",
]

GAUSS_LEGENDRE = "gauss-legendre"
CHEBYSHEV_ZEROS = "chebyshev-zeros"

FD_STEP = 1e-7
MAX_HALVINGS = 8


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, residual_norm: float | None = None):
        super().__init__(message)
        self.residual_norm = residual_norm


class SingularJacobianError(RuntimeError):
    pass


@dataclass
class BvpProblem:
    """Setup for one periodic solve.

    ``mesh`` partitions [0, 1]; ``guess_profile(s)`` supplies the initial
    profile on [0, 1] (a PiecewiseSolution over its own period is rescaled).
    ``phase_reference`` defaults to the initial guess.
    """

    problem: NonlinearProblem
    mesh: Mesh
    degree: int
    period_guess: float
    guess_profile: Callable | PiecewiseSolution
    colloc_kind: str = GAUSS_LEGENDRE
    phase: str = "integral"  # or "fixed"
    phase_reference: Callable | PiecewiseSolution | None = None


@dataclass
class BvpResult:
    solution: PiecewiseSolution
    period: float
    iterations: int
    residual_norm: float
    converged: bool


def _collocation_points(kind: str, m: int) -> np.ndarray:
    if kind == GAUSS_LEGENDRE:
        x, _ = np.polynomial.legendre.leggauss(m)
    elif kind == CHEBYSHEV_ZEROS:
        x = -np.cos((2 * np.arange(1, m + 1) - 1) * np.pi / (2 * m))
    else:
        raise ValueError(f"unknown collocation node kind {kind!r}")
    return 0.5 * (x + 1.0)


def _profile_on_01(source) -> Callable:
    if isinstance(source, PiecewiseSolution):
        om = source.omega
        return lambda s: source(np.asarray(s) * om)
    return lambda s: np.atleast_1d(source(s))


class _System:
    """Precomputed tables and the residual map for one BVP instance."""

    def __init__(self, bvp: BvpProblem):
        self.problem = bvp.problem
        self.d = bvp.problem.d
        self.d_x = bvp.problem.d_x
        self.mesh = bvp.mesh
        self.m = bvp.degree
        if self.m < 1:
            raise ValueError("polynomial degree must be >= 1")
        if abs(self.mesh.breakpoints[0]) > 1e-14 or abs(self.mesh.breakpoints[-1] - 1.0) > 1e-14:
            raise ValueError("the BVP mesh must span [0, 1]")
        self.L = self.mesh.L
        self.fam = reference_nodes(UNIFORM, self.m)
        self.table = bary_table(self.fam)
        self.zeta = _collocation_points(bvp.colloc_kind, self.m)
        self.Wc = lagrange_matrix(self.table, self.zeta)          # (m, m+1)
        self.Dc = derivative_matrix_at(self.table, self.zeta)     # (m, m+1)
        self.n_nodes = self.L * self.m + 1
        self.n_unknowns = self.d * self.n_nodes + 1
        b = self.mesh.breakpoints
        self.h = np.diff(b)
        self.abs_colloc = b[:-1, None] + self.h[:, None] * self.zeta[None, :]
        # phase condition: per-piece Gauss rule exact for <p, q'>
        gq, gw = np.polynomial.legendre.leggauss(self.m + 1)
        gq = 0.5 * (gq + 1.0)
        self.ph_x = gq
        self.ph_w = 0.5 * gw
        self.Wq = lagrange_matrix(self.table, gq)                 # (m+1, m+1)
        self.Dq = derivative_matrix_at(self.table, gq)
        self.phase_mode = bvp.phase
        ref = bvp.phase_reference if bvp.phase_reference is not None else bvp.guess_profile
        ref_nodal = self.nodal_view(_initial_state_from(self, ref))  # (L, m+1, d)
        if self.phase_mode == "integral":
            self.qprime = np.einsum("qj,ijd->iqd", self.Dq, ref_nodal) / self.h[:, None, None]
        elif self.phase_mode == "fixed":
            self.fixed_value = float(ref_nodal[0, 0, 0])
        else:
            raise ValueError(f"unknown phase condition {self.phase_mode!r}")

    def nodal_view(self, flat: np.ndarray) -> np.ndarray:
        p = flat.reshape(self.n_nodes, self.d)
        idx = np.arange(self.L)[:, None] * self.m + np.arange(self.m + 1)[None, :]
        return p[idx]  # (L, m+1, d)

    def evaluator(self, pieces: np.ndarray):
        b = self.mesh.breakpoints
        table = self.table

        def ev(s):
            s = np.mod(np.atleast_1d(np.asarray(s, dtype=float)), 1.0)
            idx = np.clip(np.searchsorted(b, s, side="right") - 1, 0, self.L - 1)
            x = (s - b[idx]) / self.h[idx]
            w = lagrange_matrix(table, x)
            return np.einsum("pj,pjd->pd", w, pieces[idx])

        return ev

    def residual(self, state: np.ndarray) -> np.ndarray:
        w = state[-1]
        pieces = self.nodal_view(state[:-1])
        ev = self.evaluator(pieces)
        d = self.d
        npts = self.L * self.m
        base = self.abs_colloc.ravel()

        # one batched right-hand-side call covering every collocation point
        def u(theta):
            th = np.asarray(theta, dtype=float)
            if th.ndim == 0:
                return ev(base + float(th) / w)
            pos = base[:, None] + th[None, :] / w
            return ev(pos.ravel()).reshape(npts, th.size, d)

        g = np.asarray(self.problem.rhs(u), dtype=float).reshape(npts, d)
        pv = np.einsum("cj,ijd->icd", self.Wc, pieces).reshape(npts, d)
        pd = np.einsum("cj,ijd->icd", self.Dc, pieces)
        pd = (pd / self.h[:, None, None]).reshape(npts, d)
        rows = np.empty((npts, d))
        rows[:, : self.d_x] = pv[:, : self.d_x] - g[:, : self.d_x]
        rows[:, self.d_x :] = pd[:, self.d_x :] - w * g[:, self.d_x :]

        res = np.empty(self.n_unknowns)
        res[: npts * d] = rows.ravel()
        pos = npts * d
        res[pos : pos + d] = pieces[0, 0] - pieces[-1, -1]
        pos += d
        if self.phase_mode == "integral":
            pq = np.einsum("qj,ijd->iqd", self.Wq, pieces)
            res[pos] = np.einsum("iqd,iqd,q,i->", pq, self.qprime, self.ph_w, self.h)
        else:
            res[pos] = pieces[0, 0, 0] - self.fixed_value
        return res


def _initial_state_from(sys: _System, source) -> np.ndarray:
    prof = _profile_on_01(source)
    b = sys.mesh.breakpoints
    vals = []
    for i in range(sys.L):
        nodes = b[i] + sys.h[i] * sys.fam.nodes
        block = np.asarray([np.atleast_1d(prof(s)) for s in nodes], dtype=float)
        if block.shape[1] != sys.d:
            raise ValueError(
                f"profile returns dimension {block.shape[1]}, expected {sys.d}"
            )
        vals.append(block if i == 0 else block[1:])
    return np.concatenate(vals).ravel()


def _initial_state(sys: _System, bvp: BvpProblem) -> np.ndarray:
    flat = _initial_state_from(sys, bvp.guess_profile)
    return np.concatenate([flat, [float(bvp.period_guess)]])


def residual(bvp: BvpProblem, profile_state: np.ndarray, period: float) -> np.ndarray:
    """Residual of a candidate (nodal values, period); pure function.

    ``profile_state`` holds the nodal values flattened node-major.
    """
    sys = _System(bvp)
    state = np.concatenate([np.asarray(profile_state, dtype=float).ravel(), [period]])
    return sys.residual(state)


def solve_periodic(bvp: BvpProblem, tol: float = 1e-10,
                   max_iters: int = 50) -> BvpResult:
    """Newton-solve the collocation system for a periodic solution.

    Parameters
    ----------
    bvp : BvpProblem
        Problem, mesh over [0, 1], degree, initial profile and period guess.
    tol : float
        Convergence threshold on the residual infinity norm.
    max_iters : int
        Newton iteration budget; exceeding it raises ConvergenceError.

    Returns
    -------
    BvpResult
        The solution as a piecewise polynomial over ``[0, period]``.

    Raises
    ------
    SingularJacobianError
        If the linearized system is singular (degenerate phase condition or
        a non-isolated solution); try a better guess or phase reference.
    ConvergenceError
        If the residual does not reach ``tol`` within ``max_iters``.
    """
    sys = _System(bvp)
    state = _initial_state(sys, bvp)
    r = sys.residual(state)
    rnorm = float(np.abs(r).max())
    iterations = 0
    while rnorm > tol:
        if not np.isfinite(rnorm):
            raise ConvergenceError("residual is not finite", rnorm)
        if iterations >= max_iters:
            raise ConvergenceError(
                f"no convergence after {max_iters} iterations "
                f"(residual {rnorm:.3e})", rnorm,
            )
        jac = _fd_jacobian(sys, state, r)
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(
                "singular collocation Jacobian; supply a better initial guess "
                "or a different phase reference"
            ) from exc
        lam = 1.0
        for _ in range(MAX_HALVINGS + 1):
            trial = state + lam * step
            rt = sys.residual(trial)
            tnorm = float(np.abs(rt).max())
            if np.isfinite(tnorm) and tnorm < rnorm:
                break
            lam *= 0.5
        state, r, rnorm = trial, rt, tnorm
        iterations += 1

    period = float(state[-1])
    if period <= 0:
        raise ConvergenceError(f"converged to a nonpositive period {period}", rnorm)
    pieces = sys.nodal_view(state[:-1])
    solution = PiecewiseSolution(
        breakpoints=period * sys.mesh.breakpoints,
        values=pieces.copy(),
        node_kind=UNIFORM,
    )
    return BvpResult(
        solution=solution, period=period, iterations=iterations,
        residual_norm=rnorm, converged=True,
    )


def _fd_jacobian(sys: _System, state: np.ndarray, r0: np.ndarray) -> np.ndarray:
    n = state.size
    jac = np.empty((n, n))
    for i in range(n):
        delta = FD_STEP * max(1.0, abs(state[i]))
        pert = state.copy()
        pert[i] += delta
        jac[:, i] = (sys.residual(pert) - r0) / delta
    return jac
