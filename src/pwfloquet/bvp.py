"""Periodic solutions by piecewise collocation with unknown period.

The problem is rescaled to [0, 1]: the unknowns are the values of a
continuous piecewise polynomial at equidistant nodes per piece, plus the
period. Equations are the delay equation collocated at per-piece Gauss
(or Chebyshev) points, the periodicity constraint ``p(0) = p(1)``, and one
scalar phase condition removing the time-translation degeneracy. The
periodicity and phase rows are linear and built once. The profile is
evaluated anywhere through the interpolation weights of ``prolong_pairs``.

The square nonlinear system is solved by a damped Newton-type iteration
with an analytic Jacobian. The derivative of the right-hand side comes from
the problem's ``linearize_terms`` at the current iterate, the same terms the
monodromy assembler reads, so a problem without ``linearize_terms`` cannot be
solved (``MissingDerivativesError``); its rows come from the row chunks of
``row_sums``, as the monodromy blocks do. Where ``rhs`` integrates a
distributed delay with its own fixed quadrature (``quadratic-re``, ``plant-coupled``),
``linearize_terms`` describes the continuous integral instead, so the
Jacobian is close to, not equal to, the derivative of the residual: the
iteration is then a quasi-Newton one that converges linearly, with the same root.

Each step solves ``(A^T A + |b|^2 I) x = -A^T b``, with ``A`` the Jacobian
and ``b`` the residual, both with rows scaled to unit max-norm (a
Levenberg-Marquardt step with ``mu = |F|^2``; Yamashita & Fukushima,
Computing Suppl. 15, 2001). Near a root it is the Newton step. It also
converges where the collocation system is singular but consistent: renewal
rows on continuous elements admit a spurious piecewise mode, and on the
uniform meshes of ``quadratic-re`` the Jacobian then has a null direction
(its solutions are not isolated), where a plain Newton step diverges. A
Jacobian with a numerically zero row or column raises
``SingularJacobianError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .interp import (
    bary_table,
    gauss_rule,
    lagrange_matrix,
    prolong_pairs,
    row_sums,
    window_rule,
)
from .mesh import UNIFORM, Mesh, build_forward_grid, reference_nodes
from .model import (MissingDerivativesError, NonlinearProblem, PiecewiseSolution, nodal_values,
                    rhs_values, term_values)

__all__ = [
    "BvpProblem",
    "BvpResult",
    "ConvergenceError",
    "SingularJacobianError",
    "GAUSS_LEGENDRE",
    "CHEBYSHEV_ZEROS",
    "solve_periodic",
    "check_newton_settings",
    "residual",
]

GAUSS_LEGENDRE = "gauss-legendre"
CHEBYSHEV_ZEROS = "chebyshev-zeros"

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
    ``phase_reference`` defaults to the initial guess. Profiles are
    elementwise: they are called once, with the array ``s`` of all
    ``L m + 1`` nodes, and return shape ``s.shape + (d,)`` (or ``s.shape``
    when ``d == 1``); any other shape raises a ValueError naming both.
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


def _collocation_points(kind: str, m: int) -> np.ndarray:
    if kind == GAUSS_LEGENDRE:
        return gauss_rule(m)[0]
    if kind == CHEBYSHEV_ZEROS:
        return 0.5 * (1.0 - np.cos((2 * np.arange(1, m + 1) - 1) * np.pi / (2 * m)))
    raise ValueError(f"unknown collocation node kind {kind!r}")


class _System:
    """Fixed tables, the residual map and its Jacobian for one BVP instance.

    The unknowns are the nodal values of the profile on the uniform nodes of
    the BVP mesh, node-major in the layout of ``side.pieces``, followed by
    the period ``w``. Every evaluation of the
    profile, in the residual and in the Jacobian, goes through the
    interpolation weights of ``prolong_pairs`` on that grid side.
    """

    def __init__(self, bvp: BvpProblem):
        self.problem = bvp.problem
        self.d = d = bvp.problem.d
        self.m = m = bvp.degree
        b, L = bvp.mesh.breakpoints, bvp.mesh.L
        if abs(b[0]) > 1e-14 or abs(b[-1] - 1.0) > 1e-14:
            raise ValueError("the BVP mesh must span [0, 1]")
        self.side = build_forward_grid(Mesh(b - b[0]), reference_nodes(UNIFORM, m))
        b = self.side.breakpoints
        table = bary_table(self.side.family)
        self.n_nodes = n = L * m + 1
        self.n_unknowns = d * n + 1
        h = np.diff(b)
        cols = self.side.pieces  # (L, m+1)
        zeta = _collocation_points(bvp.colloc_kind, m)
        self.colloc = (b[:-1, None] + h[:, None] * zeta).ravel()
        npts = L * m
        # collocation rows are scaled by 1 (renewal) or by the period (differential)
        self.differential = np.arange(d) >= bvp.problem.d_x

        # the residual is linear @ nodal values - offset: the collocated value
        # (renewal) or derivative (differential) minus the scaled right-hand
        # side, then periodicity p(0) = p(1), then the phase condition
        self.linear = np.zeros((self.n_unknowns, n * d))
        rows = self.linear[: npts * d].reshape(L, m, d, n, d)
        lz = lagrange_matrix(table, zeta)
        ops = (lz, lz @ table.diff / h[:, None, None])
        for k in range(d):
            np.put_along_axis(rows[:, :, k, :, k], cols[:, None], ops[k >= bvp.problem.d_x], -1)
        period = self.linear[npts * d: npts * d + d].reshape(d, n, d)
        period[np.arange(d), 0, np.arange(d)] = 1.0
        period[np.arange(d), n - 1, np.arange(d)] = -1.0
        self.offset = np.zeros(self.n_unknowns)

        # the phase reference defaults to the guess
        ref_nodal = _initial_state(self, bvp, bvp.phase_reference)[:-1].reshape(n, d)
        phase = self.linear[-1].reshape(n, d)
        if bvp.phase == "integral":
            # <p, q'> with q the reference: per-piece Gauss rule, exact here
            gq, gw = gauss_rule(m + 1)
            wq = lagrange_matrix(table, gq)
            qprime = np.einsum("qj,ijd->iqd", wq @ table.diff,
                               ref_nodal[cols]) / h[:, None, None]
            np.add.at(phase, cols,
                      np.einsum("qj,iqd,q,i->ijd", wq, qprime, gw, h))
        elif bvp.phase == "fixed":
            phase[0, 0] = 1.0
            self.offset[-1] = ref_nodal[0, 0]
        else:
            raise ValueError(f"unknown phase condition {bvp.phase!r}")

    def nodal_view(self, flat: np.ndarray) -> np.ndarray:
        return flat.reshape(self.n_nodes, self.d)[self.side.pieces]  # (L, m+1, d)

    def values_at(self, p: np.ndarray, s) -> np.ndarray:
        """The profile with nodal values ``p`` at ``s`` (mod 1), elementwise."""
        cols, w = prolong_pairs(self.side, np.mod(s, 1.0))
        return np.einsum("...k,...kd->...d", w, p[cols])

    def evaluate(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residual and right-hand side ``g`` at the collocation points."""
        w = state[-1]
        p = state[:-1].reshape(self.n_nodes, self.d)

        # one batched right-hand-side call covering every collocation point
        def u(theta):
            return self.values_at(p, np.add.outer(self.colloc, np.asarray(theta, float) / w))

        g = rhs_values(self.problem, u, (self.colloc.size, self.d))
        res = self.linear @ state[:-1] - self.offset
        res[: g.size] -= (np.where(self.differential, w, 1.0) * g).ravel()
        return res, g

    def residual(self, state: np.ndarray) -> np.ndarray:
        return self.evaluate(state)[0]

    def jacobian(self, state: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Jacobian of the residual at ``state``; ``g`` is its right-hand side.

        The derivative of the right-hand side comes from
        ``linearize_terms`` at the iterate. A discrete term with delay ``tau``
        adds ``coeff(w s) p(s - tau / w)`` at each collocation point ``s``, a
        distributed term ``int K(w s, th) p(s + th / w) dth``. Their period
        derivatives are the same sums with ``p'(s + th / w) (-th / w^2)``.
        """
        w = state[-1]
        p = state[:-1].reshape(self.n_nodes, self.d)
        npts = self.colloc.size
        jac = np.zeros((self.n_unknowns, self.n_unknowns))
        jac[:, :-1] = self.linear
        jac[: g.size, -1] = -np.where(self.differential, g, 0.0).ravel()
        # p' on every piece, as nodal values of the piece's own polynomial
        dp = PiecewiseSolution(self.side.breakpoints, self.nodal_view(p)).derivative().values
        t = w * self.colloc
        discrete, distributed = self.problem.linearize_terms(
            lambda tt: self.values_at(p, np.asarray(tt, float) / w), w)
        every = np.arange(npts)
        for term in discrete:
            self._subtract(jac, dp, w, term, every, np.mod(self.colloc - term.delay / w, 1.0),
                           np.full(npts, term.delay / w**2), term_values(term, self.problem, t))
        for term in distributed:
            c, s, theta, wq = self._windows(term, w)
            kern = term_values(term, self.problem, t[c], theta)
            self._subtract(jac, dp, w, term, c, s, -theta / w**2,
                           w * wq[:, None, None] * kern)
        return jac

    def _subtract(self, jac, dp, w, term, c, s, dsdw, coeff):
        """Subtract ``coeff[k] p_source(s[k])``, ``s`` in [0, 1], scaled as the
        target rows of collocation point ``c[k]`` (nondecreasing) are: its nodal
        weights by ``row_sums``, and its period derivative ``coeff[k]
        p'_source(s[k]) dsdw[k]`` from the period column."""
        ot, os = self.problem.block_offset(term.target), self.problem.block_offset(term.source)
        pt, qs = coeff.shape[1:]
        coeff = coeff * (w if term.target == "y" else 1.0)
        cols, lw = prolong_pairs(self.side, s)
        for rows, at, vals in row_sums(c, cols, lw, coeff, self.d, ot, os):
            jac[rows[:, None], at] -= vals  # no chunk names a (row, column) twice
        slope = np.einsum("nk,nkd->nd", lw, dp[cols[:, 0] // self.m])[:, os:os + qs]
        np.subtract.at(jac[:, -1], c[:, None] * self.d + ot + np.arange(pt),
                       np.einsum("nij,nj->ni", coeff, slope) * dsdw[:, None])

    def _windows(self, term, w):
        """Quadrature of a distributed term at every collocation point.

        The window ``[s + lower / w, s + upper / w]`` is cut at the integers
        it crosses and each part is shifted into [0, 1]. Returns the owning
        collocation point, the point in [0, 1], its ``theta`` and its
        weight in ``s``."""
        lo = self.colloc + term.lower / w
        hi = self.colloc + min(term.upper, 0.0) / w
        shifts = np.arange(np.floor(lo.min()), np.ceil(hi.max()))
        owner, s, wq = window_rule(
            self.side, np.clip(lo[:, None] - shifts, 0.0, 1.0).ravel(),
            np.clip(hi[:, None] - shifts, 0.0, 1.0).ravel())
        c, k = np.divmod(owner, shifts.size)
        return c, s, w * (s + shifts[k] - self.colloc[c]), wq


def _initial_state(sys: _System, bvp: BvpProblem, profile=None) -> np.ndarray:
    """Nodal values over [0, 1] of ``profile`` (the guess profile unless
    given), from one elementwise call, followed by the period guess."""
    source = bvp.guess_profile if profile is None else profile
    if isinstance(source, PiecewiseSolution):
        source = lambda s, sol=source: sol(np.asarray(s) * sol.omega)
    flat = nodal_values(source, sys.side.nodes, sys.d).ravel()
    return np.concatenate([flat, [float(bvp.period_guess)]])


def _step(jac: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Levenberg-Marquardt step: ``(A^T A + |b|^2 I) x = -A^T b`` for the
    system ``A = S jac``, ``b = S r`` with rows scaled to unit max-norm."""
    size = np.abs(jac)
    rows, cols = size.max(axis=1), size.max(axis=0)
    tiny = np.finfo(float).eps * jac.shape[0] * rows.max()
    if rows.min() <= tiny or cols.min() <= tiny:
        raise SingularJacobianError(
            "singular collocation Jacobian: some equation depends on no unknown, or "
            "some unknown enters no equation (a constant phase reference, or a "
            "right-hand side that does not see the period)"
        )
    a, b = jac, r / rows
    a /= rows[:, None]
    normal = a.T @ a
    normal[np.diag_indices_from(normal)] += b @ b
    try:
        return np.linalg.solve(normal, -(a.T @ b))
    except np.linalg.LinAlgError as exc:
        raise SingularJacobianError("singular collocation Jacobian") from exc


def residual(bvp: BvpProblem, profile_state: np.ndarray, period: float) -> np.ndarray:
    """Residual of a candidate (nodal values, period); pure function.

    ``profile_state`` holds the nodal values flattened node-major.
    """
    sys = _System(bvp)
    state = np.concatenate([np.asarray(profile_state, dtype=float).ravel(), [period]])
    return sys.residual(state)


def check_newton_settings(tol: float, max_iters: int) -> None:
    """Raise ValueError unless ``tol`` is positive and finite and
    ``max_iters`` nonnegative, as ``solve_periodic`` requires."""
    if not (0.0 < tol < np.inf) or max_iters < 0:
        raise ValueError(f"tol must be positive and finite and max_iters nonnegative, "
                         f"not tol={tol!r}, max_iters={max_iters!r}")


def solve_periodic(bvp: BvpProblem, tol: float = 1e-10,
                   max_iters: int = 50) -> BvpResult:
    """Solve the collocation system for a periodic solution.

    A damped Newton-type iteration with the analytic Jacobian; see the
    module docstring for the step and for the quasi-Newton case.

    Parameters
    ----------
    bvp : BvpProblem
        Problem, mesh over [0, 1], degree, initial profile and period guess.
    tol : float
        Convergence threshold on the residual infinity norm (positive, finite).
    max_iters : int
        Newton iteration budget (nonnegative); exceeding it raises ConvergenceError.

    Returns
    -------
    BvpResult
        The solution as a piecewise polynomial over ``[0, period]``.

    Raises
    ------
    ValueError
        If ``tol`` is not positive and finite or ``max_iters`` is negative.
    MissingDerivativesError
        If the problem has no ``linearize_terms``.
    SingularJacobianError
        If the Jacobian has a numerically zero row or column (a constant
        phase reference, or a right-hand side that does not see the period);
        try a better guess or phase reference.
    ConvergenceError
        If the residual does not reach ``tol`` within ``max_iters``.
    """
    check_newton_settings(tol, max_iters)
    if bvp.problem.linearize_terms is None:
        raise MissingDerivativesError(
            f"problem {bvp.problem.name!r} does not provide derivative callbacks "
            "(linearize_terms), which the Newton iteration needs"
        )
    sys = _System(bvp)
    state = _initial_state(sys, bvp)
    r, g = sys.evaluate(state)
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
        step = _step(sys.jacobian(state, g), r)
        lam = 1.0
        for _ in range(MAX_HALVINGS + 1):
            trial = state + lam * step
            rt, gt = sys.evaluate(trial)
            tnorm = float(np.abs(rt).max())
            if np.isfinite(tnorm) and tnorm < rnorm:
                break
            lam *= 0.5
        state, r, g, rnorm = trial, rt, gt, tnorm
        iterations += 1

    period = float(state[-1])
    if period <= 0:
        raise ConvergenceError(f"converged to a nonpositive period {period}", rnorm)
    solution = PiecewiseSolution(period * sys.side.breakpoints, sys.nodal_view(state[:-1]))
    return BvpResult(
        solution=solution, period=period, iterations=iterations,
        residual_norm=rnorm,
    )

