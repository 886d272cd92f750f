"""Finite-dimensional discretization of the monodromy operator.

The operator maps a history segment on ``[-tau, 0]`` to the state one period
later. It is represented through two coupled pieces of data: the history
nodal vector ``Psi`` and the forward nodal vector ``Z`` holding, on
``[0, omega]``, the derivative of the solution for differential blocks and
the solution value itself for renewal blocks. Collocating the fixed point
equation for ``Z`` at every forward node gives

    ``Z = A1 Psi + A2 Z``,

and evaluating the solution at time ``omega + theta`` for every history node
``theta`` gives the end state

    ``T Psi = B1 Psi + B2 Z = (B1 + B2 (I - A2)^{-1} A1) Psi``.

Rows of ``A1``/``A2`` apply the equation's right-hand side to the function
reconstructed from ``(Psi, Z)``: a differential block is reconstructed as
``Psi(0) + int_0^s Z`` for ``s > 0``, a renewal block is the interpolant of
``Z`` on ``(0, omega]``; both fall back to the history interpolant for
``s <= 0``. Eigenvalues of ``T`` approximate the Floquet multipliers.

Each term is assembled over all its points at once: the reconstruction
weights of all evaluation (or quadrature) points come from batched calls,
and each row sums the weights of its points, scaled by their coefficients.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .interp import integral_weights, prolong_pairs, window_rule
from .mesh import (
    CollocationGrid,
    Mesh,
    NodeFamily,
    build_grid,
)
from .model import DiscreteTerm, LinearPeriodicEquation

__all__ = [
    "MonodromyDiscretization",
    "MultiplierSet",
    "CoarseDiscretizationError",
    "MissingBreakpointsError",
    "assemble",
    "multipliers",
    "eigenfunction",
]

MAX_DIMENSION = 20_000  # guard against runaway problem sizes
# Dense weight entries built at once during assembly (512 kB). Kept small on
# purpose: glibc raises its mmap threshold to the size of a freed large block,
# and the heap then keeps memory through the LU and eigensolve phases (32 MB
# batches raised the peak RSS of plant M=40 by 30 MB).
BATCH_ENTRIES = 1 << 16


class CoarseDiscretizationError(RuntimeError):
    """The fixed-point system is singular: the grid is too coarse."""


class MissingBreakpointsError(ValueError):
    """Strict mode: the mesh omits smoothness breakpoints of the equation."""


@dataclass(frozen=True, eq=False)
class MonodromyDiscretization:
    """Assembled block matrices and the resulting monodromy matrix."""

    equation: LinearPeriodicEquation
    grid: CollocationGrid
    blocks: dict  # A1, A2, B1, B2
    T: np.ndarray
    merged_breakpoints: tuple[float, ...] = ()

    @property
    def n_hist(self) -> int:
        return self.grid.history.n

    @property
    def n_fwd(self) -> int:
        return self.grid.forward.n

    @property
    def dim(self) -> int:
        return self.T.shape[0]

    @cached_property
    def _eig(self) -> tuple[np.ndarray, np.ndarray]:
        return _sorted_eig(self.T)

    def pencil(self) -> tuple[np.ndarray, np.ndarray]:
        """Generalized eigenvalue formulation separating ``(Psi, Z)``.

        Returns ``(P, Q)`` with ``P = [[B1, B2], [A1, A2 - I]]`` and
        ``Q = diag(I, 0)``; the finite eigenvalues of ``P v = mu Q v`` are
        the eigenvalues of the monodromy matrix.
        """
        a1, a2, b1, b2 = (self.blocks[k] for k in ("A1", "A2", "B1", "B2"))
        nh, nf = b1.shape[0], a2.shape[0]
        p = np.block([[b1, b2], [a1, a2 - np.eye(nf)]])
        q = np.zeros((nh + nf, nh + nf))
        q[:nh, :nh] = np.eye(nh)
        return p, q


@dataclass(frozen=True, eq=False)
class MultiplierSet:
    """Approximate Floquet multipliers, sorted by decreasing modulus.

    ``spurious`` flags eigenvalues below the discard threshold (they are
    kept in the list). The stability verdict ignores the trivial multiplier.
    """

    values: np.ndarray
    trivial_index: int | None
    verdict: str
    spurious: np.ndarray
    tol_stab: float
    tol_discard: float

    def trivial(self) -> complex | None:
        if self.trivial_index is None:
            return None
        return complex(self.values[self.trivial_index])

    def dominant(self) -> complex:
        return complex(self.values[0])

    def dominant_nontrivial(self) -> complex | None:
        for i, mu in enumerate(self.values):
            if i == self.trivial_index or self.spurious[i]:
                continue
            return complex(mu)
        return None

    def __len__(self) -> int:
        return self.values.size


def _merge_breakpoints(eq: LinearPeriodicEquation, mesh: Mesh, enforce: str):
    tol = 1e-9 * max(1.0, eq.omega)
    b = mesh.breakpoints
    missing = [
        p for p in eq.breakpoints
        if 0.0 < p < eq.omega - tol and np.abs(b - p).min() > tol
    ]
    if not missing or enforce == "ignore":
        return mesh, ()
    if enforce == "strict":
        raise MissingBreakpointsError(
            f"mesh omits smoothness breakpoints {missing}; refusing in strict mode"
        )
    if enforce != "merge":
        raise ValueError(f"unknown breakpoint enforcement mode {enforce!r}")
    warnings.warn(
        f"mesh omits smoothness breakpoints {missing}; merging them in",
        stacklevel=3,
    )
    return Mesh(np.sort(np.concatenate([b, missing]))), tuple(missing)


class _Assembler:
    """Blocks ``A1, A2, B1, B2`` as (node, component, node, component) arrays."""

    def __init__(self, eq: LinearPeriodicEquation, grid: CollocationGrid,
                 quad_degree: int | None):
        self.eq = eq
        self.grid = grid
        self.quad_degree = quad_degree or max(grid.family.degree, 5)
        nh, nf, d = grid.history.n, grid.forward.n, eq.d
        self.A1 = np.zeros((nf, d, nh, d))
        self.A2 = np.zeros((nf, d, nf, d))
        self.B1 = np.zeros((nh, d, nh, d))
        self.B2 = np.zeros((nh, d, nf, d))
        # points per batch of dense weight rows, bounding their memory
        self.batch = max(1, BATCH_ENTRIES // (nh + nf))

    def evaluate(self, term, fn, *args) -> np.ndarray:
        """Call a coefficient or kernel callback and check its shape."""
        eq = self.eq
        out = np.asarray(fn(*args), dtype=float)
        want = np.shape(args[0]) + (eq.block_dim(term.target), eq.block_dim(term.source))
        if out.shape != want:
            raise ValueError(
                f"{_describe(term)} returned shape {out.shape}, expected {want}: "
                "callbacks are elementwise (arrays of times in, shape + (p, q) out)"
            )
        return out

    def weights(self, source: str, side: str, s: np.ndarray):
        """Dense rows reconstructing the source block's state at times ``s``.

        Returns (history rows, forward rows); either may be ``None``.
        """
        grid = self.grid
        if side == "history":
            return _dense(grid.history.n, *prolong_pairs(grid.history, s)), None
        if source == "x":
            return None, _dense(grid.forward.n, *prolong_pairs(grid.forward, s))
        # differential block: Psi(0) + int_0^s Z
        psi0 = np.zeros((s.size, grid.history.n))
        psi0[:, -1] = 1.0
        return psi0, integral_weights(grid.forward, s)

    def add(self, hist_mat, fwd_mat, target, source, owner, coeff, side, s):
        """Add ``sum_k coeff[k] (x) weights(s[k])`` to the target rows of
        node ``owner[k]`` (nondecreasing in ``k``)."""
        eq = self.eq
        ot, os = eq.block_offset(target), eq.block_offset(source)
        p, q = coeff.shape[1:]
        # batches of whole rows: each row sums its points in order, in one pass
        starts = np.unique(np.searchsorted(owner, owner[::self.batch]))
        for b0, b1 in zip(starts, np.append(starts[1:], owner.size)):
            b = slice(b0, b1)
            k0, k1 = owner[b0], owner[b1 - 1] + 1
            for mat, w in zip((hist_mat, fwd_mat), self.weights(source, side, s[b])):
                # only the columns in use are written, so pages of the blocks
                # that stay zero are never touched
                used = np.flatnonzero(w.any(axis=0)) if w is not None else []
                if len(used) == 0:
                    continue
                cols = slice(used[0], used[-1] + 1)
                w = w[:, cols]
                # flat (row, column) target of every weight: bincount sums
                # the points of each row
                n = w.shape[1]
                flat = ((owner[b] - k0)[:, None] * n + np.arange(n)).ravel()
                for i, j in np.ndindex(p, q):
                    mat[k0:k1, ot + i, cols, os + j] += np.bincount(
                        flat, (coeff[b, i, j, None] * w).ravel(),
                        minlength=(k1 - k0) * n).reshape(k1 - k0, n)

    def add_at_times(self, hist_mat, fwd_mat, target, source, coeff, s):
        """The source state at time ``s[k]`` feeds the target rows of node ``k``."""
        past = s <= 0.0
        for side, sel in (("history", past), ("forward", ~past)):
            rows = np.nonzero(sel)[0]
            self.add(hist_mat, fwd_mat, target, source, rows, coeff[rows], side, s[rows])

    def run(self):
        eq, grid = self.eq, self.grid
        t = grid.forward.nodes
        # fixed-point rows: the equation collocated at every forward node
        for term in eq.discrete:
            coeff = self.evaluate(term, term.coeff, t)
            self.add_at_times(self.A1, self.A2, term.target, term.source, coeff,
                              t - term.delay)
        for term in eq.distributed:
            # kernel integral over [t + lower, t + upper], split at 0 where
            # the reconstruction changes form
            lo, hi = t + term.lower, t + term.upper
            for side, a, b in ((grid.history, lo, np.minimum(hi, 0.0)),
                               (grid.forward, np.maximum(lo, 0.0), hi)):
                owner, s, w = window_rule(side, a, b, self.quad_degree)
                kern = self.evaluate(term, term.kernel, t[owner], s - t[owner])
                self.add(self.A1, self.A2, term.target, term.source, owner,
                         w[:, None, None] * kern, side.label, s)
        # end-state rows: the reconstructed state at omega + theta
        s = grid.omega + grid.history.nodes
        for block in ("x", "y"):
            dim = eq.block_dim(block)
            if dim:
                coeff = np.broadcast_to(np.eye(dim), (s.size, dim, dim))
                self.add_at_times(self.B1, self.B2, block, block, coeff, s)
        return tuple(m.reshape(m.shape[0] * m.shape[1], -1)
                     for m in (self.A1, self.A2, self.B1, self.B2))


def _dense(n: int, cols: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Dense rows of ``n`` columns from (columns, weights) pairs."""
    out = np.zeros((cols.shape[0], n))
    np.put_along_axis(out, cols, w, axis=1)
    return out


def _describe(term) -> str:
    if isinstance(term, DiscreteTerm):
        return (f"coefficient of the discrete term {term.source} -> {term.target} "
                f"(delay {term.delay!r})")
    return (f"kernel of the distributed term {term.source} -> {term.target} "
            f"on [{term.lower!r}, {term.upper!r}]")


def assemble(eq: LinearPeriodicEquation, mesh: Mesh, family: NodeFamily, *,
             enforce: str = "merge", quad_degree: int | None = None) -> MonodromyDiscretization:
    """Discretize the monodromy operator of ``eq`` on ``mesh`` with the
    given node family.

    The mesh must span ``[0, omega]``. Smoothness breakpoints of the
    equation that are missing from the mesh are merged in with a warning
    (``enforce="merge"``, the default); ``enforce="strict"`` raises instead,
    and ``enforce="ignore"`` keeps the mesh as given (order-reduction
    studies need this deliberately unsafe mode). Raises
    :class:`CoarseDiscretizationError` when the fixed-point system is
    numerically singular.
    """
    span_tol = 1e-9 * max(1.0, eq.omega)
    if abs(mesh.breakpoints[-1] - eq.omega) > span_tol or mesh.breakpoints[0] != 0.0:
        raise ValueError(
            f"mesh spans [{mesh.breakpoints[0]}, {mesh.breakpoints[-1]}] "
            f"but the equation period is {eq.omega}"
        )
    mesh, merged = _merge_breakpoints(eq, mesh, enforce)
    grid = build_grid(mesh, family, eq.tau)
    dim = eq.d * (grid.history.n + grid.forward.n)
    if dim > MAX_DIMENSION:
        raise ValueError(f"discretization dimension {dim} exceeds {MAX_DIMENSION}")

    a1, a2, b1, b2 = _Assembler(eq, grid, quad_degree).run()
    system = np.eye(a2.shape[0]) - a2
    try:
        lu, piv = scipy.linalg.lu_factor(system)
    except scipy.linalg.LinAlgError as exc:
        raise CoarseDiscretizationError(
            "fixed-point system is singular: discretization too coarse"
        ) from exc
    rcond = _rcond(system, lu)
    if rcond < 1e-14:
        raise CoarseDiscretizationError(
            f"fixed-point system is numerically singular (rcond={rcond:.2e}): "
            "discretization too coarse"
        )
    t_mat = b1 + b2 @ scipy.linalg.lu_solve((lu, piv), a1)
    return MonodromyDiscretization(
        equation=eq, grid=grid,
        blocks={"A1": a1, "A2": a2, "B1": b1, "B2": b2},
        T=t_mat, merged_breakpoints=merged,
    )


def _rcond(system: np.ndarray, lu: np.ndarray) -> float:
    gecon = scipy.linalg.get_lapack_funcs("gecon", (system,))
    rcond, info = gecon(lu, np.linalg.norm(system, 1), norm="1")
    return float(rcond) if info == 0 else 0.0


def _sorted_eig(matrix: np.ndarray):
    """Eigenpairs sorted by decreasing modulus, then by angle."""
    vals, vecs = scipy.linalg.eig(matrix)
    order = np.lexsort((np.angle(vals), -np.abs(vals)))
    return vals[order], vecs[:, order]


def multipliers(disc: MonodromyDiscretization, mode: str = "direct", *,
                tol_discard: float = 1e-12, tol_stab: float = 1e-6,
                trivial_radius: float = 0.1) -> MultiplierSet:
    """Extract approximate Floquet multipliers from a discretization.

    ``direct`` takes the eigenvalues of the assembled monodromy matrix.
    ``pencil`` starts from the generalized problem that separates the
    history and forward unknowns and reduces it internally to the same
    standard problem through the ``(I - A2)`` solve, so both modes agree to
    roundoff-identical values. Eigenvalues with modulus below
    ``tol_discard`` are flagged as numerically spurious but kept.
    """
    if mode == "direct":
        vals = disc._eig[0]
    elif mode == "pencil":
        p, _ = disc.pencil()
        nh = disc.T.shape[0]
        b1p, b2p = p[:nh, :nh], p[:nh, nh:]
        a1p, a2mi = p[nh:, :nh], p[nh:, nh:]
        # -(A2 - I) is I - A2 bit for bit, so the reduction runs through
        # the very same factorization and eigensolver as the direct mode
        try:
            lu, piv = scipy.linalg.lu_factor(-a2mi)
            t_mat = b1p + b2p @ scipy.linalg.lu_solve((lu, piv), a1p)
        except scipy.linalg.LinAlgError as exc:
            raise CoarseDiscretizationError(
                "pencil reduction failed: discretization too coarse"
            ) from exc
        vals = _sorted_eig(t_mat)[0]
    else:
        raise ValueError(f"unknown multiplier mode {mode!r}")

    mods = np.abs(vals)
    spurious = mods < tol_discard
    dist_to_one = np.abs(vals - 1.0)
    trivial_index = int(np.argmin(dist_to_one))
    if dist_to_one[trivial_index] > trivial_radius:
        trivial_index = None
    nontrivial = np.ones(vals.size, dtype=bool)
    if trivial_index is not None:
        nontrivial[trivial_index] = False
    nt_mods = mods[nontrivial]
    if nt_mods.size and np.any(nt_mods > 1.0 + tol_stab):
        verdict = "unstable"
    elif nt_mods.size == 0 or np.all(nt_mods < 1.0 - tol_stab):
        verdict = "stable"
    else:
        verdict = "inconclusive"
    return MultiplierSet(
        values=vals, trivial_index=trivial_index, verdict=verdict,
        spurious=spurious, tol_stab=tol_stab, tol_discard=tol_discard,
    )


def eigenfunction(disc: MonodromyDiscretization, index: int):
    """Eigenvector ``index`` (in modulus-sorted order) as history nodal values.

    Normalized to unit maximum absolute value; shape (n_hist, d).
    """
    from .interp import NodalFunction

    vals, vecs = disc._eig
    if not (0 <= index < vals.size):
        raise IndexError(f"eigenvalue index {index} out of range 0..{vals.size - 1}")
    v = vecs[:, index].reshape(disc.n_hist, disc.equation.d)
    v = v / np.abs(v).max()
    return NodalFunction(side=disc.grid.history, values=v)
