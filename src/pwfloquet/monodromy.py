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

The equation is causal, so ``I - A2`` is block lower triangular with one
diagonal block per forward mesh piece (piece 0 also owns the node at 0):
``Z`` at a node depends on ``Z`` up to the end of that node's piece only.
``assemble`` checks this, then forms ``X = (I - A2)^{-1} A1`` by block
forward substitution, ``X_i = D_i^{-1} (A1_i + A2[i, <i] X_{<i})`` with
``D_i = I - A2_ii``; the dense ``I - A2`` and its LU are never formed. The
singularity guard stays global: Higham's 1-norm estimate of
``||(I - A2)^{-1}||_1`` (the estimator LAPACK's ``gecon`` uses, run through
block forward and back substitution) against ``||I - A2||_1`` gives
``rcond``, which must reach ``1e-14``; a per-piece ``rcond`` alone would be
far weaker, so it only names the worst piece in the error message.

``multipliers`` computes eigenvalues only; ``eigenfunction`` computes the
eigenvectors when asked. The thresholds of the verdict are module constants.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .interp import NodalFunction, integral_weights, prolong_pairs, window_rule
from .mesh import (
    CollocationGrid,
    Mesh,
    NodeFamily,
    build_grid,
)
from .model import LinearPeriodicEquation, term_values

__all__ = [
    "MonodromyDiscretization",
    "MultiplierSet",
    "CoarseDiscretizationError",
    "MissingBreakpointsError",
    "assemble",
    "multipliers",
    "eigenfunction",
]

# Guard against runaway problem sizes. The blocks A1, A2, B1, B2 are dense
# and hold dim^2 doubles together (3.2 GB at 20k); the causal solve adds X
# (n_fwd x n_hist) and T, but no dense copy or factorization of I - A2.
MAX_DIMENSION = 20_000
# Dense weight entries built at once during assembly (512 kB). Kept small on
# purpose: glibc raises its mmap threshold to the size of a freed large block,
# and the heap then keeps memory through the solve and eigensolve phases (32 MB
# batches raised the peak RSS of plant M=40 by 30 MB).
BATCH_ENTRIES = 1 << 16
# Breakpoint handling accepted by ``assemble``.
ENFORCE_CHOICES = ("merge", "strict", "ignore")
# Multiplier classification: moduli below TOL_DISCARD are flagged spurious,
# the verdict needs a nontrivial modulus beyond 1 +- TOL_STAB, and the
# trivial multiplier is the eigenvalue nearest to 1 within TRIVIAL_RADIUS.
TOL_DISCARD = 1e-12
TOL_STAB = 1e-6
TRIVIAL_RADIUS = 0.1


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

    # numpy returns real arrays when every eigenvalue is real; the
    # multipliers are complex128 regardless
    @cached_property
    def _eigvals(self) -> np.ndarray:
        return _modulus_sorted(np.linalg.eigvals(self.T).astype(complex))

    @cached_property
    def _eig(self) -> tuple[np.ndarray, np.ndarray]:
        vals, vecs = np.linalg.eig(self.T)
        return vals.astype(complex), vecs


@dataclass(frozen=True, eq=False)
class MultiplierSet:
    """Approximate Floquet multipliers, sorted by decreasing modulus.

    ``spurious`` flags eigenvalues with modulus below ``TOL_DISCARD`` (they
    are kept in the list). The stability verdict ignores the trivial
    multiplier.
    """

    values: np.ndarray
    trivial_index: int | None
    verdict: str
    spurious: np.ndarray

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
    warnings.warn(
        f"mesh omits smoothness breakpoints {missing}; merging them in",
        stacklevel=3,
    )
    return Mesh(np.sort(np.concatenate([b, missing]))), tuple(missing)


class _Assembler:
    """Blocks ``A1, A2, B1, B2`` as (node, component, node, component) arrays."""

    def __init__(self, eq: LinearPeriodicEquation, grid: CollocationGrid):
        self.eq = eq
        self.grid = grid
        nh, nf, d = grid.history.n, grid.forward.n, eq.d
        self.A1 = np.zeros((nf, d, nh, d))
        self.A2 = np.zeros((nf, d, nf, d))
        self.B1 = np.zeros((nh, d, nh, d))
        self.B2 = np.zeros((nh, d, nf, d))
        # points per batch of dense weight rows, bounding their memory
        self.batch = max(1, BATCH_ENTRIES // (nh + nf))

    def evaluate(self, term, *args) -> np.ndarray:
        """Call a coefficient or kernel callback and check its shape."""
        eq = self.eq
        return term_values(term, eq.block_dim(term.target), eq.block_dim(term.source),
                           *args)

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
            coeff = self.evaluate(term, t)
            self.add_at_times(self.A1, self.A2, term.target, term.source, coeff,
                              t - term.delay)
        for term in eq.distributed:
            # kernel integral over [t + lower, t + upper], split at 0 where
            # the reconstruction changes form; clipped at t, since validation
            # lets upper exceed 0 by roundoff and Z after t must not enter
            lo, hi = t + term.lower, np.minimum(t + term.upper, t)
            for side, a, b in ((grid.history, lo, np.minimum(hi, 0.0)),
                               (grid.forward, np.maximum(lo, 0.0), hi)):
                owner, s, w = window_rule(side, a, b)
                kern = self.evaluate(term, t[owner], s - t[owner])
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


def assemble(eq: LinearPeriodicEquation, mesh: Mesh, family: NodeFamily, *,
             enforce: str = "merge") -> MonodromyDiscretization:
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
    if enforce not in ENFORCE_CHOICES:
        raise ValueError(f"unknown breakpoint enforcement {enforce!r}: "
                         f"expected one of {ENFORCE_CHOICES}")
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

    a1, a2, b1, b2 = _Assembler(eq, grid).run()
    system = _CausalSystem(a2, grid.forward, eq.d)
    rcond = system.rcond()
    if not rcond >= 1e-14:
        i = int(np.argmin(system.piece_rcond))
        raise CoarseDiscretizationError(
            f"fixed-point system is numerically singular (rcond={rcond:.2e}): "
            f"discretization too coarse; the piece nearest to singular is "
            f"{_describe_piece(grid.forward, i)} (piece rcond "
            f"{system.piece_rcond[i]:.2e})"
        )
    t_mat = b1 + b2 @ system.solve(a1)
    return MonodromyDiscretization(
        equation=eq, grid=grid,
        blocks={"A1": a1, "A2": a2, "B1": b1, "B2": b2},
        T=t_mat, merged_breakpoints=merged,
    )


def _describe_piece(side, i: int) -> str:
    b = side.breakpoints
    return f"forward piece {i} on [{b[i]:.6g}, {b[i + 1]:.6g}]"


class _CausalSystem:
    """``S = I - m`` for ``m`` block lower triangular by forward piece.

    Only the inverses ``D_i^{-1}`` of the diagonal blocks are stored.
    ``piece_rcond[i] = 1 / (||S||_1 ||D_i^{-1}||_1)`` bounds ``rcond`` from
    above (``D_i^{-1}`` is a diagonal block of ``S^{-1}``); its smallest
    entry names the piece nearest to singular. Raises ValueError when ``m``
    has an entry above the block diagonal, and
    :class:`CoarseDiscretizationError` when a diagonal block is singular.
    """

    def __init__(self, m: np.ndarray, side, d: int):
        # piece i owns the rows of nodes i M + 1 ... (i + 1) M; piece 0 also node 0
        edges = d * (np.arange(side.P + 1) * side.family.degree + 1)
        edges[0] = 0
        self.m, self.n = m, m.shape[0]
        self.blocks = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]
        self.inv = []
        col_sums = np.zeros(self.n)
        for i, rows in enumerate(self.blocks):
            if m[rows, rows.stop:].any():
                raise ValueError(
                    f"A2 is not causal: rows of {_describe_piece(side, i)} depend "
                    "on forward nodes after that piece"
                )
            diag = -m[rows, rows]
            diag[np.diag_indices_from(diag)] += 1.0
            try:
                inv = np.linalg.inv(diag)
            except np.linalg.LinAlgError as exc:
                raise CoarseDiscretizationError(
                    f"fixed-point system is singular on {_describe_piece(side, i)}: "
                    "discretization too coarse"
                ) from exc
            self.inv.append(inv)
            col_sums[:rows.start] += np.abs(m[rows, :rows.start]).sum(axis=0)
            col_sums[rows] += np.abs(diag).sum(axis=0)
        self.norm1 = col_sums.max()
        self.piece_rcond = 1.0 / (self.norm1 * np.array([np.linalg.norm(inv, 1)
                                                         for inv in self.inv]))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``S^{-1} rhs`` by block forward substitution."""
        x = np.empty(rhs.shape)
        for rows, inv in zip(self.blocks, self.inv):
            x[rows] = inv @ (rhs[rows] + self.m[rows, :rows.start] @ x[:rows.start])
        return x

    def solve_t(self, rhs: np.ndarray) -> np.ndarray:
        """``S^{-T} rhs`` by block back substitution."""
        x = np.empty(rhs.shape)
        for rows, inv in zip(reversed(self.blocks), reversed(self.inv)):
            x[rows] = inv.T @ (rhs[rows] + self.m[rows.stop:, rows].T @ x[rows.stop:])
        return x

    def inv_norm1(self) -> float:
        """Lower estimate of ``||S^{-1}||_1``: Higham's method as in LAPACK's
        ``dlacn2`` (what ``dgecon`` runs), which draws no random numbers."""
        n = self.n
        y = self.solve(np.full(n, 1.0 / n))
        if n == 1:
            return float(abs(y[0]))
        est = np.abs(y).sum()
        sign = np.where(y >= 0.0, 1.0, -1.0)
        z = self.solve_t(sign)
        j = int(np.argmax(np.abs(z)))
        for _ in range(4):  # iterations 2 ... ITMAX = 5
            y = self.solve(np.eye(1, n, j)[0])
            est_old, est = est, np.abs(y).sum()
            new_sign = np.where(y >= 0.0, 1.0, -1.0)
            if np.array_equal(new_sign, sign) or est <= est_old:
                break
            sign = new_sign
            z = self.solve_t(sign)
            last, j = j, int(np.argmax(np.abs(z)))
            if z[last] == abs(z[j]):
                break
        alt = np.resize([1.0, -1.0], n) * (1.0 + np.arange(n) / (n - 1))
        return float(max(est, 2.0 * np.abs(self.solve(alt)).sum() / (3 * n)))

    def rcond(self) -> float:
        """Reciprocal 1-norm condition estimate, as ``gecon`` defines it."""
        return 1.0 / (self.norm1 * self.inv_norm1())


def _modulus_sorted(vals: np.ndarray) -> np.ndarray:
    """Eigenvalues sorted by decreasing modulus, then by angle."""
    return vals[np.lexsort((np.angle(vals), -np.abs(vals)))]


def multipliers(disc: MonodromyDiscretization) -> MultiplierSet:
    """Extract approximate Floquet multipliers from a discretization.

    Takes the eigenvalues of the assembled monodromy matrix (eigenvalues
    only). Eigenvalues with modulus below ``TOL_DISCARD`` are flagged as
    numerically spurious but kept.
    """
    vals = disc._eigvals
    mods = np.abs(vals)
    spurious = mods < TOL_DISCARD
    dist_to_one = np.abs(vals - 1.0)
    trivial_index = int(np.argmin(dist_to_one))
    if dist_to_one[trivial_index] > TRIVIAL_RADIUS:
        trivial_index = None
    nontrivial = np.ones(vals.size, dtype=bool)
    if trivial_index is not None:
        nontrivial[trivial_index] = False
    nt_mods = mods[nontrivial]
    if nt_mods.size and np.any(nt_mods > 1.0 + TOL_STAB):
        verdict = "unstable"
    elif nt_mods.size == 0 or np.all(nt_mods < 1.0 - TOL_STAB):
        verdict = "stable"
    else:
        verdict = "inconclusive"
    return MultiplierSet(values=vals, trivial_index=trivial_index,
                         verdict=verdict, spurious=spurious)


def eigenfunction(disc: MonodromyDiscretization, index: int):
    """Eigenvector of ``multipliers(disc).values[index]`` (modulus-sorted
    order) as history nodal values.

    The eigenvectors are computed on the first call. Each value is paired
    with the eigenvector whose eigenvalue lies nearest to it, since the
    values-only and the full eigensolve may differ in the last digits.
    Normalized to unit maximum absolute value; shape (n_hist, d).
    """
    vals = disc._eigvals
    if not (0 <= index < vals.size):
        raise IndexError(f"eigenvalue index {index} out of range 0..{vals.size - 1}")
    full, vecs = disc._eig
    v = vecs[:, np.argmin(np.abs(full - vals[index]))].reshape(
        disc.n_hist, disc.equation.d)
    v = v / np.abs(v).max()
    return NodalFunction(side=disc.grid.history, values=v)
