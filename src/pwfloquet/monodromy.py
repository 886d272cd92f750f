"""Finite-dimensional discretization of the monodromy operator.

The operator maps a history segment on ``[-tau, 0]`` to the state one period
later. It is represented through the history nodal vector ``Psi`` and the
forward nodal vector ``Z`` holding, on ``[0, omega]``, the derivative of the
solution for differential blocks and the solution value itself for renewal
blocks. Collocating the fixed point equation for ``Z`` at every forward node
gives ``Z = A1 Psi + A2 Z``; the solution at ``omega + theta`` for every
history node ``theta`` gives the end state ``T Psi = B1 Psi + B2 Z =
(B1 + B2 (I - A2)^{-1} A1) Psi``, whose eigenvalues approximate the
Floquet multipliers.

Rows of ``A1``/``A2`` apply the right-hand side to the function rebuilt from
``(Psi, Z)``: a differential block as ``Psi(0) + int_0^s Z`` for ``s > 0``,
a renewal block as the interpolant of ``Z``, both as the history interpolant
for ``s <= 0``. A point touches the ``M + 1`` nodes of its piece, and for
``s`` in forward piece ``k``, ``int_0^s Z`` is ``int_0^{t_k} Z`` plus a
partial-piece part. So ``A2`` and ``B2`` act on ``Z`` extended by the
integrals ``int_0^{t_k} Z``, and each block is kept as row groups, one per
mesh piece, dense over the few columns the group touches.

The equation is causal: ``I - A2`` is block lower triangular with one
diagonal block per forward piece, which ``assemble`` checks. Block forward
substitution, each diagonal inverse folded into its piece's off-diagonal
part, forms ``X = (I - A2)^{-1} A1`` from ``A1``'s row groups where ``A1`` is
nonzero, and sums the integrals of ``X`` piece by piece. ``T`` is zero
outside the columns ``cols`` that ``A1`` or ``B1`` reads; ``X`` and ``T[:,
cols]`` are the only dense arrays (``T`` is formed on demand), and the
per-piece inverses are dropped once ``X`` is solved. Higham's
estimate of ``||(I - A2)^{-1}||_1`` (the estimator of LAPACK's ``gecon``)
against the exact ``||I - A2||_1`` gives ``rcond``, which must reach
``1e-14``.

``multipliers`` computes eigenvalues only. Up to ``DENSE_DIM`` it takes
every eigenvalue of ``T`` (``numpy.linalg.eigvals``). Above it, the verdict
and the trivial multiplier need only the multipliers of largest modulus: an
Arnoldi iteration on ``T[cols, cols]``, which has every nonzero eigenvalue of
``T``, returns at least ``LEADING``, down to a modulus below ``1 -
TRIVIAL_RADIUS``, each Ritz pair within ``KRYLOV_TOL ||T||_1``; when the basis
would exceed half the ``cols`` first, ``eigvals`` of ``T`` is taken instead.
``eigenfunction`` computes an eigenvector by inverse iteration on ``T[cols, cols]``.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .interp import (NodalFunction, bary_table, breakpoint_weights, integral_weights,
                     prolong_pairs, row_sums, window_rule)
from .mesh import CollocationGrid, Mesh, NodeFamily, build_grid
from .model import LinearPeriodicEquation, term_values

__all__ = ["MonodromyDiscretization", "MultiplierSet", "CoarseDiscretizationError",
           "MissingBreakpointsError", "assemble", "multipliers", "eigenfunction"]

# Guard against runaway problem sizes. The blocks stay structured; the dense
# arrays, X (n_fwd d rows and the integrals, one column per column A1 uses)
# and T[:, cols] (n_hist d rows), hold at most about dim^2 doubles (3.2 GB
# at 20k), as T does.
MAX_DIMENSION = 20_000
# Rows of a distributed term whose quadrature points are built at once (at 64,
# qre at L = 40, M = 15 made 12 MB temporaries, paged in anew for every chunk).
ROW_CHUNK = 32
# Breakpoint handling accepted by ``assemble``.
ENFORCE_CHOICES = ("merge", "strict", "ignore")
# Multiplier classification: moduli below TOL_DISCARD are flagged spurious,
# the verdict needs a nontrivial modulus beyond 1 +- TOL_STAB, and the
# trivial multiplier is the eigenvalue nearest to 1 within TRIVIAL_RADIUS.
TOL_DISCARD = 1e-12
TOL_STAB = 1e-6
TRIVIAL_RADIUS = 0.1
# Above DENSE_DIM, an Arnoldi iteration finds the LEADING or more multipliers
# of largest modulus, every Ritz pair within KRYLOV_TOL ||T||_1 (see
# ``_leading_eigvals``); up to it, every eigenvalue is computed.
DENSE_DIM = 200
LEADING = 24
KRYLOV_TOL = 1e-14


class CoarseDiscretizationError(RuntimeError):
    """The fixed-point system is singular: the grid is too coarse."""


class MissingBreakpointsError(ValueError):
    """Strict mode: the mesh omits smoothness breakpoints of the equation."""


@dataclass(frozen=True, eq=False)
class MonodromyDiscretization:
    """Structured block matrices, and ``T`` as ``T_cols = T[:, cols]``, zero
    elsewhere; ``cols`` lists the columns ``A1`` reads, then those only ``B1`` reads."""

    equation: LinearPeriodicEquation
    grid: CollocationGrid
    parts: dict  # A1, A2, B1, B2 as structured blocks
    T_cols: np.ndarray
    cols: np.ndarray
    merged_breakpoints: tuple[float, ...] = ()

    @cached_property
    def blocks(self) -> dict:
        """Dense ``A1, A2, B1, B2``, materialized on first use; ``assemble``
        never forms them."""
        # int_0^{t_k} Z as rows over Z, at row k d + component
        integrals = np.kron(breakpoint_weights(self.grid.forward), np.eye(self.equation.d))
        n, out = integrals.shape[1], {name: b.dense() for name, b in self.parts.items()}
        return dict(out, A2=out["A2"][:, :n] + out["A2"][:, n:] @ integrals,
                    B2=out["B2"][:, :n] + out["B2"][:, n:] @ integrals)

    @cached_property
    def T(self) -> np.ndarray:
        """The dense ``T``, materialized on first use."""
        out = np.zeros((self.dim, self.dim), order="F")
        out[:, self.cols] = self.T_cols
        return out

    @property
    def dim(self) -> int:
        return self.T_cols.shape[0]

    # numpy returns real arrays when every eigenvalue is real; the
    # multipliers are complex128 regardless
    @cached_property
    def _eigvals(self) -> np.ndarray:
        vals = None if self.dim <= DENSE_DIM else _leading_eigvals(self.T_cols, self.cols)
        if vals is None:
            vals = np.linalg.eigvals(self.T).astype(complex)
        return _modulus_sorted(vals)


@dataclass(frozen=True, eq=False)
class MultiplierSet:
    """Approximate Floquet multipliers, sorted by decreasing modulus.

    Up to ``DENSE_DIM``, ``values`` holds every eigenvalue of ``T``; above
    it, only the leading ones: at least ``LEADING``, conjugate pairs whole,
    down to a modulus below ``1 - TRIVIAL_RADIUS``, so that the trivial
    multiplier and the verdict are those of the full spectrum.
    ``spurious`` flags values with modulus below ``TOL_DISCARD`` (they are
    kept in the list). The stability verdict ignores the trivial multiplier.
    """

    values: np.ndarray
    trivial_index: int | None
    verdict: str
    spurious: np.ndarray

    def trivial(self) -> complex | None:
        return None if self.trivial_index is None else complex(self.values[self.trivial_index])

    def dominant(self) -> complex:
        return complex(self.values[0])

    def dominant_nontrivial(self) -> complex | None:
        for i, mu in enumerate(self.values):
            if i != self.trivial_index and not self.spurious[i]:
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
    warnings.warn(f"mesh omits smoothness breakpoints {missing}; merging them in",
                  stacklevel=3)
    return Mesh(np.sort(np.concatenate([b, missing]))), tuple(missing)


class _Assembler:
    """Structured ``A1, A2, B1, B2`` from the row chunks of ``row_sums``:
    every point weighs the ``M + 1`` nodes of its piece; one that reads a
    differential block on ``[0, omega]`` also weighs its ``int_0^{t_k} Z``,
    column ``n_fwd + k`` (node-major like ``Z``)."""

    def __init__(self, eq: LinearPeriodicEquation, grid: CollocationGrid):
        self.eq = eq
        self.grid = grid
        self.chunks = {name: [] for name in ("A1", "A2", "B1", "B2")}

    def add(self, hist, fwd, target, source, owner, coeff, side, s):
        """Add ``sum_k coeff[k] (x) weights(s[k])`` to the target rows of node
        ``owner[k]`` (nondecreasing in ``k``) of block ``hist`` or ``fwd``,
        the weights reconstructing the source block at times ``s``."""
        eq, grid = self.eq, self.grid
        if owner.size == 0:
            return
        if side == "history":
            pairs = [(hist, *prolong_pairs(grid.history, s))]
        elif source == "x":
            pairs = [(fwd, *prolong_pairs(grid.forward, s))]
        else:  # differential block: Psi(0) + int_0^{t_k} Z + the partial piece
            k, cols, w = integral_weights(grid.forward, s)
            one = np.ones((s.size, 1))
            pairs = [(hist, np.full((s.size, 1), grid.history.n - 1), one),
                     (fwd, cols, w), (fwd, grid.forward.n + k[:, None], one)]
        for name, cols, w in pairs:
            self.chunks[name].extend(row_sums(
                owner, cols, w, coeff, eq.d, eq.block_offset(target), eq.block_offset(source)))

    def add_at_times(self, hist, fwd, target, source, coeff, s):
        """The source state at time ``s[k]`` feeds the target rows of node ``k``."""
        past = s <= 0.0
        for side, sel in (("history", past), ("forward", ~past)):
            rows = np.nonzero(sel)[0]
            self.add(hist, fwd, target, source, rows, coeff[rows], side, s[rows])

    def run(self) -> dict:
        eq, grid = self.eq, self.grid
        t = grid.forward.nodes
        # fixed-point rows: the equation collocated at every forward node
        for term in eq.discrete:
            coeff = term_values(term, eq, t)
            self.add_at_times("A1", "A2", term.target, term.source, coeff,
                              t - term.delay)
        for term in eq.distributed:
            # kernel integral over [t + lower, t + upper], split at 0 where
            # the reconstruction changes form; clipped at t, since validation
            # lets upper exceed 0 by roundoff and Z after t must not enter.
            # Rows go in chunks, which bounds the memory of their points.
            for rows in np.array_split(np.arange(t.size), -(-t.size // ROW_CHUNK)):
                lo, hi = t[rows] + term.lower, np.minimum(t[rows] + term.upper, t[rows])
                for side, a, b in ((grid.history, lo, np.minimum(hi, 0.0)),
                                   (grid.forward, np.maximum(lo, 0.0), hi)):
                    owner, s, w = window_rule(side, a, b)
                    owner = rows[owner]
                    kern = term_values(term, eq, t[owner], s - t[owner])
                    self.add("A1", "A2", term.target, term.source, owner,
                             w[:, None, None] * kern, side.label, s)
        # end-state rows: the reconstructed state at omega + theta
        s = grid.omega + grid.history.nodes
        for block in ("x", "y"):
            dim = eq.block_dim(block)
            if dim:
                coeff = np.broadcast_to(np.eye(dim), (s.size, dim, dim))
                self.add_at_times("B1", "B2", block, block, coeff, s)
        nf, nh = eq.d * grid.forward.n, eq.d * grid.history.n
        ext = nf + eq.d * (grid.forward.P + 1)
        shapes = {"A1": (nf, nh), "A2": (nf, ext), "B1": (nh, nh), "B2": (nh, ext)}
        return {name: _Block(shape, grid.history if name[0] == "B" else grid.forward,
                             eq.d, self.chunks[name])
                for name, shape in shapes.items()}


class _Block:
    """A block as row groups ``(rows, columns, dense values)``, one per piece
    of the rows' side (its nodes after the first, piece 0's first too), each
    dense over the columns its nonzero values touch. No row chunk names a
    ``(row, column)`` twice, so each adds its nonzero values in place, chunk
    after chunk: the bits of one sum over all of them."""

    def __init__(self, shape, side, d: int, chunks):
        edges = np.r_[0, d * (side.pieces[:, -1] + 1)]
        # no sort: a (group, column) mask numbers the columns of each group;
        # it is indexed flat, at group * shape[1] + column
        mask = np.zeros(side.P * shape[1], bool)
        placed = []
        for rows, cols, vals in chunks:
            group = edges.searchsorted(rows, "right") - 1
            live = vals != 0.0
            live = ... if live.all() else live  # a view where no value is zero
            mask[((group * shape[1])[:, None] + cols)[live]] = True
            placed.append((group, rows - edges[group], live))
        mask = mask.reshape(side.P, shape[1])
        pos = (np.cumsum(mask, axis=1, dtype=np.int32) - 1).ravel()
        nrows, count = np.diff(edges), mask.sum(axis=1)
        start = np.cumsum(nrows * count) - nrows * count
        dense = np.zeros((nrows * count).sum())
        for (_, cols, vals), (group, offset, live) in zip(chunks, placed):
            first = start[group] + offset * count[group]
            dense[(first[:, None] + pos[(group * shape[1])[:, None] + cols])[live]] += vals[live]
        self.shape = shape
        self.groups = [(slice(r, r + n), np.flatnonzero(m), dense[a:a + n * c].reshape(n, c))
                       for r, m, a, n, c in zip(edges, mask, start, nrows, count)]

    def dense(self, cols=None) -> np.ndarray:
        """The dense block, or its columns ``cols`` in that order (they hold all
        its entries); column-major, like ``T``."""
        cols = np.arange(self.shape[1]) if cols is None else cols
        index = np.full(self.shape[1], cols.size)  # out of range outside cols
        index[cols] = np.arange(cols.size)
        out = np.zeros((self.shape[0], cols.size), order="F")
        for rows, at, w in self.groups:
            out[rows, index[at]] = w
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
    n_fwd = eq.d * (mesh.L * family.degree + 1)
    if n_fwd > MAX_DIMENSION:  # refused before any node is built
        raise ValueError(f"forward dimension {n_fwd} exceeds {MAX_DIMENSION}")
    grid = build_grid(mesh, family, eq.tau)
    dim = eq.d * (grid.history.n + grid.forward.n)
    if dim > MAX_DIMENSION:
        raise ValueError(f"discretization dimension {dim} exceeds {MAX_DIMENSION}")

    parts = _Assembler(eq, grid).run()
    system = _CausalSystem(parts["A2"], grid.forward, eq.d)
    rcond = system.rcond()
    if not rcond >= 1e-14:
        i = int(np.argmin(system.piece_rcond))
        raise CoarseDiscretizationError(
            f"fixed-point system is numerically singular (rcond={rcond:.2e}): "
            f"discretization too coarse; the piece nearest to singular is "
            f"{_describe_piece(grid.forward, i)} (piece rcond "
            f"{system.piece_rcond[i]:.2e})"
        )
    # T is zero outside the columns A1 or B1 reads; it equals B1 outside A1's
    used = np.unique(np.concatenate([at for _, at, _ in parts["A1"].groups]))
    cols = np.r_[used, np.setdiff1d(np.concatenate([g[1] for g in parts["B1"].groups]), used)]
    x = system.solve([(used.searchsorted(at), w) for _, at, w in parts["A1"].groups],
                     used.shape)
    del system  # its per-piece inverses, before T_cols joins X
    t_cols = parts["B1"].dense(cols)
    for rows, at, w in parts["B2"].groups:
        t_cols[rows, :used.size] += w @ x[at]
    return MonodromyDiscretization(equation=eq, grid=grid, parts=parts, T_cols=t_cols,
                                   cols=cols, merged_breakpoints=merged)


def _describe_piece(side, i: int) -> str:
    b = side.breakpoints
    return f"forward piece {i} on [{b[i]:.6g}, {b[i + 1]:.6g}]"


class _CausalSystem:
    """``S = I - A2`` for a structured ``A2`` that is block lower triangular
    by forward piece. Per piece it keeps the inverse ``D_i^{-1}`` of the
    diagonal block and ``F_i = D_i^{-1} [L_i G_i]``, its off-diagonal part
    (entries on earlier nodes, integral coefficients) over the columns
    ``cols_i``. ``piece_rcond[i] = 1 / (||S||_1 ||D_i^{-1}||_1)`` bounds
    ``rcond`` from above (``D_i^{-1}`` is a diagonal block of ``S^{-1}``).
    Raises ValueError when ``A2`` has an entry above the block diagonal, and
    :class:`CoarseDiscretizationError` when a diagonal block is singular.
    """

    def __init__(self, a2, side, d: int):
        self.side, self.d, self.n, self.ext = side, d, d * side.n, a2.shape[1]
        # rows of int over piece i of Z, over the rows of piece i's nodes
        quad = np.diff(side.breakpoints)[:, None] * bary_table(side.family).quad
        self.quad = np.einsum("pk,ce->pcke", quad, np.eye(d)).reshape(side.P, d, -1)
        # ||S||_1 exactly: each piece's rows, dense up to the end of the piece
        integrals = np.kron(breakpoint_weights(side), np.eye(d))
        col_sums = np.zeros(self.n)
        buf = np.empty((d * (side.family.degree + 1), self.n))
        self.pieces, inv_norms = [], []
        for i, (rows, cols, w) in enumerate(a2.groups):
            # sorted columns: nodes before the piece, of the piece, integrals
            lo, hi = cols.searchsorted(rows.start), cols.searchsorted(self.n)
            own, keys = cols[lo:hi], cols[hi:]
            if own.max(initial=0) >= rows.stop or keys.max(initial=0) >= self.n + (i + 1) * d:
                raise ValueError(f"A2 is not causal: rows of {_describe_piece(side, i)} "
                                 "depend on forward nodes after that piece")
            diag = np.eye(rows.stop - rows.start)
            diag[:, own - rows.start] -= w[:, lo:hi]
            try:
                inv = np.linalg.inv(diag)
            except np.linalg.LinAlgError as exc:
                raise CoarseDiscretizationError(
                    f"fixed-point system is singular on {_describe_piece(side, i)}: "
                    "discretization too coarse"
                ) from exc
            self.pieces.append((rows, inv, np.concatenate([cols[:lo], keys]),
                                inv @ np.concatenate([w[:, :lo], w[:, hi:]], axis=1)))
            inv_norms.append(np.abs(inv).sum(axis=0).max())
            a2_rows = np.matmul(w[:, hi:], integrals[keys - self.n, :rows.stop],
                                out=buf[:len(diag), :rows.stop])
            a2_rows[:, cols[:lo]] += w[:, :lo]
            a2_rows[:, rows] -= diag  # A2 - I on the piece's own columns
            col_sums[:rows.stop] += np.abs(a2_rows, out=a2_rows).sum(axis=0)
        self.norm1 = col_sums.max()
        self.piece_rcond = 1.0 / (self.norm1 * np.array(inv_norms))

    def solve(self, rhs, shape=()) -> np.ndarray:
        """``X = S^{-1} R`` by block forward substitution, ``X_j = D_j^{-1} R_j +
        F_j [X; S][cols_j]``, extended by the integrals ``S``, summed piece by
        piece. ``R`` has rows of shape ``shape``; ``rhs`` gives one group
        ``(columns, values)`` per piece: ``R_j[..., columns] = values``, else 0."""
        m, d, n = self.side.family.degree, self.d, self.n
        x = np.zeros((self.ext,) + shape)
        integrals = x[n:].reshape((self.side.P + 1, d) + shape)  # a view: int_0^{t_k}
        for j, ((rows, inv, cols, f), (at, r)) in enumerate(zip(self.pieces, rhs)):
            x_j = np.matmul(f, x[cols], out=x[rows])
            x_j[..., at] += inv @ r
            integrals[j + 1] = integrals[j] + self.quad[j] @ x[j * m * d:((j + 1) * m + 1) * d]
        return x

    def solve_t(self, rhs: np.ndarray) -> np.ndarray:
        """``S^{-T} rhs`` by block back substitution, ``x_j = D_j^{-T} acc_j``
        and ``acc[cols_j] += F_j^T acc_j``; the coefficients of the integrals
        in the rows already solved are summed backwards."""
        m, d, n = self.side.family.degree, self.d, self.n
        x = np.empty(rhs.shape)
        acc = np.concatenate([rhs, np.zeros((self.ext - n,) + rhs.shape[1:])])
        tail = np.zeros((d,) + rhs.shape[1:])
        for j in reversed(range(len(self.pieces))):
            rows, inv, cols, f = self.pieces[j]
            # piece j's nodes enter int_0^{t_k} Z for every k > j
            tail += acc[n + (j + 1) * d:n + (j + 2) * d]
            acc[j * m * d:((j + 1) * m + 1) * d] += self.quad[j].T @ tail
            x[rows] = inv.T @ acc[rows]
            acc[cols] += f.T @ acc[rows]
        return x

    def inv_norm1(self) -> float:
        """Lower estimate of ``||S^{-1}||_1``: Higham's method as in LAPACK's
        ``dlacn2`` (what ``dgecon`` runs), which draws no random numbers."""
        n = self.n

        def solve(v):  # each piece's slice of v, over every column
            return self.solve([(slice(None), v[rows]) for rows, *_ in self.pieces])[:n]

        y = solve(np.full(n, 1.0 / n))
        est = np.abs(y).sum()
        sign = np.where(y >= 0.0, 1.0, -1.0)
        z = self.solve_t(sign)
        j = int(np.argmax(np.abs(z)))
        for _ in range(4):  # iterations 2 ... ITMAX = 5
            y = solve(np.eye(1, n, j)[0])
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
        return float(max(est, 2.0 * np.abs(solve(alt)).sum() / (3 * n)))

    def rcond(self) -> float:
        """Reciprocal 1-norm condition estimate, as ``gecon`` defines it."""
        return 1.0 / (self.norm1 * self.inv_norm1())


def _modulus_sorted(vals: np.ndarray) -> np.ndarray:
    """Eigenvalues sorted by decreasing modulus, then by angle."""
    return vals[np.lexsort((np.angle(vals), -np.abs(vals)))]


def _start_vector(dim: int) -> np.ndarray:
    # fixed pseudo-random; numpy.random would take 15 ms and 6 MB to load
    rng = random.Random(0)
    return np.array([rng.random() for _ in range(dim)]) - 0.5


def _leading_eigvals(t_cols: np.ndarray, cols: np.ndarray) -> np.ndarray | None:
    """Leading eigenvalues of ``T`` (zero outside ``t_cols = T[:, cols]``) by
    Arnoldi on ``T[cols, cols]``, or None past ``cols.size // 2`` basis vectors.

    The basis starts from a fixed pseudo-random vector, is orthogonalized by
    classical Gram-Schmidt run twice (CGS2) and grows by 10 vectors at a
    time from ``2 LEADING``. A Ritz pair ``(theta, V y)`` with ``||y|| = 1``
    has the residual norm ``|h_{m+1,m}| |e_m^T y|``. Taken in modulus order,
    the Ritz values up to the first whose bound exceeds ``KRYLOV_TOL
    ||T||_1`` are returned once they number at least ``LEADING`` and reach
    below ``1 - TRIVIAL_RADIUS``. No restart is needed: on plant at M = 40
    the basis stops at 78 vectors for 522 columns (``T`` has 1042).
    """
    t, dim = t_cols[cols], cols.size
    norm1 = np.abs(t_cols).sum(axis=0).max(initial=0.0)
    v = _start_vector(dim)
    basis, hess = (v / np.linalg.norm(v))[None], np.zeros((1, 0))
    for m in range(2 * LEADING, dim // 2 + 1, 10):
        k = hess.shape[1]
        basis = np.concatenate([basis, np.empty((m - k, dim))])
        hess = np.pad(hess, ((0, m - k), (0, m - k)))
        for j in range(k, m):
            w = t @ basis[j]
            h = basis[:j + 1] @ w
            w -= h @ basis[:j + 1]
            dh = basis[:j + 1] @ w
            w -= dh @ basis[:j + 1]
            hess[:j + 1, j] = h + dh
            hess[j + 1, j] = beta = np.linalg.norm(w)
            # an invariant subspace: its Ritz values would lose multiplicities
            if beta <= np.finfo(float).eps * norm1:
                return None
            basis[j + 1] = w / beta
        vals, vecs = np.linalg.eig(hess[:m])
        # numpy returns conjugate Ritz pairs with conjugate vectors, so the
        # two share their bound; sorted next to each other, by modulus and
        # then |angle|, the first bound over the tolerance never splits them
        angle = np.angle(vals)
        order = np.lexsort((angle, np.abs(angle), -np.abs(vals)))
        bound = hess[m, m - 1] * np.abs(vecs[-1, order])
        passed = np.logical_and.accumulate(bound <= KRYLOV_TOL * norm1)
        top = vals[order[:passed.sum()]]
        if top.size >= LEADING and abs(top[-1]) < 1.0 - TRIVIAL_RADIUS:
            return top.astype(complex)
    return None


def multipliers(disc: MonodromyDiscretization) -> MultiplierSet:
    """Extract approximate Floquet multipliers from a discretization.

    Takes the eigenvalues of the assembled monodromy matrix (eigenvalues
    only): all of them up to ``DENSE_DIM``, the leading ones above it (see
    :class:`MultiplierSet`). Values with modulus below ``TOL_DISCARD`` are
    flagged as numerically spurious but kept.
    """
    vals = disc._eigvals
    mods = np.abs(vals)
    spurious = mods < TOL_DISCARD
    dist_to_one = np.abs(vals - 1.0)
    trivial_index = int(np.argmin(dist_to_one))
    if dist_to_one[trivial_index] > TRIVIAL_RADIUS:
        trivial_index = None
    nt_mods = np.delete(mods, [] if trivial_index is None else trivial_index)
    if nt_mods.size and np.any(nt_mods > 1.0 + TOL_STAB):
        verdict = "unstable"
    elif nt_mods.size == 0 or np.all(nt_mods < 1.0 - TOL_STAB):
        verdict = "stable"
    else:
        verdict = "inconclusive"
    return MultiplierSet(values=vals, trivial_index=trivial_index,
                         verdict=verdict, spurious=spurious)


def eigenfunction(disc: MonodromyDiscretization, index: int):
    """Eigenvector of ``mu = multipliers(disc).values[index]`` as history
    nodal values, shape (n_hist, d), its entry of largest modulus 1.

    Two steps of inverse iteration on ``T[cols, cols] - mu I`` from the Arnoldi
    start vector, the shift moved off ``mu`` by ``eps ||T[cols, cols]||_1`` so
    that an exact eigenvalue leaves it regular, give ``v``; ``T`` is zero
    outside ``cols``, so ``T[:, cols] v`` is the eigenvector. For a multiple
    multiplier it is the start vector's component in the eigenspace. A
    spurious ``mu`` (``|mu| < TOL_DISCARD``) raises ValueError."""
    vals = disc._eigvals
    if not (0 <= index < vals.size):
        raise IndexError(f"eigenvalue index {index} out of range 0..{vals.size - 1}")
    mu = vals[index]
    if abs(mu) < TOL_DISCARD:
        raise ValueError(f"multiplier {index} is spurious (modulus below {TOL_DISCARD})")
    t = disc.T_cols[disc.cols]
    shift = mu + np.finfo(float).eps * np.abs(t).sum(axis=0).max()
    a = t - shift * np.eye(len(t))
    v = disc.T_cols @ np.linalg.solve(a, np.linalg.solve(a, _start_vector(len(t))))
    v = (v / v[np.argmax(np.abs(v))]).reshape(-1, disc.equation.d)
    return NodalFunction(side=disc.grid.history, values=v)
