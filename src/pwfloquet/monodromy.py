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
substitution forms ``X = (I - A2)^{-1} A1`` where ``A1`` is nonzero (``T``
equals ``B1`` in its other columns) and sums the integrals of ``X`` piece by
piece; ``X`` and ``T`` are the only dense arrays. Higham's estimate of
``||(I - A2)^{-1}||_1`` (the estimator of LAPACK's ``gecon``) against the
exact ``||I - A2||_1`` gives ``rcond``, which must reach ``1e-14``.
``multipliers`` computes eigenvalues only; ``eigenfunction`` computes the
eigenvectors when asked.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .interp import (NodalFunction, bary_table, breakpoint_weights, integral_weights,
                     prolong_pairs, window_rule)
from .mesh import CollocationGrid, Mesh, NodeFamily, build_grid
from .model import LinearPeriodicEquation, term_values

__all__ = ["MonodromyDiscretization", "MultiplierSet", "CoarseDiscretizationError",
           "MissingBreakpointsError", "assemble", "multipliers", "eigenfunction"]

# Guard against runaway problem sizes. The blocks stay structured; the dense
# arrays, X and A1 (n_fwd d rows, one column per column A1 uses) and T
# (n_hist d square), hold at most dim^2 doubles (3.2 GB at 20k).
MAX_DIMENSION = 20_000
# Rows of a distributed term whose quadrature points are built at once.
ROW_CHUNK = 64
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
    """Structured block matrices and the resulting monodromy matrix."""

    equation: LinearPeriodicEquation
    grid: CollocationGrid
    parts: dict  # A1, A2, B1, B2 as structured blocks
    T: np.ndarray
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

    @property
    def n_hist(self) -> int:
        return self.grid.history.n

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
    """Structured ``A1, A2, B1, B2``: every point adds (row, column, weight)
    triples over the ``M + 1`` nodes of its piece; one that reads a
    differential block on ``[0, omega]`` also adds the coefficient of its
    ``int_0^{t_k} Z``, column ``n_fwd + k`` (node-major like ``Z``)."""

    def __init__(self, eq: LinearPeriodicEquation, grid: CollocationGrid):
        self.eq = eq
        self.grid = grid
        self.triples = {name: [] for name in ("A1", "A2", "B1", "B2")}

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
            self.triples[name].append(_row_sums(
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
        # row groups: piece i owns nodes i M + 1 ... (i + 1) M, piece 0 also node 0
        edges = [np.r_[0, eq.d * (np.arange(1, side.P + 1) * side.family.degree + 1)]
                 for side in (grid.forward, grid.history)]
        nf, nh = eq.d * grid.forward.n, eq.d * grid.history.n
        ext = nf + eq.d * (grid.forward.P + 1)
        shapes = {"A1": (nf, nh), "A2": (nf, ext), "B1": (nh, nh), "B2": (nh, ext)}
        return {name: _Block(shape, edges[name[0] == "B"], self.triples[name])
                for name, shape in shapes.items()}


def _row_sums(owner, cols, w, coeff, d: int, ot: int, os: int):
    """Nonzero triples ``(rows, columns, values)`` of ``coeff[k] (x) w[k]``:
    row ``owner[k] d + ot + i``, column ``cols[k] d + os + j``; the points of
    a row are summed first, over the range of columns they touch."""
    new = np.r_[True, owner[1:] != owner[:-1]]
    first = np.flatnonzero(new)
    lo = np.minimum.reduceat(cols[:, 0], first)
    width = np.maximum.reduceat(cols[:, -1], first) - lo + 1
    shift = np.cumsum(width) - width - lo
    flat = (cols + shift[np.cumsum(new) - 1, None]).ravel()
    row = np.repeat(owner[first], width)
    node = np.arange(width.sum()) - np.repeat(shift, width)
    out = [(row * d + ot + i, node * d + os + j,
            np.bincount(flat, (coeff[:, i, j, None] * w).ravel(), minlength=node.size))
           for i, j in np.ndindex(coeff.shape[1:])]
    rows, cols, vals = (np.concatenate(part) for part in zip(*out))
    keep = vals != 0.0
    return rows[keep], cols[keep], vals[keep]


class _Block:
    """A block as row groups ``(rows, columns, dense values)``, each dense
    over the columns its points touch."""

    def __init__(self, shape, edges, triples):
        rows, cols, vals = (np.concatenate(part) for part in zip(
            (np.empty(0, int), np.empty(0, int), np.empty(0)), *triples))
        # no sort: a (group, column) mask numbers the columns of each group,
        # and one bincount sums the triples into every group's matrix
        group = np.searchsorted(edges, rows, side="right") - 1
        mask = np.zeros((edges.size - 1, shape[1]), bool)
        mask[group, cols] = True
        pos = np.cumsum(mask, axis=1, dtype=np.int32) - 1
        nrows, count = np.diff(edges), mask.sum(axis=1)
        start = np.cumsum(nrows * count) - nrows * count
        flat = start[group] + (rows - edges[group]) * count[group] + pos[group, cols]
        dense = np.bincount(flat, vals, minlength=(nrows * count).sum())
        self.shape = shape
        self.groups = [(slice(r, r + n), np.flatnonzero(m), dense[a:a + n * c].reshape(n, c))
                       for r, m, a, n, c in zip(edges, mask, start, nrows, count)]

    def dense(self, cols=None) -> np.ndarray:
        """The dense block, or its sorted columns ``cols`` that hold all its
        entries; column-major, as ``assemble`` adds ``B2 X`` by column."""
        out = np.zeros((self.shape[0], self.shape[1] if cols is None else cols.size),
                       order="F")
        for rows, at, w in self.groups:
            out[rows, at if cols is None else np.searchsorted(cols, at)] = w
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
    used = np.unique(np.concatenate([at for _, at, _ in parts["A1"].groups]))
    x = system.solve(parts["A1"].dense(used))
    t_mat = parts["B1"].dense()
    t_mat[:, used] += np.vstack([w @ x[at] for _, at, w in parts["B2"].groups])
    return MonodromyDiscretization(
        equation=eq, grid=grid, parts=parts, T=t_mat, merged_breakpoints=merged,
    )


def _describe_piece(side, i: int) -> str:
    b = side.breakpoints
    return f"forward piece {i} on [{b[i]:.6g}, {b[i + 1]:.6g}]"


class _CausalSystem:
    """``S = I - A2`` for a structured ``A2`` that is block lower triangular
    by forward piece; only the inverses ``D_i^{-1}`` of the diagonal blocks
    are formed. ``piece_rcond[i] = 1 / (||S||_1 ||D_i^{-1}||_1)`` bounds
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
                                np.concatenate([w[:, :lo], w[:, hi:]], axis=1)))
            inv_norms.append(np.abs(inv).sum(axis=0).max())
            a2_rows = np.matmul(w[:, hi:], integrals[keys - self.n, :rows.stop],
                                out=buf[:len(diag), :rows.stop])
            a2_rows[:, cols[:lo]] += w[:, :lo]
            a2_rows[:, rows] -= diag  # A2 - I on the piece's own columns
            col_sums[:rows.stop] += np.abs(a2_rows, out=a2_rows).sum(axis=0)
        self.norm1 = col_sums.max()
        self.piece_rcond = 1.0 / (self.norm1 * np.array(inv_norms))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``S^{-1} rhs`` by block forward substitution, extended by its
        integrals ``int_0^{t_k}``, summed piece by piece."""
        m, d, n = self.side.family.degree, self.d, self.n
        x = np.zeros((self.ext,) + rhs.shape[1:])
        integrals = x[n:].reshape((self.side.P + 1, d) + rhs.shape[1:])  # a view: int_0^{t_k}
        for j, (rows, inv, cols, w) in enumerate(self.pieces):
            x[rows] = inv @ (rhs[rows] + w @ x[cols])
            integrals[j + 1] = integrals[j] + self.quad[j] @ x[j * m * d:((j + 1) * m + 1) * d]
        return x

    def solve_t(self, rhs: np.ndarray) -> np.ndarray:
        """``S^{-T} rhs`` by block back substitution; the coefficients of the
        integrals in the rows already solved are summed backwards."""
        m, d, n = self.side.family.degree, self.d, self.n
        x = np.empty(rhs.shape)
        acc = np.concatenate([rhs, np.zeros((self.ext - n,) + rhs.shape[1:])])
        tail = np.zeros((d,) + rhs.shape[1:])
        for j in reversed(range(len(self.pieces))):
            rows, inv, cols, w = self.pieces[j]
            # piece j's nodes enter int_0^{t_k} Z for every k > j
            tail += acc[n + (j + 1) * d:n + (j + 2) * d]
            acc[j * m * d:((j + 1) * m + 1) * d] += self.quad[j].T @ tail
            x[rows] = inv.T @ acc[rows]
            acc[cols] += w.T @ x[rows]
        return x

    def inv_norm1(self) -> float:
        """Lower estimate of ``||S^{-1}||_1``: Higham's method as in LAPACK's
        ``dlacn2`` (what ``dgecon`` runs), which draws no random numbers."""
        n = self.n
        y = self.solve(np.full(n, 1.0 / n))[:n]
        if n == 1:
            return float(abs(y[0]))
        est = np.abs(y).sum()
        sign = np.where(y >= 0.0, 1.0, -1.0)
        z = self.solve_t(sign)
        j = int(np.argmax(np.abs(z)))
        for _ in range(4):  # iterations 2 ... ITMAX = 5
            y = self.solve(np.eye(1, n, j)[0])[:n]
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
        return float(max(est, 2.0 * np.abs(self.solve(alt)[:n]).sum() / (3 * n)))

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
