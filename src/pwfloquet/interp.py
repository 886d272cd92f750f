"""Piecewise barycentric Lagrange interpolation and exact integration.

Prolongation evaluates the continuous piecewise interpolant through values
at the grid nodes of one side (``prolong_pairs``). The derivative rows at
reference points ``x`` are ``lagrange_matrix(table, x) @ table.diff``, exact
since the derivative has degree ``M - 1``. The interpolant's integral from
the side's start splits into the integral up to the breakpoint left of the
end point (``breakpoint_weights``) plus a partial-piece part
(``integral_weights``); ``window_rule`` gives the quadrature points and
weights of windows split at the side's breakpoints.
The weight builders are linear in the nodal data and take arrays of
evaluation points: one ``searchsorted`` locates all points, and one Lagrange
evaluation serves them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .mesh import CHEBYSHEV, GridSide, NodeFamily

__all__ = [
    "BaryTable",
    "NodalFunction",
    "bary_table",
    "gauss_rule",
    "prolong_pairs",
    "integral_weights",
    "breakpoint_weights",
    "window_rule",
    "lagrange_matrix",
]

@dataclass(frozen=True, eq=False)
class BaryTable:
    """Per-family interpolation tables on the reference interval [0, 1].

    ``weights`` are the (scale-invariant) barycentric weights of the nodes;
    on a piece ``[t_i, t_i + h_i]`` the abscissae are the affine images of
    the reference nodes, which leaves the weights unchanged. ``diff`` maps
    nodal values to the nodal values of the derivative (reference scale).
    ``anti_values[i, j]`` is the integral of the j-th Lagrange basis from 0
    to the i-th Chebyshev extremum of degree ``M + 1``, enough to interpolate
    the degree ``M + 1`` antiderivatives exactly. ``quad`` is its last row,
    the integrals up to 1: the full-piece interpolatory quadrature weights,
    which sum to 1.
    """

    family: NodeFamily
    weights: np.ndarray
    diff: np.ndarray
    quad: np.ndarray
    anti_values: np.ndarray


def _lagrange_rows(nodes: np.ndarray, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    diff = x[:, None] - nodes[None, :]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = weights[None, :] / diff
        out = u / u.sum(axis=1, keepdims=True)
    # exact node hits, and distances so tiny the division overflowed, both
    # collapse to a unit row at the nearest node
    bad = ~np.all(np.isfinite(out), axis=1)
    if bad.any():
        rows = np.nonzero(bad)[0]
        cols = np.abs(diff[rows]).argmin(axis=1)
        out[rows] = 0.0
        out[rows, cols] = 1.0
    return out


def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n``-point Gauss-Legendre points and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def _table(kind: str, degree: int) -> BaryTable:
    from .mesh import reference_nodes

    fam = reference_nodes(kind, degree)
    m = degree
    c = fam.nodes
    if kind == CHEBYSHEV:
        w = np.where(np.arange(m + 1) % 2 == 0, 1.0, -1.0)
        w[0] *= 0.5
        w[-1] *= 0.5
    else:
        w = np.array([(-1.0) ** j * comb(m, j) for j in range(m + 1)], dtype=float)
        w /= np.abs(w).max()
    # differentiation matrix at the nodes: (w_j / w_k) / (c_k - c_j) off the
    # diagonal, minus the row sum on it (the infinite gap makes it 0 until then)
    gap = c[:, None] - c[None, :]
    np.fill_diagonal(gap, np.inf)
    dmat = (w[None, :] / w[:, None]) / gap
    np.fill_diagonal(dmat, -dmat.sum(axis=1))
    # integrals of the basis from 0 to each Chebyshev extremum of degree m + 1
    # by the Gauss-Legendre rule, exact for the degree-m basis
    x = reference_nodes(CHEBYSHEV, m + 1).nodes
    gx, gw = gauss_rule(m // 2 + 2)
    basis = _lagrange_rows(c, w, (x[:, None] * gx).ravel())
    anti = x[:, None] * (gw @ basis.reshape(x.size, gx.size, m + 1))
    return BaryTable(family=fam, weights=w, diff=dmat, quad=anti[-1], anti_values=anti)


def bary_table(family: NodeFamily) -> BaryTable:
    return _table(family.kind, family.degree)


def lagrange_matrix(table: BaryTable, x) -> np.ndarray:
    """Values of all Lagrange basis polynomials at reference points ``x``.

    Rows sum to 1; an exact node hit returns the corresponding unit row.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _lagrange_rows(table.family.nodes, table.weights, x)


@dataclass(frozen=True, eq=False)
class NodalFunction:
    """Values of a continuous piecewise polynomial at the nodes of one side."""

    side: GridSide
    values: np.ndarray  # (n, d)

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim == 1:
            v = v[:, None]
        if v.shape[0] != self.side.n:
            raise ValueError("value count must equal the node count of the side")
        object.__setattr__(self, "values", v)

    @property
    def d(self) -> int:
        return self.values.shape[1]


def _locate(side: GridSide, t: np.ndarray):
    """Piece index (see ``GridSide.piece_of``), reference coordinate and
    global columns of each point."""
    b = side.breakpoints
    i = side.piece_of(t)
    x = np.clip((t - b[i]) / (b[i + 1] - b[i]), 0.0, 1.0)
    m = side.family.degree
    return i, x, i[..., None] * m + np.arange(m + 1)


def prolong_pairs(side: GridSide, t) -> tuple[np.ndarray, np.ndarray]:
    """Sparse interpolation weights at ``t``: (global columns, weights).

    Supported only on the piece containing each point; for an array of
    points both results have shape ``t.shape + (M + 1,)``. The weights sum
    to 1, and an exact node hit gives a unit weight so that interpolation
    reproduces nodal values bit for bit.
    """
    t = np.asarray(t, dtype=float)
    _, x, cols = _locate(side, t)
    w = lagrange_matrix(bary_table(side.family), x.ravel()).reshape(cols.shape)
    hit = side.nodes[cols] == t[..., None]
    return cols, np.where(hit.any(axis=-1, keepdims=True), hit, w)


def integral_weights(side: GridSide, upper):
    """Partial-piece weights of the exact integral of the interpolant on
    ``[start, upper]``: (piece ``i`` containing ``upper``, columns, weights).

    The integral of nodal values ``v`` is ``breakpoint_weights(side)[i] @ v +
    w @ v[cols]``, ``w`` holding antiderivative weights over the ``M + 1``
    nodes of piece ``i``; ``i`` has the shape of ``upper``, ``cols`` and ``w``
    one more axis."""
    upper = np.asarray(upper, dtype=float)
    i, c, cols = _locate(side, upper)
    table = bary_table(side.family)
    h = np.diff(side.breakpoints)[i]
    # the antiderivatives interpolated from anti_values, one point per row
    # (a stack of vector-matrix products): no point depends on its batch
    rows = lagrange_matrix(_table(CHEBYSHEV, table.family.degree + 1), c.ravel())
    partial = (rows[:, None, :] @ table.anti_values).reshape(cols.shape)
    return i, cols, h[..., None] * partial


def breakpoint_weights(side: GridSide) -> np.ndarray:
    """Weights of the exact integrals of the interpolant from the side's
    start to each breakpoint: shape ``(P + 1, n)``, the first row zero."""
    m = side.family.degree
    pieces = np.arange(side.P)[:, None]
    full = np.zeros((side.P + 1, side.n))
    full[pieces + 1, pieces * m + np.arange(m + 1)] = (
        np.diff(side.breakpoints)[:, None] * bary_table(side.family).quad)
    return np.cumsum(full, axis=0)


def window_rule(side: GridSide, lo, hi):
    """Quadrature points and weights of the windows ``[lo, hi]`` on a side.

    Each window is cut at the side's breakpoints strictly inside it, so the
    interpolant is one polynomial per subpiece, and each subpiece carries the
    Chebyshev-extrema interpolatory rule of degree ``max(M, 5)``, where ``M``
    is the side's degree. The first and last point of a subpiece are its cut
    points exactly, so no point falls outside its window. Windows with
    ``hi <= lo`` are empty. Returns flat arrays ``(window index, points,
    weights)``, ordered by window and then by point.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    live = np.nonzero(hi > lo)[0]
    lo, hi = lo[live], hi[live]
    side.piece_of(np.concatenate([lo, hi]))  # both ends must lie on the side
    b = side.breakpoints
    # a breakpoint within roundoff of a window end makes no sliver subpiece
    guard = (1e-14 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi))))[:, None]
    inner = (b > lo[:, None] + guard) & (b < hi[:, None] - guard)
    cuts = np.column_stack([lo, np.where(inner, b, np.nan), hi])
    keep = ~np.isnan(cuts)
    owner = np.broadcast_to(live[:, None], cuts.shape)[keep]
    cuts = cuts[keep]
    same = owner[1:] == owner[:-1]
    u0, u1, owner = cuts[:-1][same], cuts[1:][same], owner[:-1][same]
    degree = max(side.family.degree, 5)
    table = _table(CHEBYSHEV, degree)
    width = (u1 - u0)[:, None]
    points = u0[:, None] + width * table.family.nodes
    points[:, 0], points[:, -1] = u0, u1
    return np.repeat(owner, degree + 1), points.ravel(), (width * table.quad).ravel()
