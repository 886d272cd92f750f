"""Piecewise barycentric Lagrange interpolation and exact integration.

Restriction samples a function at the grid nodes of one side; prolongation
evaluates the continuous piecewise interpolant through those samples.
``integral_weights`` integrates the interpolant exactly from the side's
start, ``window_rule`` gives the quadrature points and weights of windows
split at the side's breakpoints, and ``kernel_quadrature`` integrates a
matrix kernel against the interpolant over one window. The weight builders
are linear in the nodal data and take arrays of evaluation points: one
``searchsorted`` locates all points, and one Lagrange evaluation serves them
all.
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
    "restrict",
    "prolong_eval",
    "prolong_pairs",
    "prolong_weights",
    "integral_weights",
    "window_rule",
    "kernel_quadrature",
    "lagrange_matrix",
    "derivative_matrix_at",
]

@dataclass(frozen=True, eq=False)
class BaryTable:
    """Per-family interpolation tables on the reference interval [0, 1].

    ``weights`` are the (scale-invariant) barycentric weights of the nodes;
    on a piece ``[t_i, t_i + h_i]`` the abscissae are the affine images of
    the reference nodes, which leaves the weights unchanged.
    ``antiderivative[j, k]`` is the integral of the j-th Lagrange basis from
    0 to node ``c_k``; ``quad`` is its last column (the full-piece
    interpolatory quadrature weights, which sum to 1).
    """

    family: NodeFamily
    weights: np.ndarray
    diff: np.ndarray
    antiderivative: np.ndarray
    quad: np.ndarray
    gauss_x: np.ndarray
    gauss_w: np.ndarray


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
    # differentiation matrix at the nodes
    dmat = np.zeros((m + 1, m + 1))
    for k in range(m + 1):
        for j in range(m + 1):
            if j != k:
                dmat[k, j] = (w[j] / w[k]) / (c[k] - c[j])
        dmat[k, k] = -dmat[k].sum()
    # Gauss-Legendre rule on [0, 1], exact for the degree-m basis
    ng = m // 2 + 2
    gx, gw = np.polynomial.legendre.leggauss(ng)
    gx = 0.5 * (gx + 1.0)
    gw = 0.5 * gw
    anti = np.empty((m + 1, m + 1))
    anti[:, 0] = 0.0
    for k in range(1, m + 1):
        anti[:, k] = c[k] * (gw @ _lagrange_rows(c, w, c[k] * gx))
    return BaryTable(
        family=fam, weights=w, diff=dmat,
        antiderivative=anti, quad=anti[:, -1].copy(),
        gauss_x=gx, gauss_w=gw,
    )


def bary_table(family: NodeFamily) -> BaryTable:
    return _table(family.kind, family.degree)


def lagrange_matrix(table: BaryTable, x) -> np.ndarray:
    """Values of all Lagrange basis polynomials at reference points ``x``.

    Rows sum to 1; an exact node hit returns the corresponding unit row.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _lagrange_rows(table.family.nodes, table.weights, x)


def derivative_matrix_at(table: BaryTable, x) -> np.ndarray:
    """Rows mapping nodal values to the interpolant derivative at ``x``.

    Reference-interval scale; divide by the piece width for an actual piece.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    c = table.family.nodes
    out = np.empty((x.size, c.size))
    diff = x[:, None] - c[None, :]
    exact = np.nonzero((diff == 0.0).any(axis=1))[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = table.weights[None, :] / diff
        s = u.sum(axis=1, keepdims=True)
        du = -table.weights[None, :] / diff**2
        ds = du.sum(axis=1, keepdims=True)
        ell = u / s
        out[:] = (du - ds * ell) / s
    for r in exact:
        j = int(np.nonzero(diff[r] == 0.0)[0][0])
        out[r] = table.diff[j]
    return out


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


def restrict(f, side: GridSide) -> NodalFunction:
    """Sample ``f`` at every node of the side."""
    vals = np.asarray([np.atleast_1d(f(float(t))) for t in side.nodes])
    return NodalFunction(side=side, values=vals)


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


def prolong_weights(side: GridSide, t) -> np.ndarray:
    """Dense weight vector over all global nodes realizing evaluation at t."""
    cols, w = prolong_pairs(side, t)
    out = np.zeros(cols.shape[:-1] + (side.n,))
    np.put_along_axis(out, cols, w, axis=-1)
    return out


def prolong_eval(v: NodalFunction, t: float) -> np.ndarray:
    """Evaluate the piecewise interpolant of ``v`` at ``t``."""
    cols, w = prolong_pairs(v.side, t)
    return w @ v.values[cols]


def integral_weights(side: GridSide, upper) -> np.ndarray:
    """Weights realizing the exact integral of the interpolant on [start, upper].

    Full-piece quadrature weights for pieces wholly inside, plus partial
    antiderivative weights on the piece containing ``upper``. For an array
    of endpoints the result has shape ``upper.shape + (n,)``.
    """
    upper = np.asarray(upper, dtype=float)
    i, c, cols = _locate(side, upper)
    table = bary_table(side.family)
    m = side.family.degree
    h = np.diff(side.breakpoints)
    # weights of the integral from the start to each breakpoint, piece by piece
    pieces = np.arange(side.P)[:, None]
    full = np.zeros((side.P, side.n))
    full[pieces, pieces * m + np.arange(m + 1)] = h[:, None] * table.quad
    cum = np.zeros_like(full)
    np.cumsum(full[:-1], axis=0, out=cum[1:])
    # partial piece: Gauss rule on [0, c], exact for the degree-M basis
    basis = lagrange_matrix(table, (c[..., None] * table.gauss_x).ravel())
    partial = c[..., None] * (table.gauss_w @ basis.reshape(c.shape + (-1, m + 1)))
    w = cum[i]
    local = np.take_along_axis(w, cols, axis=-1) + h[i][..., None] * partial
    np.put_along_axis(w, cols, local, axis=-1)
    return w


def window_rule(side: GridSide, lo, hi, degree: int):
    """Quadrature points and weights of the windows ``[lo, hi]`` on a side.

    Each window is cut at the side's breakpoints strictly inside it, so the
    interpolant is one polynomial per subpiece, and each subpiece carries the
    Chebyshev-extrema interpolatory rule of the given degree. The first and
    last point of a subpiece are its cut points exactly, so no point falls
    outside its window. Windows with ``hi <= lo`` are empty. Returns flat
    arrays ``(window index, points, weights)``, ordered by window and then
    by point.
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
    table = _table(CHEBYSHEV, degree)
    width = (u1 - u0)[:, None]
    points = u0[:, None] + width * table.family.nodes
    points[:, 0], points[:, -1] = u0, u1
    return np.repeat(owner, degree + 1), points.ravel(), (width * table.quad).ravel()


def kernel_quadrature(
    side: GridSide, lo: float, hi: float, kernel, degree: int | None = None
) -> np.ndarray:
    """Weights realizing ``int_lo^hi K(s) v(s) ds`` over the side's nodes.

    ``kernel`` is elementwise: an array of points ``s`` in, an array of
    shape ``s.shape + (p, q)`` out. The result has shape (p, q, n). The
    window is split by :func:`window_rule` with the given degree (default
    ``max(M, 5)``).
    """
    if degree is None:
        degree = max(side.family.degree, 5)
    _, s, w = window_rule(side, lo, hi, degree)
    k = np.asarray(kernel(s), dtype=float)
    if k.ndim != 3 or k.shape[0] != s.size:
        raise ValueError(
            f"kernel returned shape {k.shape} for {s.size} points; kernels are "
            "elementwise: an array of points in, shape + (p, q) out"
        )
    cols, lw = prolong_pairs(side, s)
    out = np.zeros((side.n,) + k.shape[1:])
    np.add.at(out, cols, (w[:, None, None] * k)[:, None] * lw[..., None, None])
    return np.moveaxis(out, 0, -1)
