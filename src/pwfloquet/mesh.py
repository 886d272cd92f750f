"""Meshes and two-sided collocation grids for periodic delay problems.

A :class:`Mesh` partitions the period interval ``[0, omega]``, typically
inherited from a computed periodic solution (and therefore adapted to its
profile). A :class:`CollocationGrid` places interpolation nodes on every
piece of ``[0, omega]`` (the forward side) and grids the history interval
``[-tau, 0]`` with the forward pieces shifted left by multiples of ``omega``,
starting at the rightmost shifted piece that reaches ``-tau``. That piece is
kept whole when its left end coincides with ``-tau`` (within
``COINCIDENCE_RTOL``); otherwise it is truncated at ``-tau`` and renoded with
the same family, or, if it would be a sliver narrower than ``SLIVER_RTOL *
omega``, dropped in favour of its right neighbour renoded on ``[-tau, its
right end]``. Each side is built from one ``(P, M + 1)`` array of piece nodes;
its layout, the one every module indexes with, is ``GridSide.pieces``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "CHEBYSHEV",
    "UNIFORM",
    "Mesh",
    "NodeFamily",
    "GridSide",
    "CollocationGrid",
    "reference_nodes",
    "build_forward_grid",
    "build_history_grid",
    "build_grid",
    "mesh_ratio",
    "refine_mesh",
    "read_mesh",
    "write_mesh",
]

CHEBYSHEV = "chebyshev-extrema"
UNIFORM = "uniform"

# -tau is considered to hit a shifted breakpoint when closer than this,
# relative to max(1, omega); avoids degenerate slivers caused by floating
# point drift in omega coming out of the periodic solver.
COINCIDENCE_RTOL = 1e-12
# Truncated history pieces narrower than SLIVER_RTOL * omega are merged into
# their right neighbour (conditioning of the barycentric weights).
SLIVER_RTOL = 1e-10
# More history windows or refined pieces than this are refused up front.
_MAX_PIECES = 1_000_000


def _readonly(a: np.ndarray, dtype=float) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Mesh:
    """Ordered partition ``t_0 < t_1 < ... < t_L`` of an interval.

    Immutable after construction; the implied piece widths are
    ``h_i = t_{i+1} - t_i``.
    """

    breakpoints: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.breakpoints, dtype=float).ravel()
        if b.size < 2:
            raise ValueError("a mesh needs at least two breakpoints")
        if not np.all(np.isfinite(b)):
            raise ValueError("mesh breakpoints must be finite")
        if not np.all(np.diff(b) > 0.0):
            raise ValueError("mesh breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", _readonly(b))

    @property
    def L(self) -> int:
        return self.breakpoints.size - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    @property
    def span(self) -> float:
        return float(self.breakpoints[-1] - self.breakpoints[0])

    def scaled(self, factor: float) -> "Mesh":
        return Mesh(self.breakpoints * factor)

    def over_period(self, omega: float) -> "Mesh":
        """The mesh of [0, omega]: one that ends at 1 is a mesh of [0, 1],
        scaled by ``omega``; any other is returned as it is."""
        if abs(self.breakpoints[-1] - 1.0) < 1e-12 and omega != 1.0:
            return self.scaled(omega)
        return self

    def __repr__(self) -> str:
        return f"Mesh(L={self.L}, span=[{self.breakpoints[0]:g}, {self.breakpoints[-1]:g}])"


@dataclass(frozen=True, eq=False)
class NodeFamily:
    """Reference interpolation nodes ``0 = c_0 < ... < c_M = 1`` on [0, 1]."""

    kind: str
    degree: int
    nodes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", _readonly(self.nodes))


def reference_nodes(kind: str, degree: int) -> NodeFamily:
    """Build a node family; endpoints are always included exactly.

    Chebyshev extrema are ``c_j = (1 - cos(j pi / M)) / 2``, constructed in
    the numerically symmetric form ``sin^2(j pi / (2M))`` and mirrored about
    1/2 so that ``c_j + c_{M-j} = 1`` holds bit for bit.
    """
    if degree < 1:
        raise ValueError("node family degree must be >= 1 (a piece needs at least endpoints)")
    m = int(degree)
    if kind == CHEBYSHEV:
        c = np.empty(m + 1)
        half = m // 2
        j = np.arange(half + 1)
        c[: half + 1] = np.sin(0.5 * np.pi * j / m) ** 2
        c[m - half :] = 1.0 - c[: half + 1][::-1]
        if m % 2 == 0:
            c[half] = 0.5
    elif kind == UNIFORM:
        c = np.arange(m + 1) / m
    else:
        raise ValueError(f"unknown node family kind: {kind!r}")
    c[0] = 0.0
    c[-1] = 1.0
    return NodeFamily(kind=kind, degree=m, nodes=c)


@dataclass(frozen=True, eq=False)
class GridSide:
    """One side of a collocation grid: pieces with shared endpoint nodes.

    Every piece carries ``M + 1`` nodes; adjacent pieces share the breakpoint
    node, stored once, so there are ``P * M + 1`` distinct nodes in total.
    ``pieces[i, j]`` is the global index of node ``j`` of piece ``i``.
    """

    label: str
    breakpoints: np.ndarray
    family: NodeFamily
    nodes: np.ndarray
    pieces: np.ndarray

    @property
    def P(self) -> int:
        return self.breakpoints.size - 1

    @property
    def n(self) -> int:
        return self.nodes.size

    def piece_of(self, t):
        """Index of the piece containing ``t`` (elementwise for arrays).

        Evaluation exactly at a breakpoint uses the left piece (the right
        piece for the interval start); ``t`` may sit outside the interval by
        ``COINCIDENCE_RTOL`` relative to its largest endpoint modulus.
        """
        b = self.breakpoints
        tol = COINCIDENCE_RTOL * max(1.0, abs(b[0]), abs(b[-1]))
        if np.any((t < b[0] - tol) | (t > b[-1] + tol)):
            raise ValueError(
                f"{t!r} outside the {self.label} interval [{b[0]!r}, {b[-1]!r}]"
            )
        return np.clip(np.searchsorted(b, t, side="left") - 1, 0, self.P - 1)


@dataclass(frozen=True, eq=False)
class CollocationGrid:
    """Node sets on ``[-tau, 0]`` (history) and ``[0, omega]`` (forward)."""

    forward: GridSide
    history: GridSide
    omega: float
    mesh: Mesh


def _pieces(lo, hi, family: NodeFamily) -> np.ndarray:
    """Nodes ``lo + (hi - lo) c_j`` of every piece ``[lo, hi]``, one row each;
    the endpoints are the breakpoints themselves, exactly."""
    lo, hi = np.atleast_1d(lo)[:, None], np.atleast_1d(hi)[:, None]
    return np.hstack((lo, lo + (hi - lo) * family.nodes[1:-1], hi))


def _side(label: str, pieces: np.ndarray, family: NodeFamily) -> GridSide:
    # a shared endpoint is stored once, as the left piece's last node
    nodes = np.concatenate((pieces[0, :1], pieces[:, 1:].ravel()))
    if not np.all(np.diff(nodes) > 0.0):
        raise ValueError(f"degenerate {label} grid: nodes are not strictly increasing")
    breakpoints = np.append(pieces[0, 0], pieces[:, -1])
    m = family.degree
    index = np.arange(len(pieces))[:, None] * m + np.arange(m + 1)
    return GridSide(label=label, breakpoints=_readonly(breakpoints), family=family,
                    nodes=_readonly(nodes), pieces=_readonly(index, int))


def build_forward_grid(mesh: Mesh, family: NodeFamily) -> GridSide:
    """Grid the period interval: piece ``i`` holds nodes ``t_i + h_i c_j``."""
    b = mesh.breakpoints
    if b[0] != 0.0:
        raise ValueError("mesh must span [0, omega]: first breakpoint is not 0")
    return _side("forward", _pieces(b[:-1], b[1:], family), family)


def build_history_grid(mesh: Mesh, family: NodeFamily, tau: float) -> GridSide:
    """Grid ``[-tau, 0]`` with the forward pieces shifted left by ``k omega``,
    ``k = K ... 1``, from the rightmost shifted piece that reaches ``-tau``
    (its left end is left of ``-tau`` or within ``COINCIDENCE_RTOL * max(1,
    omega)`` of it): kept whole on a coincidence, else renoded on ``[-tau, its
    right end]``, or its right neighbour is if it would be a sliver narrower
    than ``SLIVER_RTOL * omega``. ``omega`` is the last breakpoint of ``mesh``.
    """
    b = mesh.breakpoints
    if b[0] != 0.0:
        raise ValueError("mesh must span [0, omega]: first breakpoint is not 0")
    omega = float(b[-1])
    if tau <= 0.0:
        raise ValueError("tau must be positive")

    ctol = COINCIDENCE_RTOL * max(1.0, omega)
    # K omega >= tau - ctol: window K's first piece reaches -tau, with a window to spare
    windows = max(np.ceil((tau - ctol) / omega), 0.0) + 1
    if not windows <= _MAX_PIECES:  # nan included
        raise RuntimeError(f"tau / omega = {tau / omega} needs over 10^6 history windows")
    shifts = np.arange(int(windows), 0, -1)[:, None, None] * omega
    pieces = (_pieces(b[:-1], b[1:], family) - shifts).reshape(-1, family.degree + 1)
    hit = np.abs(pieces[:, 0] + tau) <= ctol
    first = np.flatnonzero(hit | (pieces[:, 0] < -tau))[-1]
    if not hit[first]:
        if pieces[first, -1] + tau < SLIVER_RTOL * omega and first + 1 < len(pieces):
            first += 1
        pieces[first] = _pieces(-tau, pieces[first, -1], family)
    return _side("history", pieces[first:], family)


def build_grid(mesh: Mesh, family: NodeFamily, tau: float) -> CollocationGrid:
    """Assemble both grid sides for a period interval ``[0, omega]``."""
    return CollocationGrid(
        forward=build_forward_grid(mesh, family),
        history=build_history_grid(mesh, family, tau),
        omega=float(mesh.breakpoints[-1]),
        mesh=mesh,
    )


def mesh_ratio(mesh: Mesh) -> float:
    """Ratio of the largest to the smallest piece width (1 iff uniform)."""
    w = mesh.widths
    return float(w.max() / w.min())


def refine_mesh(mesh: Mesh, hmax: float) -> Mesh:
    """Subdivide every piece longer than ``hmax`` into equal subpieces.

    Keeps every original breakpoint, so the result is a refinement of the
    input; already compliant meshes come back unchanged. More than
    10^6 pieces raise a ValueError.
    """
    if not hmax > 0.0:  # nan included
        raise ValueError("hmax must be positive")
    b, h = mesh.breakpoints, mesh.widths
    with np.errstate(over="ignore"):  # a subnormal hmax counts inf pieces
        parts = np.maximum(np.ceil(h / hmax - 1e-12), 1)
    if parts.sum() > _MAX_PIECES:
        raise ValueError(f"hmax = {hmax!r} would cut the mesh into {parts.sum():.4g} "
                         "pieces, over 10^6")
    parts = parts.astype(int)
    piece = np.repeat(np.arange(mesh.L), parts)
    j = np.arange(piece.size) - np.repeat(np.cumsum(parts) - parts, parts)
    t = np.where(j == 0, b[piece], b[piece] + h[piece] * (j / parts[piece]))
    return Mesh(np.append(t, b[-1]))


def _text_lines(path) -> list[str]:
    """The lines of a text file, ``#`` comments and blank lines dropped."""
    with open(path, "r", encoding="utf-8") as fh:
        return [line for raw in fh if (line := raw.split("#", 1)[0].strip())]


def read_mesh(path) -> Mesh:
    """Read a mesh file: one breakpoint per line, ``#`` comments allowed."""
    return Mesh(np.array([float(line) for line in _text_lines(path)]))


def write_mesh(mesh: Mesh, path, header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for t in mesh.breakpoints:
            fh.write(f"{float(t)!r}\n")


@lru_cache(maxsize=None)
def chebyshev_family(degree: int) -> NodeFamily:
    """Cached Chebyshev-extrema family (the default for collocation)."""
    return reference_nodes(CHEBYSHEV, degree)
