"""Meshes and two-sided collocation grids for periodic delay problems.

A :class:`Mesh` partitions the period interval ``[0, omega]``, typically
inherited from a computed periodic solution (and therefore adapted to its
profile). A :class:`CollocationGrid` places interpolation nodes on every
piece of ``[0, omega]`` (the forward side) and grids the history interval
``[-tau, 0]`` by shifting the forward pieces left by multiples of ``omega``.
When ``-tau`` falls strictly inside a shifted piece, the leftmost history
piece is truncated and receives a fresh set of nodes from the same family.
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


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
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
    node, stored once, so the global index of node ``j`` of piece ``i`` is
    ``i * M + j`` and there are ``P * M + 1`` distinct nodes in total.
    """

    label: str
    breakpoints: np.ndarray
    family: NodeFamily
    nodes: np.ndarray

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
    tau: float
    mesh: Mesh
    family: NodeFamily


def _piece_node_array(lo: float, hi: float, family: NodeFamily) -> np.ndarray:
    # endpoints are the breakpoints themselves, exactly
    inner = lo + (hi - lo) * family.nodes[1:-1]
    return np.concatenate(([lo], inner, [hi]))


def _finish_side(label: str, pieces: list[np.ndarray], family: NodeFamily) -> GridSide:
    # canonicalize shared endpoints so adjacent pieces agree bit for bit
    for i in range(1, len(pieces)):
        pieces[i][0] = pieces[i - 1][-1]
    nodes = np.concatenate([pieces[0]] + [p[1:] for p in pieces[1:]])
    if not np.all(np.diff(nodes) > 0.0):
        raise ValueError(f"degenerate {label} grid: nodes are not strictly increasing")
    breakpoints = np.array([p[0] for p in pieces] + [pieces[-1][-1]])
    return GridSide(
        label=label,
        breakpoints=_readonly(breakpoints),
        family=family,
        nodes=_readonly(nodes),
    )


def build_forward_grid(mesh: Mesh, family: NodeFamily) -> GridSide:
    """Grid the period interval: piece ``i`` holds nodes ``t_i + h_i c_j``."""
    b = mesh.breakpoints
    if b[0] != 0.0:
        raise ValueError("mesh must span [0, omega]: first breakpoint is not 0")
    pieces = [_piece_node_array(b[i], b[i + 1], family) for i in range(mesh.L)]
    return _finish_side("forward", pieces, family)


def build_history_grid(mesh: Mesh, family: NodeFamily, tau: float) -> GridSide:
    """Grid ``[-tau, 0]`` by shifting the forward pieces left by ``k * omega``,
    with ``omega`` the last breakpoint of ``mesh``.

    Walks windows ``k = 1, 2, ...`` right to left, copying shifted pieces
    until ``-tau`` is reached. If ``-tau`` falls strictly inside a shifted
    piece, that piece is truncated at ``-tau`` and renoded with the same
    family; if the truncated sliver would be shorter than
    ``SLIVER_RTOL * omega`` it is merged into its right neighbour.
    """
    b = mesh.breakpoints
    if b[0] != 0.0:
        raise ValueError("mesh must span [0, omega]: first breakpoint is not 0")
    omega = float(b[-1])
    if tau <= 0.0:
        raise ValueError("tau must be positive")

    ctol = COINCIDENCE_RTOL * max(1.0, omega)
    stol = SLIVER_RTOL * omega
    pieces: list[np.ndarray] = []  # collected right to left
    k = 1
    done = False
    while not done:
        shift = k * omega
        for i in range(mesh.L - 1, -1, -1):
            left = b[i] - shift
            right = b[i + 1] - shift
            if abs(left + tau) <= ctol:
                pieces.append(_piece_node_array(b[i], b[i + 1], family) - shift)
                done = True
                break
            if left < -tau:
                if right + tau < stol and pieces:
                    neighbour = pieces.pop()
                    right = neighbour[-1]
                pieces.append(_piece_node_array(-tau, right, family))
                done = True
                break
            pieces.append(_piece_node_array(b[i], b[i + 1], family) - shift)
        k += 1
        if k > 1_000_000:  # unreachable for valid inputs
            raise RuntimeError("history grid construction did not terminate")
    pieces.reverse()
    return _finish_side("history", pieces, family)


def build_grid(mesh: Mesh, family: NodeFamily, tau: float) -> CollocationGrid:
    """Assemble both grid sides for a period interval ``[0, omega]``."""
    return CollocationGrid(
        forward=build_forward_grid(mesh, family),
        history=build_history_grid(mesh, family, tau),
        omega=float(mesh.breakpoints[-1]), tau=float(tau),
        mesh=mesh, family=family,
    )


def mesh_ratio(mesh: Mesh) -> float:
    """Ratio of the largest to the smallest piece width (1 iff uniform)."""
    w = mesh.widths
    return float(w.max() / w.min())


def refine_mesh(mesh: Mesh, hmax: float) -> Mesh:
    """Subdivide every piece longer than ``hmax`` into equal subpieces.

    Keeps every original breakpoint, so the result is a refinement of the
    input; already compliant meshes come back unchanged.
    """
    if hmax <= 0.0:
        raise ValueError("hmax must be positive")
    b = mesh.breakpoints
    out = [b[0]]
    for i in range(mesh.L):
        h = b[i + 1] - b[i]
        parts = int(np.ceil(h / hmax - 1e-12))
        for j in range(1, parts):
            out.append(b[i] + h * (j / parts))
        out.append(b[i + 1])
    return Mesh(np.array(out))


def read_mesh(path) -> Mesh:
    """Read a mesh file: one breakpoint per line, ``#`` comments allowed."""
    pts = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                pts.append(float(line))
    return Mesh(np.array(pts))


def write_mesh(mesh: Mesh, path, header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for t in mesh.breakpoints:
            fh.write(f"{float(t)!r}\n")


@lru_cache(maxsize=None)
def _cached_family(kind: str, degree: int) -> NodeFamily:
    return reference_nodes(kind, degree)


def chebyshev_family(degree: int) -> NodeFamily:
    """Cached Chebyshev-extrema family (the default for collocation)."""
    return _cached_family(CHEBYSHEV, degree)
