"""Linear time-periodic delay equations, periodic solutions, and benchmarks.

The state of a coupled equation is laid out as ``[x-block, y-block]``: the
renewal components (whose value is prescribed) come first, the differential
components second. Pure delay differential equations have ``d_x = 0`` and
pure renewal equations have ``d_y = 0``.

Coefficients are callbacks, not sampled matrices, so the monodromy module can
collocate them on its own grid independently of the solution mesh. Every
callback is elementwise: it receives arrays of times and returns one result
per element (a ``(p, q)`` matrix for coefficients and kernels, a state vector
for solutions), stacked along the trailing axes. Equation and solution
objects are immutable; callbacks must be pure and re-entrant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import Callable

import numpy as np

from .interp import bary_table, gauss_rule, prolong_pairs
from .mesh import UNIFORM, GridSide, Mesh, _text_lines, build_forward_grid, reference_nodes

__all__ = [
    "DiscreteTerm",
    "DistributedTerm",
    "LinearPeriodicEquation",
    "NonlinearProblem",
    "ExactSolution",
    "PiecewiseSolution",
    "Builtin",
    "builtin",
    "linearize",
    "term_values",
    "sample_solution",
    "plant_v0",
    "coupled_view_of_plant",
    "read_solution",
    "write_solution",
    "data_path",
    "integrate_orbit_guess",
]

# integrate_orbit_guess averages the period over this many last oscillations
PERIODS_BACK = 3
# RK4 step of integrate_orbit_guess; the guess only has to seed Newton
ORBIT_STEP = 0.1
# integrate_orbit_guess fails when the range of component 0 over the second
# half of its tail is below this fraction of the range over the first half
DECAY_RATIO = 0.5


def _as_matrix_callback(c):
    """A constant ``(p, q)`` matrix becomes an elementwise callback."""
    if callable(c):
        return c
    mat = np.atleast_2d(np.asarray(c, dtype=float))
    return lambda *args: np.broadcast_to(
        mat, np.broadcast_shapes(*map(np.shape, args)) + mat.shape)


@dataclass(frozen=True, eq=False)
class DiscreteTerm:
    """Contribution ``coeff(t) @ v_source(t - delay)`` to the target block.

    ``coeff`` is a constant ``(p, q)`` matrix or an elementwise callback:
    an array of times of any shape in, an array of shape ``t.shape + (p, q)``
    out (a scalar time gives one ``(p, q)`` matrix).
    """

    target: str  # "x" or "y"
    source: str
    delay: float
    coeff: Callable[[float], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "coeff", _as_matrix_callback(self.coeff))


@dataclass(frozen=True, eq=False)
class DistributedTerm:
    """Contribution ``int_a^b kernel(t, th) @ v_source(t + th) dth``.

    ``kernel`` is a constant ``(p, q)`` matrix or an elementwise callback:
    arrays ``t`` and ``th`` of one shape in, shape ``t.shape + (p, q)`` out.
    """

    target: str
    source: str
    lower: float
    upper: float
    kernel: Callable[[float, float], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "kernel", _as_matrix_callback(self.kernel))


class _BlockLayout:
    """State layout ``[x-block, y-block]``: ``d_x`` renewal, ``d_y`` differential,
    with the maximal delay ``tau``; the dataclasses built on it check both."""

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, not {self.tau}")
        if self.d_x < 0 or self.d_y < 0 or self.d_x + self.d_y == 0:
            raise ValueError("state dimensions must be nonnegative and not both zero")

    @property
    def d(self) -> int:
        return self.d_x + self.d_y

    @property
    def kind(self) -> str:
        """``"dde"`` if ``d_x == 0``, ``"re"`` if ``d_y == 0``, else ``"coupled"``."""
        return "dde" if self.d_x == 0 else "re" if self.d_y == 0 else "coupled"

    def block_offset(self, block: str) -> int:
        return 0 if block == "x" else self.d_x

    def block_dim(self, block: str) -> int:
        return self.d_x if block == "x" else self.d_y


@dataclass(frozen=True, eq=False)
class LinearPeriodicEquation(_BlockLayout):
    """Linear omega-periodic delay equation split into renewal and
    differential blocks.

    ``breakpoints`` lists the points in ``[0, omega)`` where the coefficients
    may lose smoothness (typically the mesh of the periodic solution the
    equation was linearized around, plus intrinsic kinks).
    """

    d_x: int
    d_y: int
    omega: float
    tau: float
    discrete: tuple[DiscreteTerm, ...] = ()
    distributed: tuple[DistributedTerm, ...] = ()
    breakpoints: tuple[float, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        for term in self.discrete:
            if not (0.0 <= term.delay <= self.tau * (1 + 1e-12)):
                raise ValueError(f"delay {term.delay} outside [0, tau]")
        for term in self.distributed:
            if term.lower >= term.upper:
                raise ValueError("distributed bounds must be ordered")
            if term.lower < -self.tau * (1 + 1e-12) or term.upper > 1e-12:
                raise ValueError("distributed bounds must lie in [-tau, 0]")
        object.__setattr__(self, "discrete", tuple(self.discrete))
        object.__setattr__(self, "distributed", tuple(self.distributed))
        object.__setattr__(
            self, "breakpoints", tuple(sorted(float(b) for b in self.breakpoints))
        )


@dataclass(frozen=True, eq=False)
class ExactSolution:
    """Closed-form periodic solution; ``fn`` accepts scalars or arrays."""

    fn: Callable
    omega: float
    d: int = 1

    def __call__(self, t):
        return np.asarray(self.fn(t), dtype=float)


@dataclass(frozen=True, eq=False)
class PiecewiseSolution:
    """Continuous piecewise polynomial periodic solution on ``[0, omega]``.

    ``values[i, j, c]`` is component ``c`` at node ``j`` of piece ``i``; the
    representation nodes are the (shared-endpoint) family nodes of
    ``node_kind`` mapped onto each piece.
    """

    breakpoints: np.ndarray
    values: np.ndarray  # (L, m+1, d)
    node_kind: str = UNIFORM

    def __post_init__(self):
        b = np.asarray(self.breakpoints, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3 or v.shape[0] != b.size - 1:
            raise ValueError("values must have shape (L, degree + 1, d)")
        if b[0] != 0.0:
            raise ValueError(f"solution breakpoints must start at 0, not {b[0]!r}")
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "values", v)

    @property
    def omega(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def degree(self) -> int:
        return self.values.shape[1] - 1

    @property
    def d(self) -> int:
        return self.values.shape[2]

    @property
    def L(self) -> int:
        return self.breakpoints.size - 1

    @property
    def mesh(self) -> Mesh:
        return Mesh(self.breakpoints)

    @cached_property
    def _side(self) -> GridSide:
        return build_forward_grid(self.mesh, reference_nodes(self.node_kind, self.degree))

    def __call__(self, t):
        """Evaluate at any real ``t`` (reduced modulo the period),
        elementwise: shape ``t.shape + (d,)``."""
        tt = np.mod(t, self.omega)
        cols, w = prolong_pairs(self._side, tt)
        # rows of the piece-major values; an interior breakpoint takes the
        # value of the piece on its right
        rows = cols + cols[..., :1] // self.degree
        rows[..., -1] += (self._side.nodes[cols[..., -1]] == tt) & (tt < self.omega)
        return np.einsum("...k,...kd->...d", w, self.values.reshape(-1, self.d)[rows])

    def derivative(self) -> "PiecewiseSolution":
        """Piecewise derivative (not continuous across breakpoints)."""
        table = bary_table(reference_nodes(self.node_kind, self.degree))
        h = np.diff(self.breakpoints)
        dv = np.einsum("kj,ijd->ikd", table.diff, self.values) / h[:, None, None]
        return PiecewiseSolution(self.breakpoints, dv, self.node_kind)

    def validate(self) -> None:
        """Check continuity across breakpoints and periodicity, to 1e-10
        relative to the largest value (or absolute below 1)."""
        if np.abs(self.values[0, 0] - self.values[-1, -1]).max() > self._check_joins():
            raise ValueError("solution is not periodic")

    def _check_joins(self) -> float:
        """Raise a ValueError naming the first interior breakpoint where the
        pieces jump by more than ``validate``'s tolerance; return it."""
        scale = 1e-10 * max(1.0, float(np.abs(self.values).max()))
        jump = np.abs(self.values[:-1, -1] - self.values[1:, 0]).max(axis=-1, initial=0.0)
        if jump.max(initial=0.0) > scale:
            k = np.argmax(jump > scale) + 1
            raise ValueError(f"solution is discontinuous across breakpoint {k} "
                             f"(t = {float(self.breakpoints[k])!r}): jump {jump[k - 1]:.3g}")
        return scale


def sample_solution(fn, omega: float, mesh: Mesh, degree: int) -> PiecewiseSolution:
    """Sample an elementwise callable, called once with all ``n`` nodes and
    returning ``(n,)`` or ``(n, d)``, onto a piecewise polynomial over ``[0,
    omega]``. ``mesh`` may span [0, 1] (then scaled by ``omega``) or [0, omega].
    """
    side = build_forward_grid(mesh.over_period(omega), reference_nodes(UNIFORM, degree))
    return PiecewiseSolution(side.breakpoints, nodal_values(fn, side.nodes)[side.pieces])


@dataclass(frozen=True, eq=False)
class NonlinearProblem(_BlockLayout):
    """Nonlinear delay equation given by a right-hand-side callback.

    ``rhs(u)`` receives an evaluator of the state history: ``u(theta)`` for
    ``theta`` in ``[-tau, 0]`` returns the state laid out as
    ``[x-block, y-block]``; a ``(k,)`` array of thetas yields a trailing
    ``(k, d)`` block. Solvers may batch over evaluation times by prepending
    axes, so the callback must be written elementwise (index with
    ``[..., c]`` rather than unpacking). The returned vector prescribes the
    x-block values and the y-block derivatives.

    ``linearize_terms(ev, omega)`` returns the coefficient terms of the
    linearization around the omega-periodic solution ``ev``.
    """

    name: str
    d_x: int
    d_y: int
    tau: float
    rhs: Callable | None = None
    linearize_terms: Callable | None = None


@dataclass(frozen=True, eq=False)
class Builtin:
    """A benchmark problem with whatever extras it supports.

    ``make_guess()`` produces a deterministic initial guess for the periodic
    solver as ``(profile over [0, 1], period)``; depending on the problem it
    samples a closed form or integrates the equation to its attractor.
    """

    name: str
    params: dict
    problem: NonlinearProblem | None = None
    linear: LinearPeriodicEquation | None = None
    exact: ExactSolution | None = None
    make_guess: Callable | None = None


class MissingDerivativesError(ValueError):
    pass


def term_values(term, layout: _BlockLayout, *args) -> np.ndarray:
    """Call a term's coefficient (or kernel) at ``args`` and check that it
    is elementwise: shape ``args[0].shape + (p, q)``, with ``p`` and ``q``
    the dimensions of the term's target and source blocks in ``layout``."""
    if isinstance(term, DiscreteTerm):
        fn = term.coeff
        what = (f"coefficient of the discrete term {term.source} -> {term.target} "
                f"(delay {term.delay!r})")
    else:
        fn = term.kernel
        what = (f"kernel of the distributed term {term.source} -> {term.target} "
                f"on [{term.lower!r}, {term.upper!r}]")
    want = np.shape(args[0]) + (layout.block_dim(term.target), layout.block_dim(term.source))
    return _with_shape(fn(*args), want, f"{what} returned",
                       ": callbacks are elementwise (arrays of times in, shape + (p, q) out)")


def _with_shape(value, want: tuple, what: str, why: str = "") -> np.ndarray:
    """``value`` as floats of shape ``want``, else a ValueError naming both."""
    out = np.asarray(value, dtype=float)
    if out.shape != want:
        raise ValueError(f"{what} shape {out.shape}, expected {want}{why}")
    return out


def rhs_values(problem: NonlinearProblem, u, want: tuple) -> np.ndarray:
    """``problem.rhs(u)``, of shape ``want``: the evaluation times + ``(d,)``."""
    out = np.asarray(problem.rhs(u), dtype=float)  # a message only on failure: per RK4 stage
    return out if out.shape == want else _with_shape(
        out, want, f"rhs of problem {problem.name!r} returned",
        ": one state vector per time, laid out as [x-block, y-block]")


def nodal_values(fn, s: np.ndarray, d: int | None = None) -> np.ndarray:
    """``fn(s)`` for the 1-d array of nodes ``s``, from one elementwise call,
    as shape ``(n, d)``: ``fn`` returns ``(n, d)``, or ``(n,)`` when ``d ==
    1``; ``d=None`` takes ``d`` from the result."""
    vals = np.asarray(fn(s), dtype=float)
    if vals.shape == s.shape and d in (None, 1):
        return vals[:, None]
    if vals.ndim != 2 or len(vals) != s.size or d not in (None, vals.shape[1]):
        want = f"({s.size},) or " * (d in (None, 1)) + f"({s.size}, {d or 'd'})"
        raise ValueError(f"callable returned shape {vals.shape} for {s.size} nodes, expected "
                         f"{want}: callables are elementwise (points in, shape + (d,) out)")
    return vals


def _solution_access(solution):
    """Normalize a solution argument to (periodic evaluator, omega, breakpoints)."""
    if isinstance(solution, PiecewiseSolution):
        return solution, solution.omega, tuple(solution.breakpoints[:-1])
    if isinstance(solution, ExactSolution):
        return solution, solution.omega, ()
    if isinstance(solution, tuple) and len(solution) == 2 and callable(solution[0]):
        return solution[0], float(solution[1]), ()
    raise TypeError("solution must be a PiecewiseSolution, ExactSolution or (callable, omega)")


def linearize(problem: NonlinearProblem, solution) -> LinearPeriodicEquation:
    """Linearize a nonlinear problem around a periodic solution.

    ``solution`` is a :class:`PiecewiseSolution`, an :class:`ExactSolution`
    or a pair ``(callable, omega)``; the callable is elementwise like the
    others (times of shape ``t.shape`` in, states of shape ``t.shape + (d,)``
    out). The smoothness breakpoints of the result are the solution's mesh
    breakpoints (a closed-form solution contributes none).
    """
    if problem.linearize_terms is None:
        raise MissingDerivativesError(
            f"problem {problem.name!r} does not provide derivative callbacks"
        )
    ev, omega, bps = _solution_access(solution)
    discrete, distributed = problem.linearize_terms(ev, omega)
    return LinearPeriodicEquation(
        d_x=problem.d_x,
        d_y=problem.d_y,
        omega=omega,
        tau=problem.tau,
        discrete=tuple(discrete),
        distributed=tuple(distributed),
        breakpoints=bps,
    )


# ---------------------------------------------------------------------------
# benchmark problems
# ---------------------------------------------------------------------------


def plant_v0(a: float, b: float) -> float:
    """Real root of ``v - v^3/3 - (v + a)/b`` (unique for a != 0, 0 < b <= 1).

    Safeguarded Newton from -1 with bisection fallback, tolerance 1e-14.
    Raises ValueError for ``b <= 0``, and where ``[-10, 10]`` brackets no root.
    """
    if b <= 0:
        why = "the rest state divides by b" if b == 0 else "w' = r (v + a - b w) grows unbounded"
        raise ValueError(f"b = {b:g} is outside 0 < b <= 1: {why}")
    f = lambda v: v - v**3 / 3.0 - (v + a) / b
    df = lambda v: 1.0 - v * v - 1.0 / b
    lo, hi = -10.0, 10.0  # f decreases towards both ends: f(lo) > 0 > f(hi)
    if not (f(lo) > 0.0 > f(hi)):
        raise ValueError("parameters do not bracket a real root in [-10, 10]")
    v, fv = -1.0, f(-1.0)
    for _ in range(100):
        if fv > 0.0:
            lo = v
        else:
            hi = v
        d = df(v)
        vn = v - fv / d if d != 0.0 else 0.5 * (lo + hi)
        if not (min(lo, hi) < vn < max(lo, hi)):
            vn = 0.5 * (lo + hi)
        if abs(vn - v) <= 1e-14 * max(1.0, abs(vn)):
            v = vn
            break
        v, fv = vn, f(vn)
    return float(v)


def _gauss_panels(a: float, b: float, panels: int, n: int):
    """Composite ``n``-point Gauss-Legendre rule on ``panels`` equal panels of [a, b]."""
    gx, gw = gauss_rule(n)
    edges = np.linspace(a, b, panels + 1)
    h = np.diff(edges)[:, None]
    return (edges[:-1, None] + h * gx).ravel(), (h * gw).ravel()


def _logistic(r: float = 1.6) -> Builtin:
    """Delay logistic equation ``y' = r y(t) (1 - y(t - 1))``."""
    tau = 1.0

    def rhs(u):
        return r * u(0.0) * (1.0 - u(-1.0))

    def lin_terms(ev, omega):
        def on_current(t):
            return (r * (1.0 - ev(t - 1.0)[..., 0]))[..., None, None]

        def on_delayed(t):
            return (-r * ev(t)[..., 0])[..., None, None]

        return (
            (
                DiscreteTerm("y", "y", 0.0, on_current),
                DiscreteTerm("y", "y", 1.0, on_delayed),
            ),
            (),
        )

    problem = NonlinearProblem(name="logistic", d_x=0, d_y=1, tau=tau, rhs=rhs,
                               linearize_terms=lin_terms)

    def make_guess():
        # a plain sinusoid guess can collapse onto the unstable equilibrium,
        # so integrate to the attractor instead
        return integrate_orbit_guess(problem, np.array([1.15]), t_settle=100.0)

    return Builtin(
        name="logistic", params={"r": r}, problem=problem, make_guess=make_guess,
    )


def _tent() -> Builtin:
    """Scalar DDE ``x'(t) = (1 - |mod(t, 2) - 1|) x(t - 1)``.

    The coefficient is piecewise linear with period 2 and kinks at the
    integers, which makes the equation a clean order-reduction probe.
    """

    def coeff(t):
        return (1.0 - np.abs(np.mod(t, 2.0) - 1.0))[..., None, None]

    linear = LinearPeriodicEquation(
        d_x=0, d_y=1, omega=2.0, tau=1.0,
        discrete=(DiscreteTerm("y", "y", 1.0, coeff),),
        breakpoints=(0.0, 1.0),
    )
    return Builtin(name="tent", params={}, linear=linear)


def _quadratic_re(gamma: float = 4.0) -> Builtin:
    """Renewal equation ``x(t) = (gamma/2) int_{-3}^{-1} x(1 - x) dtheta``.

    Carries the closed-form periodic solution branch
    ``1/2 + pi/(4 gamma) + A sin(pi t / 2)`` of period 4.
    """
    tau = 3.0
    radicand = (0.5 - 1.0 / gamma - (np.pi / (2 * gamma**2)) * (1.0 + np.pi / 4.0)
                if gamma != 0 else -np.inf)
    if radicand < 0:
        raise ValueError(
            f"gamma={gamma} is too small for a real periodic amplitude"
        )
    amp = float(np.sqrt(radicand))
    mean = 0.5 + np.pi / (4.0 * gamma)

    def xbar(t):
        t = np.asarray(t, dtype=float)
        return (mean + amp * np.sin(0.5 * np.pi * t))[..., None]

    qx, qw = _gauss_panels(-3.0, -1.0, 16, 10)

    def rhs(u):
        vals = u(qx)[..., 0]
        integrand = vals * (1.0 - vals)
        return (0.5 * gamma * np.einsum("q,...q->...", qw, integrand))[..., None]

    def lin_terms(ev, omega):
        def kernel(t, th):
            return (0.5 * gamma * (1.0 - 2.0 * ev(t + th)[..., 0]))[..., None, None]

        return ((), (DistributedTerm("x", "x", -3.0, -1.0, kernel),))

    problem = NonlinearProblem(name="quadratic-re", d_x=1, d_y=0, tau=tau, rhs=rhs,
                               linearize_terms=lin_terms)
    exact = ExactSolution(fn=xbar, omega=4.0, d=1)
    profile = lambda s: xbar(4.0 * np.asarray(s))
    return Builtin(
        name="quadratic-re", params={"gamma": gamma}, problem=problem, exact=exact,
        make_guess=lambda: (profile, 4.0),
    )


def _plant(a: float = 0.7, b: float = 0.8, eta: float = -2.0,
           r: float = 0.08, tau: float = 25.0) -> Builtin:
    """Recurrent neural feedback model with delayed self-coupling.

    ``v' = v - v^3/3 - w + eta (v(t - tau) - v0)``,
    ``w' = r (v + a - b w)``; ``v0`` the rest state.
    """
    v0 = plant_v0(a, b)
    w0 = (v0 + a) / b

    def rhs(u):
        s0 = u(0.0)
        v, w = s0[..., 0], s0[..., 1]
        vd = u(-tau)[..., 0]
        return np.stack(
            [v - v**3 / 3.0 - w + eta * (vd - v0), r * (v + a - b * w)],
            axis=-1,
        )

    def lin_terms(ev, omega):
        def on_current(t):
            vbar = ev(t)[..., 0]
            one = np.ones_like(vbar)
            return np.stack([np.stack([1.0 - vbar * vbar, -one], axis=-1),
                             np.stack([r * one, -r * b * one], axis=-1)], axis=-2)

        delayed = np.array([[eta, 0.0], [0.0, 0.0]])
        return (
            (
                DiscreteTerm("y", "y", 0.0, on_current),
                DiscreteTerm("y", "y", tau, delayed),
            ),
            (),
        )

    problem = NonlinearProblem(name="plant", d_x=0, d_y=2, tau=tau, rhs=rhs,
                               linearize_terms=lin_terms)

    def make_guess():
        start = np.array([v0 + 0.5, w0])
        return integrate_orbit_guess(problem, start, t_settle=max(600.0, 12 * tau))

    return Builtin(
        name="plant", params={"a": a, "b": b, "eta": eta, "r": r, "tau": tau, "v0": v0},
        problem=problem, make_guess=make_guess,
    )


def _plant_coupled(a: float = 0.7, b: float = 0.8, eta: float = -2.0,
                   r: float = 0.08, tau: float = 25.0) -> Builtin:
    """Coupled renewal/differential reformulation of the neural model.

    Integrating the ``w`` equation over one delay interval gives the neutral
    renewal equation ``w(t) = w(t - tau) + int_{t-tau}^{t} r (v + a - b w)``.
    State layout is ``(w, v)``: renewal block first.
    """
    v0 = plant_v0(a, b)
    qx, qw = _gauss_panels(-tau, 0.0, 48, 8)

    def rhs(u):
        s0, sd, vals = u(0.0), u(-tau), u(qx)
        w, v = s0[..., 0], s0[..., 1]
        wd, vd = sd[..., 0], sd[..., 1]
        integral = np.einsum(
            "q,...q->...", qw, r * (vals[..., 1] + a - b * vals[..., 0])
        )
        return np.stack(
            [wd + integral, v - v**3 / 3.0 - w + eta * (vd - v0)],
            axis=-1,
        )

    def lin_terms(ev, omega):
        # ev yields the coupled layout (w, v)
        def on_current(t):
            vbar = ev(t)[..., 1]
            return (1.0 - vbar * vbar)[..., None, None]

        return (
            (
                DiscreteTerm("y", "x", 0.0, np.array([[-1.0]])),
                DiscreteTerm("y", "y", 0.0, on_current),
                DiscreteTerm("y", "y", tau, np.array([[eta]])),
                DiscreteTerm("x", "x", tau, np.array([[1.0]])),
            ),
            (
                DistributedTerm("x", "y", -tau, 0.0, np.array([[r]])),
                DistributedTerm("x", "x", -tau, 0.0, np.array([[-r * b]])),
            ),
        )

    problem = NonlinearProblem(name="plant-coupled", d_x=1, d_y=1, tau=tau, rhs=rhs,
                               linearize_terms=lin_terms)
    params = {"a": a, "b": b, "eta": eta, "r": r, "tau": tau, "v0": v0}
    return Builtin(name="plant-coupled", params=params, problem=problem)


def coupled_view_of_plant(solution: PiecewiseSolution) -> PiecewiseSolution:
    """Reorder a plant solution ``(v, w)`` into the coupled layout ``(w, v)``."""
    return PiecewiseSolution(
        solution.breakpoints, solution.values[:, :, [1, 0]], solution.node_kind
    )


def builtin(name: str, **params) -> Builtin:
    """Construct a benchmark problem by name.

    Known names: ``logistic`` (r), ``tent``, ``quadratic-re`` (gamma),
    ``plant`` and ``plant-coupled`` (a, b, eta, r, tau).
    """
    factories = {
        "logistic": _logistic,
        "tent": _tent,
        "quadratic-re": _quadratic_re,
        "plant": _plant,
        "plant-coupled": _plant_coupled,
    }
    if name not in factories:
        raise ValueError(f"unknown builtin problem {name!r}; expected one of {tuple(factories)}")
    return factories[name](**params)


# ---------------------------------------------------------------------------
# initial guesses by time integration
# ---------------------------------------------------------------------------


class _StepHistory:
    """History evaluator ``u`` handed to ``rhs`` by ``integrate_orbit_guess``.

    One object serves the whole integration. ``ts`` holds every step time up
    front, ``ys`` the values accepted so far and ``fs`` their slopes; the
    stepper sets ``i`` (the step), ``stage`` (0 to 3) and ``y`` (the stage
    value) before each ``rhs`` call. ``memo`` maps each ``theta`` to the first
    step of its block and the block's stage values; a ``theta`` in it or in
    ``last``, the previous memo, recurs.
    """

    def __init__(self, ts, ys, fs, step, block):
        self.ts, self.ys, self.fs, self.step, self.block = ts, ys, fs, step, block
        self.offsets = np.array([0.0, step / 2, step / 2, step])
        self.memo, self.last = {}, {}

    def new_block(self, first):
        self.end = first + self.block
        self.last, self.memo = self.memo, {}

    def __call__(self, theta):
        if isinstance(theta, (int, float)):
            if theta == 0:
                return self.y
            key = theta
        else:
            theta = np.asarray(theta, dtype=float)
            if theta.ndim == 0 and theta == 0:
                return self.y
            key = (theta.shape, theta.tobytes())
        first, rows = self.memo.get(key, (0, ()))
        if 4 * (self.i - first) >= len(rows):
            recurs = key in self.memo or key in self.last
            first, rows = self.memo[key] = self.i, self._block_values(theta, recurs)
        return rows[4 * (self.i - first) + self.stage]

    def _block_values(self, theta, recurs):
        # theta's values at every stage of its block from step i, one step at
        # first sight; longer, they stay a step before the accepted history ends
        size = max(1, np.floor(-np.max(theta) / self.step) - 1) if recurs else 1
        t_now = self.ts[self.i:int(min(self.i + size, self.end)), None] + self.offsets
        rows = self.interp(np.add.outer(t_now.ravel(), theta), self.i + 1)
        rows.flags.writeable = False
        return rows

    def interp(self, t_abs, n):
        """Cubic Hermite interpolation of the first ``n`` accepted values and
        their slopes at ``t_abs``, holding the first value before them and the
        last beyond them: shape ``t_abs.shape + (d,)``."""
        j = np.clip(np.searchsorted(self.ts, t_abs, "right") - 1, 0, max(n - 2, 0))
        s = np.clip((t_abs - self.ts[j]) / self.step, 0.0, 1.0)[..., None]
        y0, dy = self.ys[j], self.ys[j + 1] - self.ys[j]
        hf0, hf1 = self.step * self.fs[j], self.step * self.fs[j + 1]
        return y0 + s * (hf0 + s * (3 * dy - 2 * hf0 - hf1 + s * (hf0 + hf1 - 2 * dy)))


def integrate_orbit_guess(problem: NonlinearProblem, y0: np.ndarray,
                          t_settle: float):
    """Integrate a DDE to its attractor and cut out one period.

    Fixed-step RK4 (step ``ORBIT_STEP``) with cubic Hermite dense history,
    from the constant history ``y0``. The period is estimated from the last
    ``PERIODS_BACK + 1`` upward crossings of component 0 through its
    late-time average. Returns ``(profile over [0, 1], period estimate)``.
    Raises ``RuntimeError`` when a state is not finite (the solution blew
    up), when the tail holds too few crossings or when the oscillation
    decays: the range of component 0 over the second half of the tail is
    below ``DECAY_RATIO`` times its range over the first half, as below a
    Hopf point.

    The slope at an accepted time is the ``k1`` of the step from it, stored
    when that step ends; until then the newest time borrows the slope of the
    one before, and the constant history has slope 0. The history holds the
    last accepted value beyond it, so a ``theta`` in ``(-step, 0)`` or an
    array of thetas containing 0 is answered from the accepted steps, not
    from the current stage; only a scalar ``theta == 0`` returns the stage
    value.

    The history is evaluated by the method of steps. The memo starts anew
    every ``max(1, floor(tau / step) - 1)`` steps (``step = ORBIT_STEP``). A
    ``theta`` new to this memo and the one before is interpolated for the
    four stage times of one step; one read again, for a block of ``max(1,
    floor(-max(theta) / step) - 1)`` steps, cut where the memo starts anew.
    Such a block is one step long or keeps its times plus ``theta`` a step
    before the accepted history ends, where every slope is final, so each
    value is that of a per-call interpolation of the accepted steps, bit for
    bit.
    """
    if problem.kind != "dde":
        raise ValueError("orbit integration guess only supports differential problems")
    tau = problem.tau
    d = problem.d
    y = _with_shape(y0, (d,), "y0 has", f" for the {d}-dimensional problem {problem.name!r}")
    step = ORBIT_STEP
    nsteps = int(np.ceil(t_settle / step))
    # step times summed one step at a time, as the stepper advances t
    ts = np.add.accumulate(np.append(0.0, np.full(nsteps, step)))
    ys = np.empty((nsteps + 1, d))
    fs = np.zeros((nsteps + 1, d))
    ys[:2] = y  # constant until step 0 ends
    u = _StepHistory(ts, ys, fs, step, block=max(1, int(np.floor(tau / step)) - 1))

    def f(stage, y_now):
        u.stage, u.y = stage, y_now
        return rhs_values(problem, u, (d,))

    # a blow-up overflows silently; the accepted states are checked once after
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(nsteps):
            if i % u.block == 0:
                u.new_block(i)
            u.i = i
            k1 = f(0, y)
            k2 = f(1, y + step / 2 * k1)
            k3 = f(2, y + step / 2 * k2)
            k4 = f(3, y + step * k3)
            y = y + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            ys[i + 1], fs[i:i + 2] = y, k1
    filled = nsteps + 1
    blown = ~np.isfinite(ys).all(axis=1)
    if blown.any():
        raise RuntimeError(f"the orbit guess blew up: the state is not finite "
                           f"from t = {ts[np.argmax(blown)]:g}")

    # period from upward crossings of the late-time average of component 0
    tail = slice(filled - int(0.6 * nsteps), filled)
    level = ys[tail, 0].mean()
    sig = ys[tail, 0] - level
    tt = ts[tail]
    up = np.nonzero((sig[:-1] < 0) & (sig[1:] >= 0))[0]
    if up.size < PERIODS_BACK + 1:
        raise RuntimeError("not enough oscillations to estimate a period; integrate longer")
    half = sig.size // 2
    ratio = np.ptp(sig[half:]) / np.ptp(sig[:half])
    if ratio < DECAY_RATIO:
        raise RuntimeError(
            "not enough oscillations to estimate a period: the oscillation decays "
            f"(range ratio {ratio:.2g} over the tail halves, below {DECAY_RATIO})")
    cross = tt[up] - sig[up] * (tt[up + 1] - tt[up]) / (sig[up + 1] - sig[up])
    period = float(np.mean(np.diff(cross[-(PERIODS_BACK + 1):])))
    t0 = float(cross[-1] - period)

    def profile(s):
        return u.interp(t0 + np.asarray(s, dtype=float) * period, filled)

    return profile, period


# ---------------------------------------------------------------------------
# solution files
# ---------------------------------------------------------------------------


def write_solution(solution: PiecewiseSolution, path) -> None:
    """Write the structured text solution format (bit-exact round trip)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# piecewise periodic solution\n")
        fh.write("format 1\n")
        fh.write(f"omega {float(solution.omega)!r}\n")
        fh.write(f"dim {solution.d}\n")
        fh.write(f"degree {solution.degree}\n")
        fh.write(f"nodes {solution.node_kind}\n")
        fh.write(f"pieces {solution.L}\n")
        fh.write("breakpoints\n")
        for t in solution.breakpoints:
            fh.write(f"{float(t)!r}\n")
        fh.write("values\n")
        for row in solution.values.reshape(-1, solution.d):  # piece by piece, node by node
            fh.write(" ".join(f"{float(v)!r}" for v in row) + "\n")


def read_solution(path) -> PiecewiseSolution:
    """Read the structured text solution format; a missing header key, a file
    that ends early and pieces that do not join raise ValueErrors naming them."""
    head = {}
    it = iter(_text_lines(path))
    for line in it:
        key, _, rest = line.partition(" ")
        if key == "breakpoints":
            break
        head[key] = rest
    if head.get("format") != "1":
        raise ValueError("unsupported solution file format")

    missing = [key for key in ("omega", "dim", "degree", "pieces") if key not in head]
    if missing:
        raise ValueError(f"malformed solution file: no header line for {missing}")

    def take(what):
        line = next(it, None)
        if line is None:
            raise ValueError(f"malformed solution file: it ends before {what}")
        return line

    L = int(head["pieces"])
    d = int(head["dim"])
    m = int(head["degree"])
    bps = np.array([float(take(f"breakpoint {k}")) for k in range(L + 1)])
    if take("the values section") != "values":
        raise ValueError("malformed solution file: missing values section")
    vals = np.empty((L, m + 1, d))
    for i in range(L):
        for j in range(m + 1):
            vals[i, j] = [float(x) for x in take(f"value row {j} of piece {i}").split()]
    sol = PiecewiseSolution(bps, vals, head.get("nodes", UNIFORM))
    if abs(sol.omega - float(head["omega"])) > 1e-12 * max(1.0, sol.omega):
        raise ValueError("solution file omega does not match the breakpoints")
    sol._check_joins()  # not periodicity: a solve to tol leaves a gap of up to tol
    return sol


def data_path(name: str):
    """Path of a shipped data file (adapted meshes, reference solutions)."""
    return resources.files("pwfloquet").joinpath("data", name)
