import tracemalloc
from unittest import mock

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import example, given, settings

from oracles import (dense_monodromy, dense_multipliers, restrict, rk4_method_of_steps,
                     scattered_monodromy, searchsorted_groups, triple_row_sums)
from pwfloquet.interp import breakpoint_weights, row_sums
from pwfloquet.mesh import Mesh, build_forward_grid, chebyshev_family
from pwfloquet.model import (
    DiscreteTerm,
    DistributedTerm,
    LinearPeriodicEquation,
    builtin,
    linearize,
    sample_solution,
)
from pwfloquet import monodromy
from pwfloquet.monodromy import (
    DENSE_DIM,
    LEADING,
    TRIVIAL_RADIUS,
    CoarseDiscretizationError,
    MissingBreakpointsError,
    MonodromyDiscretization,
    assemble,
    eigenfunction,
    multipliers,
)

BUILTINS = ["tent", "quadratic-re", "plant", "logistic", "plant-coupled"]


def scalar_dde(coeffs, omega, tau, breakpoints=()):
    """Scalar differential equation from (delay, coefficient) pairs."""
    terms = tuple(
        DiscreteTerm("y", "y", tk, (lambda c: (lambda t: np.asarray(c(t))[..., None, None]))(ck)
                     if callable(ck) else np.array([[ck]]))
        for tk, ck in coeffs
    )
    return LinearPeriodicEquation(
        d_x=0, d_y=1, omega=omega, tau=tau,
        discrete=terms, breakpoints=breakpoints,
    )


class TestSimpleOracles:
    def test_zero_coefficient_maps_to_constant(self):
        eq = scalar_dde([(0.0, 0.0)], omega=1.0, tau=1.0)
        disc = assemble(eq, Mesh([0.0, 0.4, 1.0]), chebyshev_family(4))
        psi = np.sin(disc.grid.history.nodes) + 2.0
        out = disc.T @ psi
        assert np.allclose(out, psi[-1], atol=1e-14)

    def test_scalar_ode_exponential(self):
        # y' = a y with an inert delay: dominant eigenvalue is e^a
        for a in (1.0, -0.7):
            eq = scalar_dde([(0.0, a)], omega=1.0, tau=1.0)
            disc = assemble(eq, Mesh([0.0, 1.0]), chebyshev_family(20))
            dom = multipliers(disc).dominant()
            assert abs(dom - np.exp(a)) <= 1e-8

    def test_ivp_against_method_of_steps(self):
        # smooth coefficients, discrete delays; T acting on samples of psi
        # must match the time-omega state of an independent integrator
        a = lambda t: 0.3 + 0.1 * np.sin(np.pi * t)
        c = lambda t: 0.5 + 0.2 * np.cos(np.pi * t)
        eq = scalar_dde([(0.0, a), (1.0, c)], omega=2.0, tau=1.0)
        disc = assemble(eq, Mesh([0.0, 1.0, 2.0]), chebyshev_family(20))
        psi = lambda th: np.cos(th) + 0.3 * th
        dense = rk4_method_of_steps(
            [(0.0, lambda t: a(t)), (1.0, lambda t: c(t))],
            psi, t_end=2.0, step=1e-4,
        )
        end_state = disc.T @ restrict(psi, disc.grid.history).values[:, 0]
        for m, theta in enumerate(disc.grid.history.nodes):
            assert abs(end_state[m] - dense(2.0 + theta)[0]) <= 1e-6

    def test_ivp_delay_longer_than_period(self):
        # tau > omega: the end state is partly the shifted initial segment
        a = lambda t: -0.4 + 0.2 * np.cos(2 * np.pi * t)
        eq = scalar_dde([(0.0, a), (2.5, 0.8)], omega=1.0, tau=2.5)
        disc = assemble(eq, Mesh([0.0, 0.5, 1.0]), chebyshev_family(16))
        psi = lambda th: np.sin(1.3 * th) + 0.5
        dense = rk4_method_of_steps(
            [(0.0, lambda t: a(t)), (2.5, lambda t: 0.8)],
            psi, t_end=1.0, step=1e-4,
        )
        end_state = disc.T @ restrict(psi, disc.grid.history).values[:, 0]
        for m, theta in enumerate(disc.grid.history.nodes):
            assert abs(end_state[m] - dense(1.0 + theta)[0]) <= 1e-6


class TestTentEquation:
    def test_dominant_multiplier(self):
        tent = builtin("tent").linear
        disc = assemble(tent, Mesh([0.0, 1.0, 2.0]), chebyshev_family(40))
        dom = multipliers(disc).dominant()
        assert dom.imag == pytest.approx(0.0, abs=1e-12)
        assert dom.real == pytest.approx(2.0133, abs=1e-3)

    def test_no_trivial_multiplier(self):
        # not a linearization around a periodic solution: nothing near 1
        tent = builtin("tent").linear
        disc = assemble(tent, Mesh([0.0, 1.0, 2.0]), chebyshev_family(30))
        ms = multipliers(disc)
        assert ms.trivial_index is None
        assert ms.verdict == "unstable"


class TestBreakpointEnforcement:
    def test_merge_matches_explicit_mesh(self):
        tent = builtin("tent").linear
        with pytest.warns(UserWarning, match="merging"):
            merged = assemble(tent, Mesh([0.0, 2.0]), chebyshev_family(25))
        explicit = assemble(tent, Mesh([0.0, 1.0, 2.0]), chebyshev_family(25))
        assert merged.merged_breakpoints == (1.0,)
        d1 = multipliers(merged).dominant()
        d2 = multipliers(explicit).dominant()
        assert abs(d1 - d2) <= 1e-12

    def test_strict_mode_raises(self):
        tent = builtin("tent").linear
        with pytest.raises(MissingBreakpointsError):
            assemble(tent, Mesh([0.0, 2.0]), chebyshev_family(10), enforce="strict")

    def test_ignore_mode_keeps_mesh(self):
        tent = builtin("tent").linear
        disc = assemble(tent, Mesh([0.0, 2.0]), chebyshev_family(10), enforce="ignore")
        assert disc.grid.mesh.L == 1

    @pytest.mark.parametrize("breakpoints", [[0.0, 1.0, 2.0], [0.0, 1.0]])
    def test_unknown_enforcement_is_rejected_first(self, breakpoints):
        # rejected even when no breakpoint is missing, and before the mesh
        # span is checked
        tent = builtin("tent").linear
        with pytest.raises(ValueError, match=r"'bogus'.*'merge', 'strict', 'ignore'"):
            assemble(tent, Mesh(breakpoints), chebyshev_family(6), enforce="bogus")


class TestMultiplierSet:
    def test_sorted_by_modulus(self):
        tent = builtin("tent").linear
        ms = multipliers(assemble(tent, Mesh([0.0, 1.0, 2.0]), chebyshev_family(16)))
        mods = np.abs(ms.values)
        assert np.all(np.diff(mods) <= 1e-14)

    def test_spurious_flagging(self):
        tent = builtin("tent").linear
        ms = multipliers(assemble(tent, Mesh([0.0, 1.0, 2.0]), chebyshev_family(16)))
        assert np.all(ms.spurious == (np.abs(ms.values) < 1e-12))

    def test_verdicts(self):
        # stable: quadratic RE (dominant nontrivial ~ -0.135)
        b = builtin("quadratic-re", gamma=4.0)
        disc = assemble(linearize(b.problem, b.exact),
                        Mesh(np.linspace(0, 4, 5)), chebyshev_family(10))
        assert multipliers(disc).verdict == "stable"
        # unstable: y' = y has e > 1 and no trivial multiplier nearby
        eq = scalar_dde([(0.0, 1.0)], omega=1.0, tau=1.0)
        assert multipliers(
            assemble(eq, Mesh([0.0, 1.0]), chebyshev_family(12))
        ).verdict == "unstable"


class TestEigenfunction:
    def test_two_by_two_toy(self):
        toy = _around(np.array([[2.0, 0.0], [0.0, 0.5]]))
        e0 = eigenfunction(toy, 0).values[:, 0]
        e1 = eigenfunction(toy, 1).values[:, 0]
        assert np.allclose(np.abs(e0), [1.0, 0.0])
        assert np.allclose(np.abs(e1), [0.0, 1.0])

    def test_real_spectrum_stays_complex(self):
        # y' = y / 2 with an inert delay: every eigenvalue of T is real, and
        # numpy's eigensolvers then return float64
        eq = scalar_dde([(0.0, 0.5)], omega=1.0, tau=1.0)
        disc = assemble(eq, Mesh([0.0, 1.0]), chebyshev_family(6))
        assert np.linalg.eigvals(disc.T).dtype == np.float64
        ms = multipliers(disc)
        assert ms.values.dtype == np.complex128
        assert abs(ms.dominant() - np.exp(0.5)) <= 1e-8
        v = eigenfunction(disc, 0).values[:, 0]
        assert v.dtype == np.complex128
        assert np.allclose(disc.T @ v, ms.values[0] * v)

    def test_trivial_eigenfunction_is_solution_derivative(self):
        # renewal case with the closed-form solution: the multiplier-1
        # eigenfunction is proportional to the derivative segment
        b = builtin("quadratic-re", gamma=4.0)
        disc = assemble(linearize(b.problem, b.exact),
                        Mesh(np.linspace(0, 4, 5)), chebyshev_family(12))
        ms = multipliers(disc)
        assert ms.trivial_index == 0
        ef = eigenfunction(disc, 0).values[:, 0]
        # x(t + 1) - x(t - 1) = 2 A cos(pi t / 2): the derivative of the
        # period-4 sinusoid up to a constant factor
        ref = restrict(lambda th: b.exact(th + 1.0) - b.exact(th - 1.0),
                       disc.grid.history).values[:, 0]
        cos = abs(np.vdot(ef, ref)) / (np.linalg.norm(ef) * np.linalg.norm(ref))
        assert cos > 0.999

    def test_trivial_eigenfunction_differential_case(self):
        # same statement for a differential problem, around a solved orbit
        from pwfloquet.bvp import BvpProblem, solve_periodic
        b = builtin("logistic", r=1.6)
        profile, period = b.make_guess()
        res = solve_periodic(BvpProblem(
            problem=b.problem, mesh=Mesh(np.linspace(0, 1, 17)), degree=4,
            period_guess=period, guess_profile=profile,
        ))
        disc = assemble(linearize(b.problem, res.solution),
                        res.solution.mesh, chebyshev_family(4))
        ms = multipliers(disc)
        assert ms.trivial_index == 0
        ef = eigenfunction(disc, 0).values[:, 0]
        deriv = res.solution.derivative()
        ref = restrict(lambda th: deriv(th), disc.grid.history).values[:, 0]
        cos = abs(np.vdot(ef, ref)) / (np.linalg.norm(ef) * np.linalg.norm(ref))
        assert cos > 0.999

    @pytest.mark.parametrize("name", ["plant", "logistic"])
    def test_eigenvector_pairs_with_multiplier_index(self, name):
        # multipliers() solves for values only and eigenfunction() for
        # vectors; index i of both must refer to the same eigenpair
        disc = _causal_case(name, np.linspace(0.0, 1.0, 9), 10)
        vals = multipliers(disc).values
        scale = np.linalg.norm(disc.T, 1)
        for i in range(6):
            v = eigenfunction(disc, i).values.ravel()
            assert np.linalg.norm(disc.T @ v - vals[i] * v) <= 1e-10 * scale * np.linalg.norm(v)

    def test_leading_eigenvectors_match_dense_eig(self):
        # plant at M = 40 lists leading multipliers only (the Arnoldi path);
        # the eigenvectors of numpy's dense eig of T are the oracle
        disc = _causal_case("plant", None, 40)
        assert disc.dim > DENSE_DIM
        vals, vecs = np.linalg.eig(disc.T)
        for i, mu in enumerate(multipliers(disc).values[:6]):
            v = eigenfunction(disc, i).values.ravel()
            w = vecs[:, np.argmin(np.abs(vals - mu))]
            v, w = v / np.linalg.norm(v), w / np.linalg.norm(w)
            phase = np.vdot(v, w) / abs(np.vdot(v, w))
            assert np.linalg.norm(phase * v - w) <= 1e-12

    def test_double_multiplier_gives_the_start_component(self):
        # 2 is double, with eigenspace span(e0, e1); 0.5 has the eigenvector
        # x = (-2/3, -2/3, 1). The start vector s = a + s_2 x with a in the
        # eigenspace of 2, so both indices of 2 return a = s + 2/3 s_2 (1, 1, 0)
        toy = _around(np.array([[2.0, 0.0, 1.0], [0.0, 2.0, 1.0], [0.0, 0.0, 0.5]]),
                      degree=2)
        s = monodromy._start_vector(3)
        want = np.r_[s[:2] + 2.0 / 3.0 * s[2], 0.0]
        want /= want[np.argmax(np.abs(want))]
        for i in (0, 1):
            assert np.abs(eigenfunction(toy, i).values[:, 0] - want).max() <= 1e-14

    def test_spurious_multiplier_is_refused(self):
        toy = _around(np.array([[2.0, 0.0], [0.0, 0.0]]))
        assert multipliers(toy).spurious.tolist() == [False, True]
        with pytest.raises(ValueError, match="spurious"):
            eigenfunction(toy, 1)

    def test_index_out_of_range(self):
        eq = scalar_dde([(0.0, 1.0)], omega=1.0, tau=1.0)
        disc = assemble(eq, Mesh([0.0, 1.0]), chebyshev_family(5))
        with pytest.raises(IndexError):
            eigenfunction(disc, 99)


class TestErrors:
    def test_coarse_discretization_error(self):
        # an enormous coefficient drives the fixed-point system singular
        eq = scalar_dde([(0.0, 1e17)], omega=1.0, tau=1.0)
        with pytest.raises(CoarseDiscretizationError, match=r"piece 0 on \[0, 1\]"):
            assemble(eq, Mesh([0.0, 1.0]), chebyshev_family(6))

    def test_coarse_piece_is_named(self):
        # y' = a y at M = 1: the diagonal block of a piece of width h is
        # 1 - a h / 2, (nearly) singular on the 0.6 wide piece for a = 2 / 0.6
        # while the narrower pieces stay well conditioned
        eq = scalar_dde([(0.0, 2.0 / 0.6)], omega=1.0, tau=1.0)
        with pytest.raises(CoarseDiscretizationError, match=r"piece 2 on \[0\.4, 1\]"):
            assemble(eq, Mesh([0.0, 0.2, 0.4, 1.0]), chebyshev_family(1))

    def test_exactly_singular_piece_is_named(self):
        # x(t) = x(t): every diagonal block is exactly I - I = 0, so the
        # first piece's inverse fails before any condition estimate
        eq = LinearPeriodicEquation(d_x=1, d_y=0, omega=1.0, tau=1.0,
                                    discrete=(DiscreteTerm("x", "x", 0.0, [[1.0]]),))
        with pytest.raises(CoarseDiscretizationError,
                           match=r"singular on forward piece 0 on \[0, 0\.5\]"):
            assemble(eq, Mesh([0.0, 0.5, 1.0]), chebyshev_family(4))

    def test_mesh_span_mismatch(self):
        eq = scalar_dde([(0.0, 1.0)], omega=1.0, tau=1.0)
        with pytest.raises(ValueError):
            assemble(eq, Mesh([0.0, 2.0]), chebyshev_family(4))

    def test_dimension_guard(self):
        eq = scalar_dde([(0.0, 1.0)], omega=1.0, tau=1.0)
        mesh = Mesh(np.linspace(0.0, 1.0, 6001))
        with pytest.raises(ValueError, match="exceeds"):
            assemble(eq, mesh, chebyshev_family(2))

    def test_oversize_forward_side_is_refused_before_the_grid(self, monkeypatch):
        # d (L M + 1) = 20001 nodes on [0, omega] alone exceed the limit
        def no_grid(*args):
            raise AssertionError("build_grid called for an oversize problem")

        monkeypatch.setattr(monodromy, "build_grid", no_grid)
        eq = scalar_dde([(0.0, 1.0)], omega=1.0, tau=1.0)
        with pytest.raises(ValueError, match="exceeds"):
            assemble(eq, Mesh(np.linspace(0.0, 1.0, 5001)), chebyshev_family(4))


class TestPlantCoupledSpectrum:
    def test_neutral_essential_spectrum_and_point_modes(self):
        # the neutral term w(t - tau) carries essential spectrum on the unit
        # circle at angles 2 pi k omega / tau; the discretization resolves the
        # first few of those alongside the trivial and point-spectrum modes
        from pwfloquet.model import coupled_view_of_plant, data_path, read_solution

        sol = read_solution(data_path("plant_solution.sol"))
        b = builtin("plant-coupled")
        eq = linearize(b.problem, coupled_view_of_plant(sol))
        ms = multipliers(assemble(eq, sol.mesh, chebyshev_family(5)))
        vals = ms.values
        assert abs(ms.trivial() - 1.0) <= 1e-4
        for k in (1, 2):
            predicted = np.exp(2j * np.pi * k * sol.omega / 25.0)
            assert np.abs(vals - predicted).min() <= 5e-3
        point_mode = vals[np.argmin(np.abs(vals - (0.1444 + 0.0382j)))]
        assert abs(point_mode - (0.1444 + 0.0382j)) <= 5e-3


class TestDistributedSplitting:
    def test_coupled_assembly_runs(self):
        # exercises history/forward kernel splitting and the neutral term
        b = builtin("plant-coupled", tau=2.0)
        sol = lambda t: np.stack([0.3 + 0.1 * np.sin(np.pi * t / 3),
                                  -1.0 + 0.2 * np.cos(np.pi * t / 3)], axis=-1)
        eq = linearize(b.problem, (sol, 6.0))
        disc = assemble(eq, Mesh(np.linspace(0, 6, 7)), chebyshev_family(6))
        ms = multipliers(disc)
        assert np.all(np.isfinite(ms.values))

    def test_re_block_against_direct_quadrature(self):
        # renewal fixed point row: x(t) = integral of k(t,th) x(t+th) on
        # history only (t small): row values must match direct quadrature
        b = builtin("quadratic-re", gamma=4.0)
        eq = linearize(b.problem, b.exact)
        disc = assemble(eq, Mesh(np.linspace(0, 4, 5)), chebyshev_family(9))
        grid = disc.grid
        a1 = disc.blocks["A1"]
        # first forward node is t = 0: window [-3, -1] lies in history
        from scipy.integrate import quad
        psi = lambda th: np.cos(th)
        vals = restrict(psi, grid.history).values[:, 0]
        got = a1[0] @ vals
        expect, _ = quad(
            lambda th: 2.0 * (1 - 2 * b.exact(th)[0]) * psi(th),
            -3.0, -1.0, epsabs=1e-12, epsrel=1e-12,
        )
        assert got == pytest.approx(expect, abs=1e-9)


def _causal_case(name, mesh_pts, M):
    """Discretization of a builtin; the plant cases use the shipped orbit
    and mesh, the others ``mesh_pts`` on [0, 1] scaled to the period."""
    from pwfloquet.model import coupled_view_of_plant, data_path, read_solution

    if name in ("plant", "plant-coupled"):
        sol = read_solution(data_path("plant_solution.sol"))
        b = builtin(name)
        eq = linearize(b.problem, sol if name == "plant" else coupled_view_of_plant(sol))
        return assemble(eq, sol.mesh, chebyshev_family(M))
    if name == "tent":
        eq, omega = builtin("tent").linear, 2.0
    elif name == "quadratic-re":
        b = builtin("quadratic-re", gamma=4.0)
        eq, omega = linearize(b.problem, b.exact), 4.0
    else:
        omega = 4.02
        sol = sample_solution(
            lambda t: np.atleast_1d(1.0 + 0.39 * np.sin(2 * np.pi * t / omega)),
            omega, Mesh(np.linspace(0, 1, 9)), 3,
        )
        eq = linearize(builtin("logistic", r=1.6).problem, sol)
    mesh = Mesh(omega * np.asarray(mesh_pts))
    return assemble(eq, mesh, chebyshev_family(M), enforce="ignore")


def _random_equation(kind, delays, lower, upper):
    """Period-1 equation with discrete delays and one distributed window,
    every coefficient small enough that I - A2 stays far from singular."""
    d_x, d_y = {"dde": (0, 1), "re": (1, 0), "coupled": (1, 1)}[kind]
    blocks = [b for b, n in (("x", d_x), ("y", d_y)) if n]
    pairs = [(t, s) for t in blocks for s in blocks]
    scale = 0.5 / (len(delays) + 1)
    coeff = lambda t: (scale * (1.0 + 0.5 * np.cos(2 * np.pi * t)))[..., None, None]
    kernel = lambda t, th: (scale * np.sin(3.0 * th + t))[..., None, None]
    return LinearPeriodicEquation(
        d_x=d_x, d_y=d_y, omega=1.0, tau=1.5,
        discrete=tuple(DiscreteTerm(*pairs[k % len(pairs)], delay, coeff)
                       for k, delay in enumerate(delays)),
        distributed=(DistributedTerm(*pairs[-1], lower, upper, kernel),),
    )


def _assert_causal(disc):
    fwd, d, M = disc.grid.forward, disc.equation.d, disc.grid.forward.family.degree
    last = np.array([(fwd.piece_of(t) + 1) * M for t in fwd.nodes])
    a2 = disc.blocks["A2"].reshape(fwd.n, d, fwd.n, d)
    beyond = np.arange(fwd.n)[None, :] > last[:, None]
    assert not np.any(a2.transpose(0, 2, 1, 3)[beyond])


def _assert_matches_dense(disc):
    """T matches the dense LU oracle; returns gecon's rcond of I - A2."""
    t_dense, rcond = dense_monodromy(disc.blocks)
    assert np.abs(disc.T - t_dense).max() <= 1e-12 * np.abs(t_dense).max()
    return rcond


_RANDOM_EQUATIONS = dict(
    inner=st.lists(st.floats(0.02, 0.98), max_size=4, unique=True),
    M=st.integers(1, 6),
    delays=st.lists(st.floats(0.0, 1.5), min_size=1, max_size=3),
    lower=st.floats(-1.5, -0.05),
    upper=st.sampled_from([1e-12, 0.0, -0.02]),
    kind=st.sampled_from(["dde", "re", "coupled"]),
)


class TestCausality:
    """Z at a forward node depends only on Z up to the end of that node's
    piece, so A2 has no entry right of the row's piece, exactly."""

    @pytest.mark.parametrize("name", BUILTINS)
    @given(inner=st.lists(st.floats(0.02, 0.98), max_size=5, unique=True),
           M=st.integers(1, 8))
    @example(inner=[], M=5)
    @settings(max_examples=8, deadline=None)
    def test_a2_is_causal(self, name, inner, M):
        _assert_causal(_causal_case(name, np.unique(np.round([0.0, 1.0] + inner, 3)), M))

    @given(**_RANDOM_EQUATIONS)
    @example(inner=[0.5], M=3, delays=[0.0], lower=-1.0, upper=1e-12, kind="re")
    @settings(max_examples=25, deadline=None)
    def test_random_equation_is_causal(self, inner, M, delays, lower, upper, kind):
        # windows reaching past t by roundoff (upper = 1e-12) are clipped at t
        eq = _random_equation(kind, delays, lower, upper)
        mesh = Mesh(np.unique(np.round([0.0, 1.0] + inner, 3)))
        _assert_causal(assemble(eq, mesh, chebyshev_family(M), enforce="ignore"))

    def test_non_causal_a2_is_rejected(self, monkeypatch):
        run = monodromy._Assembler.run

        def leaky(self):
            # one pair of the first row on the last forward node
            self.chunks["A2"].append((np.array([0]), np.array([[self.grid.forward.n - 1]]),
                                      np.array([[1e-300]])))
            return run(self)

        monkeypatch.setattr(monodromy._Assembler, "run", leaky)
        eq = scalar_dde([(0.0, 1.0)], omega=1.0, tau=1.0)
        with pytest.raises(ValueError, match=r"not causal: rows of forward piece 0 on \[0, 0\.5\]"):
            assemble(eq, Mesh([0.0, 0.5, 1.0]), chebyshev_family(3))

    def test_integral_beyond_the_piece_is_rejected(self, monkeypatch):
        run = monodromy._Assembler.run

        def leaky(self):
            # the first row reads int_0^{t_1} Z, which holds its own piece
            self.chunks["A2"].append((np.array([0]), np.array([[self.grid.forward.n + 1]]),
                                      np.array([[1e-300]])))
            return run(self)

        monkeypatch.setattr(monodromy._Assembler, "run", leaky)
        eq = scalar_dde([(0.0, 1.0)], omega=1.0, tau=1.0)
        with pytest.raises(ValueError, match=r"not causal: rows of forward piece 0 on \[0, 0\.5\]"):
            assemble(eq, Mesh([0.0, 0.5, 1.0]), chebyshev_family(3))


def _assert_groups_match_searchsorted(disc):
    """Every block's row groups equal the binary-search construction from the
    triples of ``triple_row_sums``, computed beside each call's row chunks."""
    assembler, triples = monodromy._Assembler(disc.equation, disc.grid), {}

    def recorded(*args):
        chunks = row_sums(*args)
        if chunks:  # a call without chunks has no nonzero triple
            triples[id(chunks[0])] = triple_row_sums(*args)
        return chunks

    with mock.patch.object(monodromy, "row_sums", recorded):
        blocks = assembler.run()
    for name, block in blocks.items():
        side = disc.grid.history if name[0] == "B" else disc.grid.forward
        want = searchsorted_groups(block.shape, side, disc.equation.d,
                                   [triples[id(c)] for c in assembler.chunks[name]
                                    if id(c) in triples])
        assert len(block.groups) == len(want)
        for (rows, cols, w), (rows_ref, cols_ref, w_ref) in zip(block.groups, want):
            assert rows == rows_ref
            assert np.array_equal(cols, cols_ref) and np.array_equal(w, w_ref)


def _assert_structure_matches_dense(disc):
    """The row groups with the integrals ``int_0^{t_k}`` act as the
    materialized dense blocks, T is B1 where A1 is zero and zero outside the
    columns it keeps, and the materialized T is the one formed whole."""
    fwd, d = disc.grid.forward, disc.equation.d
    dense = disc.blocks
    v = np.random.default_rng(7).normal(size=(d * fwd.n, 3))
    # int_0^{t_k} of the interpolant of each component, rows k d + component
    integrals = (breakpoint_weights(fwd) @ v.reshape(fwd.n, -1)).reshape(-1, 3)
    ext = np.vstack([v, integrals])
    for name in ("A2", "B2"):
        got = np.vstack([w @ ext[cols] for _, cols, w in disc.parts[name].groups])
        want = dense[name] @ v
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())
    system = monodromy._CausalSystem(disc.parts["A2"], fwd, d)
    exact = np.linalg.norm(np.eye(d * fwd.n) - dense["A2"], 1)
    assert abs(system.norm1 - exact) <= 1e-13 * exact
    zero = ~dense["A1"].any(axis=0)
    assert np.array_equal(disc.T[:, zero], dense["B1"][:, zero])
    assert np.array_equal(np.sort(disc.cols), np.unique(disc.cols))
    assert not np.delete(disc.T, disc.cols, axis=1).any()
    assert np.array_equal(disc.T[:, disc.cols], disc.T_cols)
    # the oracle applies D_j^{-1} after the off-diagonal products, the solver
    # folds it into them: the rounding differs (4.1e-15 relative at most on
    # the builtins)
    t_ref = scattered_monodromy(disc.parts, fwd, d)
    assert np.abs(disc.T - t_ref).max() <= 1e-13 * np.abs(t_ref).max()
    _assert_groups_match_searchsorted(disc)


class TestStructuredBlocks:
    """The structured products and norm against the dense blocks."""

    @pytest.mark.parametrize("name", BUILTINS)
    def test_builtin_structure_matches_dense(self, name):
        _assert_structure_matches_dense(_causal_case(name, np.linspace(0.0, 1.0, 5), 8))

    def test_plant_solves_only_where_a1_is_nonzero(self):
        # plant reads only v with delay: half the columns of A1 are zero, and
        # T keeps the other 522, Psi(0) among them
        disc = _causal_case("plant", None, 40)
        zero = ~disc.blocks["A1"].any(axis=0)
        assert zero.sum() == 520 and disc.dim == 1042
        assert disc.cols.size == 522 and disc.dim - 2 in disc.cols
        _assert_structure_matches_dense(disc)

    @given(**_RANDOM_EQUATIONS)
    @settings(max_examples=25, deadline=None)
    def test_random_equation_structure_matches_dense(self, inner, M, delays, lower, upper,
                                                     kind):
        eq = _random_equation(kind, delays, lower, upper)
        mesh = Mesh(np.unique(np.round([0.0, 1.0] + inner, 3)))
        _assert_structure_matches_dense(
            assemble(eq, mesh, chebyshev_family(M), enforce="ignore"))

    def test_chunks_naming_one_entry_sum_in_chunk_order(self):
        # no chunk names a (row, column) twice, but two chunks may: their
        # values are summed chunk after chunk, as one bincount over the
        # triples does; 1 + 1e-16 + 1e-16 rounds to 1 in that order only
        side = build_forward_grid(Mesh([0.0, 1.0, 2.5]), chebyshev_family(2))
        chunks = [(np.array([0, 2, 3]), np.array([[0, 1], [1, 2], [4, 2]]),
                   np.array([[0.5, -2.0], [1.0, 3.0], [0.25, 0.0]])),
                  (np.array([2, 4]), np.array([[1, 3], [4, 0]]),
                   np.array([[1e-16, 0.0], [0.75, -1.5]])),
                  (np.array([2]), np.array([[1]]), np.array([[1e-16]]))]
        block = monodromy._Block((side.n, 6), side, 1, chunks)
        triples = []
        for rows, cols, vals in chunks:
            live = vals != 0.0
            triples.append((np.broadcast_to(rows[:, None], cols.shape)[live], cols[live],
                            vals[live]))
        want = searchsorted_groups((side.n, 6), side, 1, triples)
        assert block.groups[0][2][2, 1] == 1.0
        assert len(block.groups) == len(want) == 2
        for (rows, cols, w), (rows_ref, cols_ref, w_ref) in zip(block.groups, want):
            assert rows == rows_ref
            assert np.array_equal(cols, cols_ref) and np.array_equal(w, w_ref)


class TestDenseOracle:
    """The block forward substitution against a dense LU of I - A2."""

    @pytest.mark.parametrize("name", BUILTINS)
    def test_builtin_matches_dense_lu(self, name):
        disc = _causal_case(name, np.linspace(0.0, 1.0, 5), 8)
        gecon_rcond = _assert_matches_dense(disc)
        # the singularity guard is as strict as LAPACK's gecon
        system = monodromy._CausalSystem(disc.parts["A2"], disc.grid.forward,
                                         disc.equation.d)
        assert abs(system.rcond() - gecon_rcond) <= 0.1 * gecon_rcond

    @given(**_RANDOM_EQUATIONS)
    @settings(max_examples=25, deadline=None)
    def test_random_equation_matches_dense_lu(self, inner, M, delays, lower, upper, kind):
        eq = _random_equation(kind, delays, lower, upper)
        mesh = Mesh(np.unique(np.round([0.0, 1.0] + inner, 3)))
        disc = assemble(eq, mesh, chebyshev_family(M), enforce="ignore")
        _assert_matches_dense(disc)
        # Higham's estimate is a lower bound of the exact inverse norm
        system = monodromy._CausalSystem(disc.parts["A2"], disc.grid.forward,
                                         disc.equation.d)
        exact = np.linalg.norm(np.linalg.inv(np.eye(system.n) - disc.blocks["A2"]), 1)
        assert system.inv_norm1() <= exact * (1 + 1e-12)


def _assert_causal_solves(disc):
    """``solve`` from ``A1``'s row groups and from dense groups, and
    ``solve_t``, against dense solves with ``I - A2`` and its transpose; the
    rows past ``n`` hold the integrals ``int_0^{t_k}`` of the solution."""
    fwd, d = disc.grid.forward, disc.equation.d
    system = monodromy._CausalSystem(disc.parts["A2"], fwd, d)
    n, a1 = system.n, disc.parts["A1"]
    s = np.eye(n) - disc.blocks["A2"]
    rhs = np.random.default_rng(5).normal(size=(n, 3))
    integrals = np.kron(breakpoint_weights(fwd), np.eye(d))
    for got, want in (
            (system.solve([(at, w) for _, at, w in a1.groups], (a1.shape[1],)),
             np.linalg.solve(s, disc.blocks["A1"])),
            (system.solve([(slice(None), rhs[rows]) for rows, *_ in system.pieces], (3,)),
             np.linalg.solve(s, rhs))):
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got[:n] - want).max() <= 1e-12 * scale
        assert np.abs(got[n:] - integrals @ got[:n]).max() <= 1e-13 * scale
    want = np.linalg.solve(s.T, rhs)
    assert np.abs(system.solve_t(rhs) - want).max() <= 1e-12 * np.abs(want).max()


class TestCausalSystem:
    """The folded block substitutions against dense solves, and what
    ``assemble`` keeps dense."""

    @pytest.mark.parametrize("name", BUILTINS)
    def test_builtin_solves_match_dense(self, name):
        disc = _causal_case(name, np.linspace(0.0, 1.0, 5), 8)
        if name == "quadratic-re":  # the last piece's A1 group is empty
            assert [at.size for _, at, _ in disc.parts["A1"].groups] == [25, 17, 9, 0]
        _assert_causal_solves(disc)

    @given(**_RANDOM_EQUATIONS)
    @settings(max_examples=25, deadline=None)
    def test_random_equation_solves_match_dense(self, inner, M, delays, lower, upper, kind):
        eq = _random_equation(kind, delays, lower, upper)
        mesh = Mesh(np.unique(np.round([0.0, 1.0] + inner, 3)))
        _assert_causal_solves(assemble(eq, mesh, chebyshev_family(M), enforce="ignore"))

    def test_assemble_densifies_only_b1(self, monkeypatch):
        densified, dense = [], monodromy._Block.dense

        def recorded(self, cols=None):
            densified.append(self)
            return dense(self, cols)

        monkeypatch.setattr(monodromy._Block, "dense", recorded)
        disc = _causal_case("plant", None, 8)
        assert len(densified) == 1 and densified[0] is disc.parts["B1"]

    def test_plant_assembly_peak_memory(self):
        # X (2464 x 522) is 10.3 MB; a dense A1 as large, the stacked B2 X and
        # the concatenated triples of A2 took the peak to 30.0 MB, and the
        # causal system's per-piece inverses, kept beside T_cols, to 22.0 MB
        from pwfloquet.model import data_path, read_solution

        sol = read_solution(data_path("plant_solution.sol"))
        eq = linearize(builtin("plant").problem, sol)
        tracemalloc.start()
        try:
            assemble(eq, sol.mesh, chebyshev_family(40))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 21e6


class TestCallbackConvention:
    @pytest.mark.parametrize("term", [
        DiscreteTerm("y", "y", 1.0, lambda t: np.array([[np.cos(t)]])),
        DistributedTerm("y", "y", -1.0, 0.0, lambda t, th: np.array([[t * th]])),
    ])
    def test_scalar_convention_is_rejected(self, term):
        # an array of k times makes these return shape (1, 1, k)
        distributed = isinstance(term, DistributedTerm)
        eq = LinearPeriodicEquation(
            d_x=0, d_y=1, omega=1.0, tau=1.0,
            discrete=() if distributed else (term,),
            distributed=(term,) if distributed else (),
        )
        kind = "distributed" if distributed else "discrete"
        with pytest.raises(ValueError, match=rf"{kind} term y -> y.*\(1, 1, \d+\).*elementwise"):
            assemble(eq, Mesh([0.0, 0.5, 1.0]), chebyshev_family(4))


def _around(t_mat, degree=1):
    """A discretization whose monodromy matrix is ``t_mat``; its grid has
    ``degree + 1`` history nodes, which only ``eigenfunction`` reads."""
    base = assemble(scalar_dde([(0.0, 0.0)], omega=1.0, tau=1.0), Mesh([0.0, 1.0]),
                    chebyshev_family(degree))
    return MonodromyDiscretization(equation=base.equation, grid=base.grid,
                                   parts=base.parts, T_cols=t_mat,
                                   cols=np.arange(t_mat.shape[1]))


def _synthetic(spectrum, dim, seed):
    """Real ``Q D Q^{-1}`` of size ``dim``: ``D`` has a 1x1 block for each
    real value of ``spectrum`` and a rotation-scaling 2x2 block for each
    complex one (the value and its conjugate), zeros elsewhere."""
    d, i = np.zeros((dim, dim)), 0
    for mu in spectrum:
        if mu.imag == 0.0:
            d[i, i], i = mu.real, i + 1
        else:
            d[i:i + 2, i:i + 2], i = [[mu.real, mu.imag], [-mu.imag, mu.real]], i + 2
    q = np.random.default_rng(seed).standard_normal((dim, dim))
    return q @ d @ np.linalg.inv(q)


def _leading_spectrum(lead, near, seed=1):
    """``lead``, the trivial 1, the moduli ``near``, about 60 % of them with
    a conjugate pair's angle, and a decaying tail from 0.6."""
    rng = np.random.default_rng(seed)
    near = near * np.exp(1j * rng.uniform(0.2, 3.0, near.size) * (rng.random(near.size) < 0.6))
    tail = 0.6 * 0.93 ** np.arange(60) * np.exp(
        1j * rng.uniform(0.0, 3.0, 60) * (rng.random(60) < 0.5))
    return np.concatenate([[lead, 1.0], near, tail])


# more than 2 LEADING eigenvalues above 0.9, so the Arnoldi basis must grow:
# clustered in (0.91, 0.99), or spread over (0.91, 3.8), where LEADING of
# them converge before the iteration reaches below 0.9
CLUSTER = np.random.default_rng(0).uniform(0.91, 0.99, 40)
SPREAD = 0.91 * 1.03 ** np.arange(50)


def _annulus_spectrum(seed=2):
    """120 complex pairs spread over the annulus 0.49 < |mu| < 0.98: no
    modulus stands apart, so Arnoldi does not converge within ``dim // 2``."""
    rng = np.random.default_rng(seed)
    return 0.98 * np.sqrt(rng.uniform(0.25, 1.0, 120)) * np.exp(1j * rng.uniform(0.1, 3.0, 120))


def _dense_reference(disc, monkeypatch):
    """``multipliers`` on every eigenvalue: the verdict and trivial index to
    compare with."""
    with monkeypatch.context() as m:
        m.setattr(monodromy, "DENSE_DIM", disc.dim)
        return multipliers(_around(disc.T))


def _assert_leading(ms, full, rtol):
    """``ms.values`` are the leading ``len(ms)`` of ``full``: moduli in order
    and each value near one of ``full``, within ``rtol``; conjugate pairs
    whole; the last modulus below ``1 - TRIVIAL_RADIUS``."""
    vals, n = ms.values, len(ms)
    mods = np.abs(vals)
    assert LEADING <= n < full.size
    assert mods[-1] < 1.0 - TRIVIAL_RADIUS
    assert np.all(np.abs(mods - np.abs(full[:n])) <= rtol * mods)
    assert np.all(np.abs(vals[:, None] - full[None, :]).min(axis=1) <= rtol * mods)
    assert np.all(np.isin(np.conj(vals), vals))


class TestLeadingMultipliers:
    @pytest.fixture(scope="class")
    def large(self):
        return {"plant": _causal_case("plant", None, 40),
                "quadratic-re": _causal_case("quadratic-re", np.linspace(0.0, 1.0, 41), 15)}

    @pytest.mark.parametrize("name, dim", [("plant", 1042), ("quadratic-re", 451)])
    def test_matches_every_eigenvalue(self, large, monkeypatch, name, dim):
        disc = large[name]
        assert disc.dim == dim > DENSE_DIM
        ms, ref = multipliers(disc), _dense_reference(disc, monkeypatch)
        _assert_leading(ms, dense_multipliers(disc.T), 1e-10)
        assert ms.verdict == ref.verdict == "stable"
        assert ms.trivial_index == ref.trivial_index == 0

    def test_columns_only_b1_reads_enter_the_spectrum(self):
        # tau > omega: A1 reads Psi on [-1.5, -0.5], B1 reads it on [-0.5, 0]
        # and Psi(0), so T keeps columns that A1 never reads
        eq = scalar_dde([(1.5, -1.0)], omega=1.0, tau=1.5)
        disc = assemble(eq, Mesh(np.linspace(0.0, 1.0, 11)), chebyshev_family(15))
        assert disc.dim > DENSE_DIM
        a1_cols = np.concatenate([at for _, at, _ in disc.parts["A1"].groups])
        assert disc.dim - 1 in np.setdiff1d(disc.cols, a1_cols)
        _assert_matches_dense(disc)
        ms = multipliers(disc)
        _assert_leading(ms, dense_multipliers(disc.T), 1e-10)
        assert ms.verdict == "stable"

    def test_runs_are_bit_identical(self, large):
        again = _causal_case("quadratic-re", np.linspace(0.0, 1.0, 41), 15)
        first, second = multipliers(large["quadratic-re"]).values, multipliers(again).values
        assert first is not second
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("disc", [
        lambda: _causal_case("tent", [0.0, 0.5, 1.0], 40),
        lambda: _causal_case("logistic", np.linspace(0.0, 1.0, 9), 10),
        lambda: _causal_case("quadratic-re", np.linspace(0.0, 1.0, 5), 15),
        lambda: _causal_case("plant-coupled", None, 5),
    ], ids=["tent", "logistic", "quadratic-re", "plant-coupled"])
    def test_small_problems_list_every_eigenvalue(self, disc):
        disc = disc()
        assert disc.dim <= DENSE_DIM
        vals = multipliers(disc).values
        assert vals.size == disc.dim
        assert np.array_equal(vals, dense_multipliers(disc.T))

    def test_dense_up_to_dense_dim(self, large):
        # leading blocks of quadratic-re's T, on which Arnoldi converges
        t_mat = large["quadratic-re"].T
        at = _around(np.asfortranarray(t_mat[:DENSE_DIM, :DENSE_DIM]))
        assert np.array_equal(multipliers(at).values, dense_multipliers(at.T))
        above = _around(np.asfortranarray(t_mat[:DENSE_DIM + 1, :DENSE_DIM + 1]))
        _assert_leading(multipliers(above), dense_multipliers(above.T), 1e-10)

    @pytest.mark.parametrize("lead, near, verdict", [
        (1.3, CLUSTER, "unstable"), (0.995, CLUSTER, "stable"),
        (1.0 + 1e-7, CLUSTER, "inconclusive"), (1.3, SPREAD, "unstable"),
    ], ids=["cluster-unstable", "cluster-stable", "cluster-inconclusive", "spread"])
    def test_many_leading_moduli_extend_the_basis(self, monkeypatch, lead, near, verdict):
        disc = _around(_synthetic(_leading_spectrum(lead, near), 300, 0))
        ms, full = multipliers(disc), dense_multipliers(disc.T)
        assert np.count_nonzero(np.abs(full) > 1.0 - TRIVIAL_RADIUS) > 2 * LEADING
        _assert_leading(ms, full, 1e-10)
        assert len(ms) > 2 * LEADING  # more than the first basis holds
        ref = _dense_reference(disc, monkeypatch)
        assert ms.verdict == ref.verdict == verdict
        assert ms.trivial() == pytest.approx(ref.trivial(), abs=1e-12)
        assert ms.trivial_index == ref.trivial_index

    def test_slow_convergence_falls_back_to_every_eigenvalue(self, monkeypatch):
        disc = _around(_synthetic(_annulus_spectrum(), 240, 0))
        assert disc.dim > DENSE_DIM
        ms = multipliers(disc)
        assert np.array_equal(ms.values, dense_multipliers(disc.T))
        ref = _dense_reference(disc, monkeypatch)
        assert ms.verdict == ref.verdict == "stable"
        assert ms.trivial_index is ref.trivial_index is None

    @pytest.mark.parametrize("t_mat", [
        lambda: np.zeros((240, 240)),
        lambda: _synthetic(np.linspace(1.0, 0.2, 10), 240, 3),
    ], ids=["zero", "rank-10"])
    def test_invariant_subspace_falls_back_to_every_eigenvalue(self, t_mat):
        # the Krylov space stops growing: its Ritz values would lack the
        # multiplicities, so every eigenvalue is computed instead
        disc = _around(t_mat())
        ms = multipliers(disc)
        assert np.array_equal(ms.values, dense_multipliers(disc.T))
        assert ms.verdict == "stable"
