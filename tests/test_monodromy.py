import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import example, given, settings

from oracles import rk4_method_of_steps
from pwfloquet.interp import restrict
from pwfloquet.mesh import Mesh, chebyshev_family
from pwfloquet.model import (
    DiscreteTerm,
    DistributedTerm,
    LinearPeriodicEquation,
    builtin,
    linearize,
    sample_solution,
)
from pwfloquet.monodromy import (
    CoarseDiscretizationError,
    MissingBreakpointsError,
    assemble,
    eigenfunction,
    multipliers,
)


def scalar_dde(coeffs, omega, tau, breakpoints=()):
    """Scalar differential equation from (delay, coefficient) pairs."""
    terms = tuple(
        DiscreteTerm("y", "y", tk, (lambda c: (lambda t: np.asarray(c(t))[..., None, None]))(ck)
                     if callable(ck) else np.array([[ck]]))
        for tk, ck in coeffs
    )
    return LinearPeriodicEquation(
        kind="dde", d_x=0, d_y=1, omega=omega, tau=tau,
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


class TestModeEquivalence:
    def instances(self):
        b = builtin("quadratic-re", gamma=4.0)
        yield assemble(linearize(b.problem, b.exact),
                       Mesh(np.linspace(0, 4, 5)), chebyshev_family(8))
        yield assemble(builtin("tent").linear,
                       Mesh([0.0, 1.0, 2.0]), chebyshev_family(12))
        logi = builtin("logistic", r=1.6)
        sol = sample_solution(
            lambda t: np.atleast_1d(1.0 + 0.39 * np.sin(2 * np.pi * t / 4.02)),
            4.02, Mesh(np.linspace(0, 1, 9)), 3,
        )
        yield assemble(linearize(logi.problem, sol), sol.mesh, chebyshev_family(3))

    def test_direct_and_pencil_agree(self):
        for disc in self.instances():
            d = multipliers(disc, mode="direct")
            p = multipliers(disc, mode="pencil")
            keep = np.abs(d.values) > 1e-8
            assert d.values.size == p.values.size
            rel = np.abs(d.values[keep] - p.values[keep]) / np.abs(d.values[keep])
            assert rel.max() <= 1e-10

    def test_pencil_shape(self):
        disc = next(iter(self.instances()))
        p, q = disc.pencil()
        n = disc.equation.d * (disc.n_hist + disc.n_fwd)
        assert p.shape == (n, n) and q.shape == (n, n)


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
        from pwfloquet.monodromy import MonodromyDiscretization
        eq = scalar_dde([(0.0, 0.0)], omega=1.0, tau=1.0)
        base = assemble(eq, Mesh([0.0, 1.0]), chebyshev_family(1))
        toy = MonodromyDiscretization(
            equation=base.equation, grid=base.grid, blocks=base.blocks,
            T=np.array([[2.0, 0.0], [0.0, 0.5]]),
        )
        e0 = eigenfunction(toy, 0).values[:, 0]
        e1 = eigenfunction(toy, 1).values[:, 0]
        assert np.allclose(np.abs(e0), [1.0, 0.0])
        assert np.allclose(np.abs(e1), [0.0, 1.0])

    def test_trivial_eigenfunction_is_solution_derivative(self):
        # renewal case with the closed-form solution: the multiplier-1
        # eigenfunction is proportional to the derivative segment
        b = builtin("quadratic-re", gamma=4.0)
        disc = assemble(linearize(b.problem, b.exact),
                        Mesh(np.linspace(0, 4, 5)), chebyshev_family(12))
        ms = multipliers(disc)
        assert ms.trivial_index == 0
        ef = eigenfunction(disc, 0).values[:, 0]
        ref = restrict(lambda th: b.exact.derivative(th), disc.grid.history).values[:, 0]
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

    def test_index_out_of_range(self):
        eq = scalar_dde([(0.0, 1.0)], omega=1.0, tau=1.0)
        disc = assemble(eq, Mesh([0.0, 1.0]), chebyshev_family(5))
        with pytest.raises(IndexError):
            eigenfunction(disc, 99)


class TestErrors:
    def test_coarse_discretization_error(self):
        # an enormous coefficient drives the fixed-point system singular
        eq = scalar_dde([(0.0, 1e17)], omega=1.0, tau=1.0)
        with pytest.raises(CoarseDiscretizationError):
            assemble(eq, Mesh([0.0, 1.0]), chebyshev_family(6))

    def test_mesh_span_mismatch(self):
        eq = scalar_dde([(0.0, 1.0)], omega=1.0, tau=1.0)
        with pytest.raises(ValueError):
            assemble(eq, Mesh([0.0, 2.0]), chebyshev_family(4))

    def test_dimension_guard(self):
        eq = scalar_dde([(0.0, 1.0)], omega=1.0, tau=1.0)
        mesh = Mesh(np.linspace(0.0, 1.0, 6001))
        with pytest.raises(ValueError, match="exceeds"):
            assemble(eq, mesh, chebyshev_family(2))


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


class TestCausality:
    """Z at a forward node depends only on Z up to the end of that node's
    piece, so A2 has no entry right of the row's piece, exactly."""

    @pytest.mark.parametrize(
        "name", ["tent", "quadratic-re", "plant", "logistic", "plant-coupled"])
    @given(inner=st.lists(st.floats(0.02, 0.98), max_size=5, unique=True),
           M=st.integers(1, 8))
    @example(inner=[], M=5)
    @settings(max_examples=8, deadline=None)
    def test_a2_is_causal(self, name, inner, M):
        disc = _causal_case(name, np.unique(np.round([0.0, 1.0] + inner, 3)), M)
        fwd, d = disc.grid.forward, disc.equation.d
        last = np.array([(fwd.piece_of(t) + 1) * M for t in fwd.nodes])
        a2 = disc.blocks["A2"].reshape(fwd.n, d, fwd.n, d)
        beyond = np.arange(fwd.n)[None, :] > last[:, None]
        assert not np.any(a2.transpose(0, 2, 1, 3)[beyond])


class TestCallbackConvention:
    @pytest.mark.parametrize("term", [
        DiscreteTerm("y", "y", 1.0, lambda t: np.array([[np.cos(t)]])),
        DistributedTerm("y", "y", -1.0, 0.0, lambda t, th: np.array([[t * th]])),
    ])
    def test_scalar_convention_is_rejected(self, term):
        # an array of k times makes these return shape (1, 1, k)
        distributed = isinstance(term, DistributedTerm)
        eq = LinearPeriodicEquation(
            kind="dde", d_x=0, d_y=1, omega=1.0, tau=1.0,
            discrete=() if distributed else (term,),
            distributed=(term,) if distributed else (),
        )
        kind = "distributed" if distributed else "discrete"
        with pytest.raises(ValueError, match=rf"{kind} term y -> y.*\(1, 1, \d+\).*elementwise"):
            assemble(eq, Mesh([0.0, 0.5, 1.0]), chebyshev_family(4))
