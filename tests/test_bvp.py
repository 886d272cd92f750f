import dataclasses

import numpy as np
import pytest

from pwfloquet.bvp import (
    BvpProblem,
    ConvergenceError,
    SingularJacobianError,
    residual,
    solve_periodic,
)
from pwfloquet.mesh import Mesh, read_mesh
from pwfloquet.model import (
    DiscreteTerm,
    MissingDerivativesError,
    NonlinearProblem,
    builtin,
    coupled_view_of_plant,
    data_path,
    read_solution,
    write_solution,
)

from oracles import central_jacobian, dense_jacobian, fd_jacobian


def quadratic_re_bvp(L=20, m=6):
    b = builtin("quadratic-re", gamma=4.0)
    return b, BvpProblem(
        problem=b.problem,
        mesh=Mesh(np.linspace(0, 1, L + 1)),
        degree=m,
        period_guess=4.0,
        guess_profile=lambda s: b.exact(4.0 * np.asarray(s)),
    )


def logistic_bvp(r, L, m, guess=None):
    b = builtin("logistic", r=r)
    prof, period = guess if guess is not None else b.make_guess()
    return b, BvpProblem(
        problem=b.problem,
        mesh=Mesh(np.linspace(0, 1, L + 1)),
        degree=m,
        period_guess=period,
        guess_profile=prof,
    )


class TestNewtonSettings:
    @pytest.mark.parametrize("tol, max_iters", [
        (float("nan"), 50), (float("inf"), 50), (0.0, 50), (-1e-10, 50), (1e-10, -1)])
    def test_rejected_before_solving(self, tol, max_iters):
        _, bvp = quadratic_re_bvp(L=4, m=2)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            solve_periodic(bvp, tol=tol, max_iters=max_iters)

    def test_zero_iterations_allowed_at_a_root(self):
        _, bvp = quadratic_re_bvp()
        res = solve_periodic(bvp, tol=1e-6, max_iters=0)
        assert res.iterations == 0 and res.residual_norm <= 1e-6


class TestQuadraticReSolve:
    def test_exact_seed_converges_immediately(self):
        _, bvp = quadratic_re_bvp()
        res = solve_periodic(bvp)
        assert res.iterations <= 2
        assert abs(res.period - 4.0) <= 1e-8

    def test_solution_matches_closed_form(self):
        b, bvp = quadratic_re_bvp()
        res = solve_periodic(bvp)
        ts = np.linspace(0, 4, 200)
        err = np.abs(res.solution(ts) - b.exact(ts)).max()
        assert err <= 1e-8


class TestResidual:
    def test_exact_solution_residual_small(self):
        b, bvp = quadratic_re_bvp(L=24, m=6)
        state = _sample_state(bvp)
        r = residual(bvp, state, 4.0)
        assert np.abs(r).max() <= 1e-8

    def test_matches_directional_finite_difference(self):
        _, bvp = quadratic_re_bvp(L=6, m=3)
        rng = np.random.default_rng(5)
        state = _sample_state(bvp) + 0.01 * rng.normal(size=_sample_state(bvp).size)
        w = 3.9
        direction = rng.normal(size=state.size)
        dw = 0.013
        eps = 1e-6
        rp = residual(bvp, state + eps * direction, w + eps * dw)
        rm = residual(bvp, state - eps * direction, w - eps * dw)
        fd = (rp - rm) / (2 * eps)
        # second-order difference of the same map, twice the step
        rp2 = residual(bvp, state + 2 * eps * direction, w + 2 * eps * dw)
        rm2 = residual(bvp, state - 2 * eps * direction, w - 2 * eps * dw)
        fd2 = (rp2 - rm2) / (4 * eps)
        assert np.abs(fd - fd2).max() <= 1e-5

    def test_equilibrium_satisfies_collocation_rows(self):
        b = builtin("logistic", r=1.6)
        bvp = BvpProblem(
            problem=b.problem, mesh=Mesh(np.linspace(0, 1, 9)), degree=3,
            period_guess=4.0,
            guess_profile=lambda s: np.atleast_1d(1.0 + 0.2 * np.sin(2 * np.pi * np.asarray(s))),
        )
        n_nodes = 8 * 3 + 1
        state = np.ones(n_nodes)
        r = residual(bvp, state, 4.0)
        colloc = r[: 8 * 3]
        # rhs vanishes identically at the equilibrium; what is left is the
        # roundoff of differentiating the constant interpolant
        assert np.abs(colloc).max() <= 1e-13
        periodicity = r[8 * 3]
        assert periodicity == 0.0


def _sample_state(bvp):
    from pwfloquet.bvp import _System, _initial_state
    sys = _System(bvp)
    return _initial_state(sys, bvp)[:-1]


class TestSingularCases:
    def test_zero_rhs_is_singular(self):
        prob = NonlinearProblem(
            name="null", d_x=0, d_y=1, tau=1.0,
            rhs=lambda u: 0.0 * u(0.0),
            linearize_terms=lambda ev, omega: (
                (DiscreteTerm("y", "y", 0.0, np.zeros((1, 1))),), ()),
        )
        bvp = BvpProblem(
            problem=prob, mesh=Mesh(np.linspace(0, 1, 5)), degree=2,
            period_guess=2.0,
            guess_profile=lambda s: np.atleast_1d(1.0 + 0.1 * np.sin(2 * np.pi * np.asarray(s))),
        )
        with pytest.raises(SingularJacobianError):
            solve_periodic(bvp)

    def test_max_iters_exceeded(self):
        b = builtin("logistic", r=1.6)
        bvp = BvpProblem(
            problem=b.problem, mesh=Mesh(np.linspace(0, 1, 9)), degree=3,
            period_guess=7.0,
            guess_profile=lambda s: np.atleast_1d(1.0 + 2.5 * np.sin(2 * np.pi * np.asarray(s))),
        )
        with pytest.raises((ConvergenceError, SingularJacobianError)):
            solve_periodic(bvp, max_iters=2)


@pytest.fixture(scope="module")
def guess():
    return builtin("logistic", r=1.6).make_guess()


class TestLogisticSolve:
    def test_converges(self, guess):
        _, bvp = logistic_bvp(1.6, 40, 4, guess)
        res = solve_periodic(bvp)
        assert res.residual_norm <= 1e-10
        assert res.period == pytest.approx(4.0204, abs=2e-3)

    def test_fem_convergence_order(self, guess):
        # profile distance between L and 2L solutions decays with order >= m - 0.5;
        # a converged solution on the coarsest (nested) mesh serves as the
        # shared phase reference so the phase functional is quadrature-exact
        # and identical across runs
        _, pre_bvp = logistic_bvp(1.6, 10, 4, guess)
        reference = solve_periodic(pre_bvp).solution
        for m in (2, 3, 4):
            sols = {}
            for L in (10, 20, 40):
                _, bvp = logistic_bvp(1.6, L, m, guess)
                bvp.phase_reference = reference
                sols[L] = solve_periodic(bvp)
            ts = np.linspace(0, 1, 700, endpoint=False)
            def dist(a, b):
                pa = a.solution(ts * a.period)
                pb = b.solution(ts * b.period)
                return max(np.abs(pa - pb).max(), abs(a.period - b.period))
            d1 = dist(sols[10], sols[20])
            d2 = dist(sols[20], sols[40])
            order = np.log2(d1 / d2)
            assert order >= m - 0.5, f"m={m}: observed order {order:.2f}"

    def test_phase_condition_pins_shift(self, guess):
        # phase-shifted guesses converge to the same orbit up to alignment
        prof, period = guess
        _, bvp1 = logistic_bvp(1.6, 40, 6, (prof, period))
        shifted = lambda s: prof(np.mod(np.asarray(s) + 0.23, 1.0))
        _, bvp2 = logistic_bvp(1.6, 40, 6, (shifted, period))
        r1, r2 = solve_periodic(bvp1), solve_periodic(bvp2)
        assert abs(r1.period - r2.period) <= 1e-9
        # align by scanning the relative shift
        ts = np.linspace(0, 1, 1200, endpoint=False)
        p1 = r1.solution(ts * r1.period)[:, 0]

        def misfit(delta):
            p2 = r2.solution((ts + delta) % 1.0 * r2.period)[:, 0]
            return np.abs(p1 - p2).max()

        deltas = np.linspace(0, 1, 2001)
        coarse = min(deltas, key=misfit)
        from scipy.optimize import minimize_scalar
        out = minimize_scalar(misfit, bracket=(coarse - 1e-3, coarse, coarse + 1e-3),
                              options={"xtol": 1e-12})
        assert out.fun <= 1e-8

    # periods Newton reaches from a fine guess (RK4 step 0.01 over 250 time
    # units); the coarse, short guess must land in the same basin
    @pytest.mark.parametrize("r, period", [
        (1.6, 4.0204004086915015),
        (2.3, 4.894139109284195),
    ])
    def test_coarse_seed_reaches_the_fine_seed_orbit(self, r, period):
        _, bvp = logistic_bvp(r, 40, 4)
        res = solve_periodic(bvp)
        assert res.iterations <= 8
        assert res.period == pytest.approx(period, rel=1e-9)


class TestAlternativeSettings:
    def test_chebyshev_collocation_nodes(self):
        b, bvp = quadratic_re_bvp(L=16, m=5)
        bvp.colloc_kind = "chebyshev-zeros"
        res = solve_periodic(bvp)
        assert abs(res.period - 4.0) <= 1e-7

    def test_fixed_component_phase(self, guess):
        _, bvp = logistic_bvp(1.6, 24, 4, guess)
        bvp.phase = "fixed"
        res = solve_periodic(bvp)
        assert res.period == pytest.approx(4.0204, abs=2e-3)
        # the fixed-component condition pins p_0(0) to the guess value
        assert res.solution(0.0)[0] == pytest.approx(guess[0](0.0)[0], abs=1e-9)


class TestRoundTripResidual:
    def test_serialized_solution_reproduces_residual(self, tmp_path):
        b, bvp = quadratic_re_bvp(L=12, m=4)
        res = solve_periodic(bvp)
        p = tmp_path / "sol.sol"
        write_solution(res.solution, p)
        back = read_solution(p)
        state = back.values.copy()
        # rebuild the flat nodal state from the per-piece values
        flat = np.concatenate([state[0]] + [state[i][1:] for i in range(1, back.L)])
        r1 = residual(bvp, flat.ravel(), res.period)
        state2 = res.solution.values
        flat2 = np.concatenate([state2[0]] + [state2[i][1:] for i in range(1, res.solution.L)])
        r2 = residual(bvp, flat2.ravel(), res.period)
        assert np.array_equal(r1, r2)
        assert np.abs(r1).max() <= max(res.residual_norm * 1.0001, 1e-12)


def plant_bvp(name="plant", degree=5):
    """The shipped plant orbit on its adapted mesh (coupled layout for
    plant-coupled)."""
    orbit = read_solution(data_path("plant_solution.sol"))
    if name == "plant-coupled":
        orbit = coupled_view_of_plant(orbit)
    return BvpProblem(
        problem=builtin(name).problem, mesh=read_mesh(data_path("plant_adapted.mesh")),
        degree=degree, period_guess=orbit.omega, guess_profile=orbit,
    )


def sine_logistic_bvp():
    return BvpProblem(
        problem=builtin("logistic", r=1.6).problem, mesh=Mesh(np.linspace(0, 1, 13)),
        degree=4, period_guess=4.0,
        guess_profile=lambda s: 1.0 + 0.5 * np.sin(2 * np.pi * np.asarray(s)),
    )


def _relative_errors(jac, ref):
    """Largest entry of ``jac - ref`` over the largest entry of ``ref``, for
    the nodal columns and for the period column separately."""
    return [float(np.abs(jac[:, c] - ref[:, c]).max() / np.abs(ref[:, c]).max())
            for c in (np.s_[:-1], np.s_[-1:])]


class TestAnalyticJacobian:
    @pytest.mark.parametrize("make", [sine_logistic_bvp, plant_bvp],
                             ids=["logistic", "plant"])
    def test_matches_finite_differences(self, make):
        from pwfloquet.bvp import _System, _initial_state
        bvp = make()
        sys = _System(bvp)
        state = _initial_state(sys, bvp)
        rng = np.random.default_rng(3)
        state[:-1] += 1e-3 * rng.normal(size=state.size - 1)
        state[-1] *= 1.003
        r, g = sys.evaluate(state)
        assert np.abs(r).max() > 1e-4  # far from converged
        jac = sys.jacobian(state, g)
        # steps relative to each unknown; at FD_STEP the forward difference
        # of plant's period column (period near 51) has a truncation error of
        # 6e-6 itself, ten times less at 1e-8
        assert max(_relative_errors(jac, fd_jacobian(sys, state, r, step=1e-8))) <= 1e-6
        assert max(_relative_errors(jac, central_jacobian(sys, state, step=3e-7))) <= 1e-8

    @pytest.mark.parametrize("make", [
        sine_logistic_bvp, plant_bvp,
        # renewal rows, a distributed term, windows left empty by the shifts
        lambda: quadratic_re_bvp(L=12, m=4)[1],
        # the coupled layout, windows that wrap past s = 1
        lambda: plant_bvp("plant-coupled"),
    ], ids=["logistic", "plant", "quadratic-re", "plant-coupled"])
    def test_matches_the_dense_oracle(self, make):
        # also where rhs uses its own quadrature and finite differences cannot
        from pwfloquet.bvp import _System, _initial_state
        bvp = make()
        sys = _System(bvp)
        state = _initial_state(sys, bvp)
        state[:-1] += 1e-3 * np.random.default_rng(3).normal(size=state.size - 1)
        state[-1] *= 1.003
        g = sys.evaluate(state)[1]
        jac = sys.jacobian(state, g)
        assert max(_relative_errors(jac, dense_jacobian(sys, state, g))) <= 1e-13

    @pytest.mark.parametrize("L, m, period, amp", [
        (15, 4, 4.1, 0.05),
        # without the damping term of the step these two end in a
        # ConvergenceError and at a period of 4.0439
        (16, 4, 4.5, 0.15),
        (12, 2, 4.2, 0.1),
    ])
    def test_quadratic_re_singular_collocation_converges(self, L, m, period, amp):
        # renewal rows on continuous elements: the collocation Jacobian of
        # quadratic-re is singular on these meshes (a consistent system whose
        # solutions are not isolated), which the step must survive
        b = builtin("quadratic-re", gamma=4.0)
        bvp = BvpProblem(
            problem=b.problem, mesh=Mesh(np.linspace(0, 1, L + 1)), degree=m,
            period_guess=period,
            guess_profile=lambda s: b.exact(4.0 * np.asarray(s))
            + amp * np.cos(2 * np.pi * np.asarray(s))[..., None],
        )
        res = solve_periodic(bvp)
        assert res.residual_norm <= 1e-10
        assert abs(res.period - 4.0) <= 1e-9

    def test_plant_coupled_converges(self):
        res = solve_periodic(plant_bvp("plant-coupled"))
        assert res.residual_norm <= 1e-10
        assert res.period == pytest.approx(50.7326257, rel=1e-8)

    def test_problem_without_derivatives_is_rejected(self):
        b = builtin("logistic", r=1.6)
        prob = NonlinearProblem(name="bare", d_x=0, d_y=1, tau=1.0,
                                rhs=b.problem.rhs)
        bvp = sine_logistic_bvp()
        bvp.problem = prob
        with pytest.raises(MissingDerivativesError, match="bare"):
            solve_periodic(bvp)

    def test_constant_phase_reference_is_singular(self):
        bvp = sine_logistic_bvp()
        bvp.phase_reference = lambda s: np.ones(np.shape(s))
        with pytest.raises(SingularJacobianError):
            solve_periodic(bvp)


class TestInitialProfile:
    def test_profile_is_called_once_at_every_node(self):
        from pwfloquet.bvp import _System, _initial_state
        calls = []

        def profile(s):
            calls.append(np.shape(s))
            return 1.0 + 0.5 * np.sin(2 * np.pi * np.asarray(s))

        bvp = sine_logistic_bvp()
        bvp.guess_profile = profile
        bvp.phase_reference = profile
        sys = _System(bvp)
        state = _initial_state(sys, bvp)
        assert calls == [(12 * 4 + 1,)] * 2  # the phase reference, then the guess
        assert np.array_equal(state[:-1], profile(sys.side.nodes))

    def test_rhs_result_of_wrong_shape_is_named(self):
        # stacked on axis 0: (2, 150) for the 150 collocation points
        bvp = plant_bvp()
        rhs = bvp.problem.rhs
        bvp.problem = dataclasses.replace(bvp.problem, rhs=lambda u: np.moveaxis(rhs(u), -1, 0))
        with pytest.raises(ValueError, match=r"returned shape \(2, 150\), expected \(150, 2\)"):
            solve_periodic(bvp)

    def test_wrong_profile_shape_is_named(self):
        bvp = plant_bvp()
        bvp.guess_profile = lambda s: np.zeros(np.shape(s) + (3,))
        with pytest.raises(ValueError, match=r"\(151, 3\).*\(151, 2\)"):
            solve_periodic(bvp)
