import dataclasses
import math
import warnings

import numpy as np
import pytest
from oracles import orbit_guess_per_call
from pwfloquet import model
from scipy.integrate import quad

from pwfloquet.mesh import Mesh
from pwfloquet.model import (
    ORBIT_STEP,
    DiscreteTerm,
    DistributedTerm,
    LinearPeriodicEquation,
    MissingDerivativesError,
    NonlinearProblem,
    PiecewiseSolution,
    builtin,
    coupled_view_of_plant,
    data_path,
    integrate_orbit_guess,
    linearize,
    plant_v0,
    read_solution,
    sample_solution,
    write_solution,
)

RNG = np.random.default_rng(42)


class TestQuadraticRe:
    def test_closed_form_constants(self):
        b = builtin("quadratic-re", gamma=4.0)
        assert b.exact.omega == 4.0
        mean = b.exact(0.0)[0]
        assert mean == pytest.approx(0.69635, abs=5e-6)
        amp = b.exact(1.0)[0] - mean
        assert amp == pytest.approx(0.27335, abs=5e-6)

    def test_value_at_one(self):
        b = builtin("quadratic-re", gamma=4.0)
        expect = 0.5 + np.pi / 16 + np.sqrt(
            0.5 - 0.25 - (np.pi / 32) * (1 + np.pi / 4)
        )
        assert b.exact(1.0)[0] == pytest.approx(expect, abs=1e-14)

    def test_small_gamma_rejected(self):
        with pytest.raises(ValueError):
            builtin("quadratic-re", gamma=2.0)

    def test_exact_solution_satisfies_equation(self):
        # residual of the nonlinear renewal equation via adaptive quadrature
        gamma = 4.0
        b = builtin("quadratic-re", gamma=gamma)
        x = lambda t: b.exact(t)[0]
        for t in RNG.uniform(0.0, 8.0, size=100):
            integral, _ = quad(
                lambda th: x(t + th) * (1 - x(t + th)), -3.0, -1.0,
                epsabs=1e-12, epsrel=1e-12,
            )
            assert abs(x(t) - 0.5 * gamma * integral) <= 1e-8

    def test_linearized_kernel(self):
        b = builtin("quadratic-re", gamma=4.0)
        eq = linearize(b.problem, b.exact)
        assert eq.kind == "re" and eq.d_x == 1 and eq.d_y == 0
        (term,) = eq.distributed
        assert (term.lower, term.upper) == (-3.0, -1.0)
        t, th = 0.3, -1.7
        expect = 2.0 * (1.0 - 2.0 * b.exact(t + th)[0])
        assert term.kernel(t, th)[0, 0] == pytest.approx(expect, abs=1e-14)


class TestTent:
    def test_coefficient_values(self):
        t = builtin("tent")
        coeff = t.linear.discrete[0].coeff
        assert coeff(0.0)[0, 0] == 0.0
        assert coeff(1.0)[0, 0] == 1.0
        assert coeff(0.25)[0, 0] == pytest.approx(0.25)
        assert coeff(1.75)[0, 0] == pytest.approx(0.25)

    def test_structure(self):
        t = builtin("tent")
        assert t.linear.omega == 2.0 and t.linear.tau == 1.0
        assert t.linear.breakpoints == (0.0, 1.0)


class TestPlant:
    def test_v0_root(self):
        v0 = plant_v0(0.7, 0.8)
        assert v0 == pytest.approx(-1.1994, abs=1e-4)
        assert abs(v0 - v0**3 / 3 - (v0 + 0.7) / 0.8) <= 1e-12

    def test_linearized_coefficients(self):
        b = builtin("plant")
        sol = lambda t: np.array([0.5 * np.sin(t), 0.2 * np.cos(t)])
        eq = linearize(b.problem, (sol, 50.0))
        current, delayed = eq.discrete
        t = 3.3
        vbar = sol(t)[0]
        expect = np.array([[1 - vbar**2, -1.0], [0.08, -0.08 * 0.8]])
        assert np.allclose(current.coeff(t), expect, atol=1e-14)
        assert np.allclose(delayed.coeff(t), [[-2.0, 0.0], [0.0, 0.0]])
        assert delayed.delay == 25.0


class TestPlantCoupled:
    def test_term_structure(self):
        b = builtin("plant-coupled")
        sol = lambda t: np.array([0.1 * np.cos(t), -1.0 + 0.3 * np.sin(t)])
        eq = linearize(b.problem, (sol, 50.0))
        assert eq.kind == "coupled" and eq.d_x == 1 and eq.d_y == 1
        targets = sorted((t.target, t.source, t.delay) for t in eq.discrete)
        assert ("x", "x", 25.0) in targets  # the neutral term
        kinds = sorted((t.target, t.source) for t in eq.distributed)
        assert kinds == [("x", "x"), ("x", "y")]

    def test_coupled_view_reorders(self):
        mesh = Mesh(np.linspace(0.0, 1.0, 5))
        f = lambda t: np.stack([np.sin(t), np.cos(t)], axis=-1)
        sol = sample_solution(f, 2.0, mesh, 3)
        view = coupled_view_of_plant(sol)
        assert np.array_equal(view.values[..., 0], sol.values[..., 1])
        assert np.array_equal(view.values[..., 1], sol.values[..., 0])


class TestLinearizationConsistency:
    """Coefficient callbacks against central finite differences of the rhs."""

    def directional_derivative(self, problem, ubar, phi, t, eps=1e-6):
        def shifted(sign):
            def u(theta):
                th = np.asarray(theta, dtype=float)
                return ubar(t + th) + sign * eps * phi(th)
            return u

        g_plus = np.asarray(problem.rhs(shifted(+1)), dtype=float)
        g_minus = np.asarray(problem.rhs(shifted(-1)), dtype=float)
        return (g_plus - g_minus) / (2 * eps)

    def linear_action(self, eq, phi, t):
        out = np.zeros(eq.d)
        for term in eq.discrete:
            block = slice(eq.block_offset(term.target),
                          eq.block_offset(term.target) + eq.block_dim(term.target))
            src = slice(eq.block_offset(term.source),
                        eq.block_offset(term.source) + eq.block_dim(term.source))
            out[block] += np.atleast_2d(term.coeff(t)) @ phi(-term.delay)[src]
        for term in eq.distributed:
            block = slice(eq.block_offset(term.target),
                          eq.block_offset(term.target) + eq.block_dim(term.target))
            src = slice(eq.block_offset(term.source),
                        eq.block_offset(term.source) + eq.block_dim(term.source))
            for i in range(eq.block_dim(term.target)):
                row = 0.0
                for j_local, j in enumerate(range(src.start, src.stop)):
                    val, _ = quad(
                        lambda th: np.atleast_2d(term.kernel(t, th))[i, j_local]
                        * phi(th)[j],
                        term.lower, term.upper, epsabs=1e-11, epsrel=1e-11, limit=200,
                    )
                    row += val
                out[block.start + i] += row
        return out

    @pytest.mark.parametrize("name,omega", [
        ("logistic", 4.02),
        ("quadratic-re", 4.0),
        ("plant", 50.7),
        ("plant-coupled", 50.7),
    ])
    def test_builtin(self, name, omega):
        b = builtin(name)
        problem = b.problem
        d = problem.d
        freq = 2 * np.pi / omega
        ubar = lambda t: np.stack(
            [0.8 + 0.2 * np.sin(freq * np.asarray(t) + c) for c in range(d)], axis=-1
        )
        phi = lambda th: np.stack(
            [np.cos((c + 1) * np.asarray(th) / 3.0) for c in range(d)], axis=-1
        )
        eq = linearize(problem, (lambda t: ubar(t), omega))
        for t in [0.3, 1.9]:
            fd = self.directional_derivative(problem, ubar, phi, t)
            lin = self.linear_action(eq, phi, t)
            assert np.allclose(fd, lin, rtol=1e-4, atol=1e-6)


class TestPeriodicityOfCoefficients:
    def test_linearized_coefficients_are_periodic(self):
        b = builtin("logistic", r=1.6)
        eq = linearize(b.problem, b := (lambda t: np.atleast_1d(1 + 0.3 * np.sin(2 * np.pi * t / 4.02)), 4.02))
        for term in eq.discrete:
            for t in RNG.uniform(0, 4.02, size=20):
                assert np.abs(term.coeff(t) - term.coeff(t + eq.omega)).max() <= 1e-10


class TestEvalSolution:
    def make(self):
        f = lambda t: np.stack([np.sin(2 * np.pi * t / 3.0)], axis=-1)
        return sample_solution(f, 3.0, Mesh(np.linspace(0, 1, 13)), 4), f

    def test_periodic_wrap(self):
        sol, _ = self.make()
        assert np.array_equal(sol(3.0), sol(0.0))
        for t in RNG.uniform(0, 3, size=25):
            for k in (-2, 1, 5):
                got, base = sol(t + 3.0 * k)[0], sol(t)[0]
                assert got == pytest.approx(base, rel=1e-12, abs=1e-12)

    def test_constant(self):
        sol = sample_solution(lambda t: np.full_like(t, 2.5), 1.0, Mesh([0.0, 1.0]), 2)
        for t in [-4.4, 0.0, 0.7, 12.0]:
            assert sol(t)[0] == pytest.approx(2.5, abs=1e-14)

    def test_exact_value_quadratic_re(self):
        b = builtin("quadratic-re", gamma=4.0)
        expect = 0.5 + np.pi / 16 + 0.2733476635931033
        assert b.exact(1.0)[0] == pytest.approx(expect, abs=1e-10)

    def test_derivative_exact_on_polynomials(self):
        poly = np.polynomial.Polynomial([0.2, -1.0, 0.4, 0.1])
        sol = sample_solution(lambda t: np.atleast_1d(poly(t)), 2.0,
                              Mesh(np.linspace(0, 1, 5)), 4)
        ds = sol.derivative()
        for t in [0.11, 0.5, 1.77]:
            assert ds(t)[0] == pytest.approx(poly.deriv()(t), abs=1e-12)

    def test_derivative_of_sampled_sine(self):
        sol, f = self.make()
        ds = sol.derivative()
        for t in [0.21, 1.3, 2.9]:
            expect = (2 * np.pi / 3) * np.cos(2 * np.pi * t / 3)
            # limited by the degree-4 representation, not the operator
            assert ds(t)[0] == pytest.approx(expect, abs=2e-3)

    def test_sampled_in_one_call(self):
        calls = []

        def f(t):
            calls.append(np.shape(t))
            return np.stack([np.sin(t), np.cos(t)], axis=-1)

        sol = sample_solution(f, 2.0, Mesh(np.linspace(0, 1, 5)), 3)
        assert calls == [(13,)]
        assert np.array_equal(sol.values[1, 0], [np.sin(0.5), np.cos(0.5)])

    def test_scalar_convention_is_rejected(self):
        f = lambda t: np.array([np.sin(t), np.cos(t)])
        with pytest.raises(ValueError, match=r"shape \(2, 13\) for 13 nodes, "
                                             r"expected \(13,\) or \(13, d\)"):
            sample_solution(f, 2.0, Mesh(np.linspace(0, 1, 5)), 3)

    def test_validate(self):
        sol, _ = self.make()
        sol.validate()
        bad = sol.values.copy()
        bad[1, 0, 0] += 0.1
        with pytest.raises(ValueError):
            type(sol)(sol.breakpoints, bad).validate()


class TestSolutionIO:
    def test_bit_exact_round_trip(self, tmp_path):
        f = lambda t: np.stack([np.exp(np.sin(t)), np.cos(t) / 3.0], axis=-1)
        sol = sample_solution(f, 2.7182818, Mesh(np.linspace(0, 1, 7)), 5)
        p = tmp_path / "s.sol"
        write_solution(sol, p)
        back = read_solution(p)
        assert np.array_equal(back.breakpoints, sol.breakpoints)
        assert np.array_equal(back.values, sol.values)
        assert back.node_kind == sol.node_kind
        # and a second write is byte-identical
        p2 = tmp_path / "s2.sol"
        write_solution(back, p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_pieces_that_do_not_join_are_refused(self, tmp_path):
        sol = read_solution(data_path("plant_solution.sol"))
        values = sol.values.copy()
        values[3, -1, 0] += 0.5
        p = tmp_path / "jump.sol"
        write_solution(type(sol)(sol.breakpoints, values), p)
        with pytest.raises(ValueError, match=r"discontinuous across breakpoint 4 "
                                             r"\(t = 0\.8620513269144764\): jump 0\.5"):
            read_solution(p)

    def test_a_periodicity_gap_is_read(self, tmp_path):
        # a solve to tol 1e-6 may end up to tol away from where it started
        sol = read_solution(data_path("plant_solution.sol"))
        values = sol.values.copy()
        values[-1, -1, 0] += 1e-6
        p = tmp_path / "gap.sol"
        write_solution(type(sol)(sol.breakpoints, values), p)
        assert np.array_equal(read_solution(p).values, values)
        with pytest.raises(ValueError, match="not periodic"):
            read_solution(p).validate()

    def test_missing_header_key_is_named(self, tmp_path):
        text = data_path("plant_solution.sol").read_text()
        p = tmp_path / "s.sol"
        p.write_text(text.replace("pieces 30\n", ""))
        with pytest.raises(ValueError, match=r"no header line for \['pieces'\]"):
            read_solution(p)

    @pytest.mark.parametrize("keep, missing", [
        (12, "breakpoint 4"), (8, "breakpoint 0"), (39, "the values section"),
        (-1, "value row 5 of piece 29")])
    def test_early_end_is_named(self, tmp_path, keep, missing):
        lines = data_path("plant_solution.sol").read_text().splitlines(keepends=True)
        p = tmp_path / "s.sol"
        p.write_text("".join(lines[:keep]))
        with pytest.raises(ValueError, match=f"ends before {missing}"):
            read_solution(p)


class TestValidationErrors:
    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            builtin("lorenz")

    def test_missing_derivatives(self):
        prob = NonlinearProblem(name="raw", d_x=0, d_y=1, tau=1.0,
                                rhs=lambda u: -u(-1.0))
        with pytest.raises(MissingDerivativesError):
            linearize(prob, (lambda t: np.array([0.0]), 1.0))

    def test_bad_delay(self):
        with pytest.raises(ValueError):
            LinearPeriodicEquation(
                d_x=0, d_y=1, omega=1.0, tau=1.0,
                discrete=(DiscreteTerm("y", "y", 2.0, np.eye(1)),),
            )

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            LinearPeriodicEquation(
                d_x=1, d_y=0, omega=1.0, tau=1.0,
                distributed=(DistributedTerm("x", "x", -0.5, -0.9, np.eye(1)),),
            )

    @pytest.mark.parametrize("tau", [0.0, -5.0, float("nan")])
    @pytest.mark.parametrize("make", [
        lambda tau: NonlinearProblem(name="raw", d_x=0, d_y=1, tau=tau),
        lambda tau: LinearPeriodicEquation(d_x=0, d_y=1, omega=1.0, tau=tau),
        lambda tau: builtin("plant", tau=tau),
        lambda tau: builtin("plant-coupled", tau=tau),
    ], ids=["nonlinear", "linear", "plant", "plant-coupled"])
    def test_nonpositive_delay(self, make, tau):
        with pytest.raises(ValueError, match="tau must be positive"):
            make(tau)

    @pytest.mark.parametrize("d_x, d_y", [(0, 0), (-1, 2), (1, -1)])
    @pytest.mark.parametrize("cls", [NonlinearProblem, LinearPeriodicEquation])
    def test_bad_block_dimensions(self, cls, d_x, d_y):
        extra = {"name": "raw"} if cls is NonlinearProblem else {"omega": 1.0}
        with pytest.raises(ValueError, match="state dimensions"):
            cls(d_x=d_x, d_y=d_y, tau=1.0, **extra)

    @pytest.mark.parametrize("name", ["plant", "plant-coupled"])
    def test_zero_b_is_named(self, name):
        with pytest.raises(ValueError, match="b = 0"):
            builtin(name, b=0.0)

    @pytest.mark.parametrize("name", ["plant", "plant-coupled"])
    def test_negative_b_is_refused(self, name):
        with pytest.raises(ValueError, match=r"b = -0\.5 is outside 0 < b <= 1"):
            builtin(name, b=-0.5)

    def test_b_above_one_keeps_its_root(self):
        # outside the documented range, but [-10, 10] brackets a root
        v = plant_v0(0.7, 1.5)
        assert abs(v - v**3 / 3.0 - (v + 0.7) / 1.5) <= 1e-13

    def test_zero_gamma_is_too_small(self):
        with pytest.raises(ValueError, match="gamma=0.0 is too small"):
            builtin("quadratic-re", gamma=0.0)

    def test_solution_breakpoints_start_at_zero(self):
        # evaluation reduces times modulo the period onto [0, omega]
        with pytest.raises(ValueError, match="must start at 0"):
            PiecewiseSolution(np.array([0.5, 1.0, 2.0]), np.zeros((2, 3, 1)))


def _delayed_vdp(tau, thetas=None):
    """Van der Pol oscillator ``x' = 3 y``, ``y' = 3 ((1 - x^2) y - x_d)``.

    ``x_d`` is ``x(t - tau)``, or with ``thetas`` the mean of ``x`` over
    ``t + thetas`` queried as one array.
    """
    def rhs(u):
        s0 = u(0.0)
        x, y = s0[..., 0], s0[..., 1]
        xd = u(-tau)[..., 0] if thetas is None else u(thetas)[..., 0].mean(axis=-1)
        return 3.0 * np.stack([y, (1.0 - x * x) * y - xd], axis=-1)

    return NonlinearProblem(name="delayed-vdp", d_x=0, d_y=2,
                            tau=tau, rhs=rhs)


def _counting(problem):
    calls = []

    def rhs(u):
        calls.append(None)
        return problem.rhs(u)

    return dataclasses.replace(problem, rhs=rhs), calls


class TestOrbitGuess:
    S = np.linspace(0.0, 1.0, 3001)

    @pytest.mark.parametrize("problem, y0, t_settle", [
        (builtin("logistic", r=1.6).problem, [1.15], 40.0),
        # delay shorter than one step: every delayed query falls back
        (_delayed_vdp(0.004), [0.5, 0.0], 20.0),
        (_delayed_vdp(0.4321), [0.5, 0.0], 20.0),
        (_delayed_vdp(0.5, np.linspace(-0.5, -0.495, 3)), [0.5, 0.0], 20.0),
        # an array containing 0 sees accepted steps, never the stage value
        (_delayed_vdp(0.3, np.linspace(-0.3, 0.0, 4)), [0.5, 0.0], 20.0),
    ], ids=["logistic", "short-delay", "non-multiple-delay", "array-thetas",
            "array-with-zero"])
    def test_bit_identical_to_per_call_evaluator(self, problem, y0, t_settle):
        counted, calls = _counting(problem)
        profile, period = integrate_orbit_guess(counted, np.array(y0), t_settle)
        assert len(calls) == 4 * math.ceil(t_settle / ORBIT_STEP)
        ref_profile, ref_period = orbit_guess_per_call(problem, np.array(y0), t_settle,
                                                       step=ORBIT_STEP)
        assert period == ref_period
        assert np.array_equal(profile(self.S), ref_profile(self.S))

    def test_short_thetas_are_served_from_blocks(self, monkeypatch):
        # thetas up to -0.2 = -2 steps, one array: a block of 1 step each,
        # where a per-call lookup interpolates at every one of 800 stages
        calls = []
        interp = model._StepHistory.interp

        def counted(self, *args):
            calls.append(None)
            return interp(self, *args)

        monkeypatch.setattr(model._StepHistory, "interp", counted)
        problem = _delayed_vdp(0.8, np.linspace(-0.8, -0.2, 7))
        profile, period = integrate_orbit_guess(problem, np.array([0.5, 0.0]), 20.0)
        assert len(calls) <= 200
        ref_profile, ref_period = orbit_guess_per_call(problem, np.array([0.5, 0.0]), 20.0,
                                                       step=ORBIT_STEP)
        assert period == ref_period
        assert np.array_equal(profile(self.S), ref_profile(self.S))

    def test_state_dependent_theta(self, monkeypatch):
        # a new theta at nearly every stage: each gets a memo entry, and the
        # memo is cleared every K steps
        tau, sizes = 0.5, []
        block = max(1, math.floor(tau / ORBIT_STEP) - 1)
        times, interp = [], model._StepHistory.interp

        def counted(self, t_abs, n):
            times.append(np.size(t_abs))
            return interp(self, t_abs, n)

        def rhs(u):
            s0 = u(0.0)
            x, y = s0[..., 0], s0[..., 1]
            xd = u(-tau * (0.75 + 0.25 * np.tanh(x)))[..., 0]
            sizes.append(len(getattr(u, "memo", ())))
            return 3.0 * np.stack([y, (1.0 - x * x) * y - xd], axis=-1)

        monkeypatch.setattr(model._StepHistory, "interp", counted)
        problem = NonlinearProblem(name="state-delay", d_x=0, d_y=2, tau=tau, rhs=rhs)
        profile, period = integrate_orbit_guess(problem, np.array([0.5, 0.0]), 20.0)
        assert max(sizes) <= 4 * block
        # a theta seen once is interpolated for its own step's four stages
        assert sum(times) <= 4 * len(sizes)
        ref_profile, ref_period = orbit_guess_per_call(problem, np.array([0.5, 0.0]), 20.0,
                                                       step=ORBIT_STEP)
        assert period == ref_period
        assert np.array_equal(profile(self.S), ref_profile(self.S))

    def test_constant_theta_costs_one_extra_step(self, monkeypatch):
        # logistic reads theta = -tau at every stage: a full block of steps per
        # memo, and one one-step block when it is first seen
        calls, interp = [], model._StepHistory.interp

        def counted(self, *args):
            calls.append(None)
            return interp(self, *args)

        monkeypatch.setattr(model._StepHistory, "interp", counted)
        problem = builtin("logistic", r=1.6).problem
        integrate_orbit_guess(problem, np.array([1.15]), t_settle=100.0)
        block = max(1, math.floor(problem.tau / ORBIT_STEP) - 1)
        assert len(calls) <= math.ceil(math.ceil(100.0 / ORBIT_STEP) / block) + 1

    def test_dense_output_accuracy(self, monkeypatch):
        # y' = -(pi/2) y(t - 1) has period 4; with fourth-order history,
        # halving the step cuts the period error more than tenfold, where
        # linear history cuts it about fourfold
        problem = NonlinearProblem(name="hopf", d_x=0, d_y=1, tau=1.0,
                                   rhs=lambda u: -(np.pi / 2) * u(-1.0))
        errors = []
        for step in (ORBIT_STEP, ORBIT_STEP / 2):
            monkeypatch.setattr(model, "ORBIT_STEP", step)
            errors.append(abs(integrate_orbit_guess(problem, [1.0], t_settle=60.0)[1] - 4.0))
        assert errors[0] < 1e-5
        assert errors[1] <= errors[0] / 10

    def test_list_y0_accepted(self):
        problem = builtin("logistic", r=1.6).problem
        profile, period = integrate_orbit_guess(problem, [1.15], t_settle=40.0)
        ref_profile, ref_period = integrate_orbit_guess(
            problem, np.array([1.15]), t_settle=40.0)
        assert period == ref_period
        assert np.array_equal(profile(self.S), ref_profile(self.S))

    def test_y0_of_wrong_shape(self):
        with pytest.raises(ValueError, match=r"y0 has shape \(2,\), expected \(1,\)"):
            integrate_orbit_guess(builtin("logistic").problem, [1.15, 1.0],
                                  t_settle=40.0)

    def test_blow_up_is_named(self):
        # y' = y^2 from y = 1 reaches infinity at t = 1; the overflow stays
        # silent and the first time with a non-finite state is named
        problem = NonlinearProblem(name="square", d_x=0, d_y=1, tau=1.0,
                                   rhs=lambda u: u(0.0) ** 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeError,
                               match=r"orbit guess blew up: the state is not finite from t = 1\.3$"):
                integrate_orbit_guess(problem, [1.0], t_settle=40.0)

    def test_rhs_result_of_wrong_shape(self):
        problem = NonlinearProblem(name="wide", d_x=0, d_y=1, tau=1.0,
                                   rhs=lambda u: np.zeros(2))
        with pytest.raises(ValueError, match=r"returned shape \(2,\), expected \(1,\)"):
            integrate_orbit_guess(problem, [1.0], t_settle=40.0)

    def test_below_hopf_point_has_no_period(self):
        with pytest.raises(RuntimeError, match="not enough oscillations"):
            builtin("logistic", r=1.0).make_guess()

    def test_decaying_oscillation_has_no_period(self):
        # r = 1.2 is below the Hopf point r = pi/2: the tail still crosses
        # its mean often enough, but the oscillation decays to the equilibrium
        with pytest.raises(RuntimeError, match="oscillation decays"):
            builtin("logistic", r=1.2).make_guess()
