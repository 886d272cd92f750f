import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy.integrate import quad

from pwfloquet.mesh import (
    CHEBYSHEV,
    UNIFORM,
    Mesh,
    build_forward_grid,
    build_history_grid,
    reference_nodes,
)
from pwfloquet.interp import (
    NodalFunction,
    bary_table,
    integral_weights,
    lagrange_matrix,
    prolong_pairs,
)
from pwfloquet.model import PiecewiseSolution, data_path, read_solution, sample_solution
from oracles import (integral_rows, kernel_quadrature, loop_differentiation_matrix,
                     prolong_eval, prolong_weights, restrict)

EPS = np.finfo(float).eps

FAM2 = reference_nodes(CHEBYSHEV, 2)
FAM3 = reference_nodes(CHEBYSHEV, 3)


def forward(mesh_pts, fam):
    return build_forward_grid(Mesh(mesh_pts), fam)


class TestBaryTable:
    @given(m=st.integers(1, 30), kind=st.sampled_from([CHEBYSHEV, UNIFORM]))
    def test_weights_alternate_in_sign(self, m, kind):
        tab = bary_table(reference_nodes(kind, m))
        signs = np.sign(tab.weights)
        assert np.all(signs[:-1] * signs[1:] == -1)

    @given(m=st.integers(1, 20))
    def test_antiderivative_consistency(self, m):
        tab = bary_table(reference_nodes(CHEBYSHEV, m))
        # the integrals up to the last Chebyshev point, 1, are the full-piece
        # quadrature weights, bit for bit
        assert np.array_equal(tab.anti_values[-1], tab.quad)
        # the basis functions sum to one, so the weights integrate to one
        assert tab.quad.sum() == pytest.approx(1.0, abs=1e-13)

    def test_rows_sum_to_one(self):
        tab = bary_table(FAM3)
        w = lagrange_matrix(tab, np.linspace(0, 1, 17))
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-13)


class TestRestrictProlong:
    def test_restrict_constant(self):
        side = forward([0.0, 1.0, 2.0], FAM2)
        v = restrict(lambda t: 1.0, side)
        assert np.array_equal(v.values[:, 0], np.ones(side.n))

    def test_restrict_identity_function(self):
        side = forward([0.0, 1.0, 2.0], reference_nodes(CHEBYSHEV, 1))
        v = restrict(lambda t: t, side)
        assert np.array_equal(v.values[:, 0], [0.0, 1.0, 2.0])

    def test_restrict_pointwise(self):
        side = forward([0.0, 0.7, 2.0], FAM3)
        f = lambda t: np.sin(np.pi * t / 2)
        v = restrict(f, side)
        assert np.array_equal(v.values[:, 0], [f(t) for t in side.nodes])

    def test_prolong_constant(self):
        side = forward([0.0, 1.0, 2.0], FAM2)
        v = restrict(lambda t: 3.0, side)
        for t in [0.0, 0.3, 1.0, 1.9, 2.0]:
            assert prolong_eval(v, t)[0] == pytest.approx(3.0, abs=1e-14)

    def test_prolong_cubic_exact(self):
        side = forward([0.0, 1.0], FAM3)
        v = restrict(lambda t: t**3, side)
        assert prolong_eval(v, 0.37)[0] == pytest.approx(0.37**3, abs=1e-15)

    def test_prolong_piecewise_kink(self):
        # |t - 1| is degree one on each piece of {0, 1, 2}
        side = forward([0.0, 1.0, 2.0], FAM2)
        v = restrict(lambda t: abs(t - 1.0), side)
        assert prolong_eval(v, 0.5)[0] == pytest.approx(0.5, abs=1e-15)

    def test_out_of_domain(self):
        side = forward([0.0, 1.0], FAM2)
        v = restrict(lambda t: t, side)
        with pytest.raises(ValueError):
            prolong_eval(v, 1.5)

    def test_restrict_prolong_identity_exact(self):
        side = forward([0.0, 0.4, 1.1, 2.0], FAM3)
        rng = np.random.default_rng(7)
        vals = rng.normal(size=(side.n, 2))
        v = NodalFunction(side, vals)
        again = restrict(lambda t: prolong_eval(v, t), side)
        assert np.array_equal(again.values, vals)

    def test_prolong_restrict_idempotent(self):
        side = forward([0.0, 0.4, 1.1, 2.0], FAM2)
        f = lambda t: np.exp(np.sin(t))
        v1 = restrict(f, side)
        v2 = restrict(lambda t: prolong_eval(v1, t), side)
        assert np.array_equal(v1.values, v2.values)


class TestProlongWeights:
    def test_unit_vector_at_node(self):
        side = forward([0.0, 1.0, 2.0], FAM2)
        w = prolong_weights(side, 1.5)  # interior node of piece 1
        expect = np.zeros(side.n)
        expect[3] = 1.0
        assert np.array_equal(w, expect)

    def test_linear_midpoint(self):
        side = forward([0.0, 1.0], reference_nodes(CHEBYSHEV, 1))
        _, w = prolong_pairs(side, 0.5)
        assert np.allclose(w, [0.5, 0.5])

    def test_quadratic_weights_hand_derived(self):
        side = forward([0.0, 1.0], FAM2)
        _, w = prolong_pairs(side, 0.25)
        assert np.allclose(w, [0.375, 0.75, -0.125], atol=1e-15)

    @given(t=st.floats(0.0, 2.0), m=st.integers(1, 12))
    @settings(max_examples=60)
    def test_weights_sum_to_one(self, t, m):
        side = forward([0.0, 0.75, 2.0], reference_nodes(CHEBYSHEV, m))
        _, w = prolong_pairs(side, t)
        assert abs(w.sum() - 1.0) <= 1e-13


class TestIntegralWeights:
    def test_normalization(self):
        side = forward([0.0, 1.0, 2.0], FAM2)
        q = integral_rows(side, 2.0)
        v = restrict(lambda t: 1.0, side)
        assert q @ v.values[:, 0] == pytest.approx(2.0, abs=1e-13 * 2.0)

    def test_linear(self):
        side = forward([0.0, 1.0, 2.0], FAM2)
        q = integral_rows(side, 2.0)
        v = restrict(lambda t: t, side)
        assert q @ v.values[:, 0] == pytest.approx(2.0, abs=1e-13)

    def test_partial_piece_quadratic(self):
        side = forward([0.0, 1.0, 2.0], FAM2)
        q = integral_rows(side, 1.5)
        v = restrict(lambda t: t**2, side)
        assert q @ v.values[:, 0] == pytest.approx(1.125, abs=1e-13)

    def test_outside_rejected(self):
        side = forward([0.0, 2.0], FAM2)
        with pytest.raises(ValueError):
            integral_weights(side, 2.5)
        with pytest.raises(ValueError):
            integral_weights(side, -0.5)

    @given(
        data=st.data(),
        m=st.integers(1, 6),
        b=st.floats(0.0, 3.0),
    )
    @settings(max_examples=60)
    def test_exact_on_piecewise_polynomials(self, data, m, b):
        side = forward([0.0, 0.8, 1.7, 3.0], reference_nodes(CHEBYSHEV, m))
        coeffs = data.draw(
            st.lists(st.floats(-1, 1), min_size=m + 1, max_size=m + 1)
        )
        poly = np.polynomial.Polynomial(coeffs)
        v = restrict(lambda t: poly(t), side)
        q = integral_rows(side, b)
        exact = poly.integ()(b) - poly.integ()(0.0)
        scale = max(1.0, abs(exact))
        assert q @ v.values[:, 0] == pytest.approx(exact, abs=1e-12 * scale)


class TestKernelQuadrature:
    def history_side(self):
        return build_history_grid(Mesh([0.0, 1.0, 2.0, 3.0, 4.0]), FAM3, tau=3.0)

    def test_identity_kernel_constant(self):
        h = self.history_side()
        W = kernel_quadrature(h, -3.0, -1.0, lambda s: np.ones(np.shape(s) + (1, 1)))
        v = restrict(lambda t: 1.0, h)
        assert W[0, 0] @ v.values[:, 0] == pytest.approx(2.0, abs=1e-12)

    def test_identity_kernel_linear(self):
        h = self.history_side()
        W = kernel_quadrature(h, -1.0, 0.0, lambda s: np.ones(np.shape(s) + (1, 1)))
        v = restrict(lambda t: t, h)
        assert W[0, 0] @ v.values[:, 0] == pytest.approx(-0.5, abs=1e-13)

    def test_quadratic_re_kernel_against_adaptive_quadrature(self):
        # gamma = 4 closed-form periodic profile
        gamma = 4.0
        mean = 0.5 + np.pi / (4 * gamma)
        amp = np.sqrt(0.5 - 1 / gamma - np.pi / (2 * gamma**2) * (1 + np.pi / 4))
        xbar = lambda t: mean + amp * np.sin(0.5 * np.pi * t)
        kern = lambda s: 0.5 * gamma * (1.0 - 2.0 * xbar(s))
        h = self.history_side()
        W = kernel_quadrature(h, -3.0, -1.0, lambda s: kern(s)[..., None, None])
        v = restrict(lambda t: 1.0, h)
        got = W[0, 0] @ v.values[:, 0]
        expect, _ = quad(kern, -3.0, -1.0, epsabs=1e-13, epsrel=1e-13)
        assert got == pytest.approx(expect, abs=1e-10)

    def test_matrix_kernel_shape(self):
        h = self.history_side()
        W = kernel_quadrature(h, -2.0, -1.0, lambda s: np.stack(
            [np.stack([np.ones_like(s), s], axis=-1),
             np.stack([np.zeros_like(s), np.full_like(s, 2.0)], axis=-1)], axis=-2))
        assert W.shape == (2, 2, h.n)

    def test_window_outside_rejected(self):
        h = self.history_side()
        with pytest.raises(ValueError):
            kernel_quadrature(h, -4.0, -1.0, lambda s: 1.0)


class TestLinearity:
    def test_operators_linear_in_nodal_values(self):
        side = forward([0.0, 0.9, 2.0], FAM3)
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(2, side.n))
        al, be = 1.7, -0.4
        for build in (
            lambda v: prolong_eval(NodalFunction(side, v), 1.234)[0],
            lambda v: integral_rows(side, 1.6) @ v,
            lambda v: kernel_quadrature(
                side, 0.2, 1.9, lambda s: np.cos(s)[..., None, None])[0, 0] @ v,
        ):
            assert build(al * a + be * b) == pytest.approx(
                al * build(a) + be * build(b), rel=1e-12, abs=1e-12
            )


class TestPiecewiseExactness:
    @given(data=st.data(), m=st.integers(1, 8))
    @settings(max_examples=40)
    def test_reproduces_piecewise_polynomials(self, data, m):
        # nodal samples and reference values are exact rationals rounded
        # once, so the bound measures the interpolation's rounding only
        pts = [0.0, 0.8, 1.7, 3.0]
        side = forward(pts, reference_nodes(CHEBYSHEV, m))
        polys = []
        for i in range(3):
            c = [Fraction(x) for x in data.draw(
                st.lists(st.floats(-1, 1), min_size=m + 1, max_size=m + 1))]
            if polys:
                # shift the constant term so the function stays continuous
                c[0] += _exact(polys[-1], pts[i]) - _exact(_Poly(c), pts[i])
            polys.append(_Poly(c))

        def piece(t):
            return np.clip(np.searchsorted(pts, t, side="right") - 1, 0, 2)

        v = restrict(lambda t: float(_exact(polys[piece(t)], t)), side)
        ts = np.random.default_rng(11).uniform(0.0, 3.0, size=1000)
        cols, w = prolong_pairs(side, ts)
        got = np.einsum("tk,tk->t", w, v.values[cols, 0])
        want = [float(_exact(polys[i], t)) for i, t in zip(piece(ts), ts.tolist())]
        scale = max(1.0, np.abs(v.values).max())
        assert np.abs(got - want).max() <= 10 * EPS * scale


class _Poly:
    """Polynomial with rational coefficients as integers over one denominator."""

    def __init__(self, coeffs):
        self.den = math.lcm(*(c.denominator for c in coeffs))
        self.nums = [c.numerator * (self.den // c.denominator) for c in reversed(coeffs)]


def _exact(poly: _Poly, t: float) -> Fraction:
    """Value of ``poly`` at ``t``, exactly (Horner's rule in integers)."""
    n, d = t.as_integer_ratio()
    acc, dpow = 0, 1
    for c in poly.nums:
        acc = acc * n + c * dpow
        dpow *= d
    return Fraction(acc, poly.den * (dpow // d))


class TestDerivativeMatrix:
    def test_matches_polynomial_derivative(self):
        tab = bary_table(reference_nodes(UNIFORM, 4))
        poly = np.polynomial.Polynomial([0.3, -1.0, 0.5, 0.25, -0.1])
        vals = poly(tab.family.nodes)
        xs = np.array([0.0, 0.31, 0.5, 0.77, 1.0])
        d = lagrange_matrix(tab, xs) @ tab.diff @ vals
        assert np.allclose(d, poly.deriv()(xs), atol=1e-12)

    @pytest.mark.parametrize("kind", [CHEBYSHEV, UNIFORM])
    def test_equals_the_entrywise_loop(self, kind):
        for m in range(1, 61):
            tab = bary_table(reference_nodes(kind, m))
            assert np.array_equal(tab.diff, loop_differentiation_matrix(tab)), m


@st.composite
def sides(draw, max_degree=20):
    """A forward side on a random mesh of [0, 3] with a random degree."""
    m = draw(st.integers(1, max_degree))
    inner = draw(st.lists(st.floats(0.05, 2.95), max_size=5, unique=True))
    pts = np.unique(np.round([0.0, 3.0] + inner, 3))
    kind = draw(st.sampled_from([CHEBYSHEV, UNIFORM]))
    return forward(pts, reference_nodes(kind, m))


def points_on(data, side, size=12):
    """Random points of the side plus some of its nodes and breakpoints."""
    ts = data.draw(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=size))
    picks = data.draw(st.lists(st.integers(0, side.n - 1), max_size=4))
    return np.concatenate([ts, side.nodes[picks], side.breakpoints])


class TestBatchedWeights:
    @given(data=st.data(), side=sides())
    @settings(max_examples=60, deadline=None)
    def test_batched_rows_equal_scalar_calls(self, data, side):
        ts = points_on(data, side)
        cols, w = prolong_pairs(side, ts)
        pieces, icols, iw = integral_weights(side, ts)
        assert cols.shape == w.shape == icols.shape == iw.shape == (
            ts.size, side.family.degree + 1)
        assert pieces.shape == (ts.size,)
        for k, t in enumerate(ts):
            c1, w1 = prolong_pairs(side, float(t))
            assert np.array_equal(cols[k], c1) and np.array_equal(w[k], w1)
            p1, ic1, iw1 = integral_weights(side, float(t))
            assert p1 == pieces[k] and np.array_equal(icols[k], ic1)
            assert np.array_equal(iw[k], iw1)

    @given(data=st.data(), side=sides())
    @settings(max_examples=60, deadline=None)
    def test_interpolation_rows_sum_to_one(self, data, side):
        _, w = prolong_pairs(side, points_on(data, side))
        assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12

    @given(side=sides())
    @settings(max_examples=40, deadline=None)
    def test_node_hits_are_unit_rows(self, side):
        cols, w = prolong_pairs(side, side.nodes)
        assert np.array_equal(np.sort(w, axis=1)[:, -1], np.ones(side.n))
        assert np.count_nonzero(w) == side.n
        vals = np.random.default_rng(5).normal(size=side.n)
        assert np.array_equal(np.einsum("kj,kj->k", w, vals[cols]), vals)

    @given(data=st.data(), side=sides())
    @settings(max_examples=60, deadline=None)
    def test_integral_exact_up_to_degree(self, data, side):
        m = side.family.degree
        coeffs = data.draw(st.lists(st.floats(-1, 1), min_size=m + 1, max_size=m + 1))
        # scaled to [0, 1] so high degrees stay well conditioned
        poly = np.polynomial.Polynomial(coeffs, domain=[0.0, 3.0], window=[0.0, 1.0])
        ts = points_on(data, side)
        got = integral_rows(side, ts) @ poly(side.nodes)
        want = poly.integ()(ts) - poly.integ()(0.0)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


class TestPiecewiseSolutionAtNodes:
    """A solution evaluated at its own grid nodes returns the stored values
    bit for bit: a shared breakpoint the value of the piece on its right,
    the period end the value at 0 (the evaluation is periodic)."""

    def check(self, sol):
        m, om = sol.degree, sol.omega
        nodes = forward(sol.breakpoints, reference_nodes(sol.node_kind, m)).nodes
        want = np.concatenate([sol.values[:, :-1].reshape(-1, sol.d), sol.values[-1, -1:]])
        want[-1] = sol.values[0, 0]
        assert np.array_equal(nodes[::m], sol.breakpoints)
        assert np.array_equal(sol(nodes), want)
        for t in nodes:
            assert np.array_equal(sol(t), want[nodes == t][0])
        # shifted by -omega and +omega, wherever the shift is undone exactly
        for k in (-1, 1):
            shifted = nodes + k * om
            back = np.mod(shifted, om) == np.where(nodes == om, 0.0, nodes)
            assert back.any()
            assert np.array_equal(sol(shifted[back]), want[back])

    def test_shipped_plant_orbit(self):
        self.check(read_solution(data_path("plant_solution.sol")))

    @given(side=sides(), d=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_random_sides(self, side, d):
        m = side.family.degree
        vals = np.random.default_rng(side.P * 31 + m).normal(size=(side.P, m + 1, d))
        self.check(PiecewiseSolution(side.breakpoints, vals, side.family.kind))


class TestDiscontinuousPiecewiseSolution:
    """Inside a piece, a solution is that piece's own polynomial, even when
    the pieces disagree at their shared breakpoints."""

    def test_two_linear_pieces(self):
        sol = PiecewiseSolution(np.array([0.0, 1.0, 2.0]),
                                np.array([[[0.0], [1.0]], [[5.0], [6.0]]]))
        assert np.array_equal(sol(np.array([0.5, 1.0, 1.5, 2.0])),
                              [[0.5], [5.0], [5.5], [0.0]])

    @given(data=st.data(), side=sides(), d=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_random_pieces_match_piecewise_lagrange(self, data, side, d):
        m, b = side.family.degree, side.breakpoints
        vals = np.random.default_rng(side.P * 17 + m).normal(size=(side.P, m + 1, d))
        sol = PiecewiseSolution(b, vals, side.family.kind)
        i = np.array(data.draw(st.lists(st.integers(0, side.P - 1), min_size=1, max_size=8)))
        x = np.array(data.draw(st.lists(st.floats(0.01, 0.99), min_size=i.size,
                                        max_size=i.size)))
        ts = b[i] + x * (b[i + 1] - b[i])
        xs = (ts - b[i]) / (b[i + 1] - b[i])
        want = np.einsum("kj,kjd->kd", lagrange_matrix(bary_table(side.family), xs), vals[i])
        scale = np.abs(vals).max() * np.abs(bary_table(side.family).weights).sum()
        assert np.abs(sol(ts) - want).max() <= 1e-13 * scale

    def test_derivative_of_a_kinked_sample(self):
        # |t - 1| on pieces [0, 1] and [1, 2]: slope -1, then +1
        sol = sample_solution(lambda t: abs(t - 1.0), 2.0, Mesh([0.0, 1.0, 2.0]), 3)
        ts = np.array([0.25, 0.5, 0.99, 1.0, 1.01, 1.75])
        assert np.abs(sol.derivative()(ts)[:, 0] - [-1, -1, -1, 1, 1, 1]).max() <= 1e-12
