"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (SOFT-PASS/SOFT-WARN for the two
criteria that depend on the locally reconstructed neural-model solution).
Run with ``pytest tests/test_acceptance.py -v`` for the full report.
Criterion 08 is retired (see the README); the others keep their numbers.
"""

import warnings

import numpy as np
import pytest

from oracles import integral_rows, prolong_eval, restrict
from pwfloquet.bvp import BvpProblem, solve_periodic
from pwfloquet.interp import NodalFunction
from pwfloquet.mesh import (
    Mesh,
    build_forward_grid,
    chebyshev_family,
    mesh_ratio,
    read_mesh,
    refine_mesh,
    reference_nodes,
)
from pwfloquet.model import (
    DiscreteTerm,
    LinearPeriodicEquation,
    builtin,
    data_path,
    linearize,
    read_solution,
)
from pwfloquet.monodromy import (
    MissingBreakpointsError,
    assemble,
    multipliers,
)

REPORTED_QRE_DOMINANT = -0.1355
REPORTED_TENT_DOMINANT = 2.0133
REPORTED_LOGISTIC_16 = 0.8972
REPORTED_LOGISTIC_23 = 1.831e-3
REPORTED_PLANT_DOMINANT = 0.1444 + 0.0382j
REPORTED_PLANT_OSCILLATING = 0.0612 + 0.0594j
REPORTED_PLANT_RATIO = 55.91


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line)
    return _announce


@pytest.fixture(scope="module")
def qre():
    b = builtin("quadratic-re", gamma=4.0)
    return b, linearize(b.problem, b.exact)


def qre_multipliers(eq, L, M):
    disc = assemble(eq, Mesh(np.linspace(0.0, 4.0, L + 1)), chebyshev_family(M))
    return multipliers(disc)


@pytest.fixture(scope="module")
def qre_reference(qre):
    _, eq = qre
    return qre_multipliers(eq, 40, 15).dominant_nontrivial()


@pytest.fixture(scope="module")
def tent_eq():
    return builtin("tent").linear


@pytest.fixture(scope="module")
def tent_reference(tent_eq):
    disc = assemble(tent_eq, Mesh([0.0, 1.0, 2.0]), chebyshev_family(120))
    return multipliers(disc).dominant()


def tent_dominant(tent_eq, L, M):
    mesh = Mesh([0.0, 2.0]) if L == 1 else Mesh([0.0, 1.0, 2.0])
    disc = assemble(tent_eq, mesh, chebyshev_family(M), enforce="ignore")
    return multipliers(disc).dominant()


@pytest.fixture(scope="module")
def logistic_16():
    b = builtin("logistic", r=1.6)
    profile, period = b.make_guess()
    problem = BvpProblem(problem=b.problem, mesh=Mesh(np.linspace(0, 1, 41)),
                         degree=4, period_guess=period, guess_profile=profile)
    result = solve_periodic(problem)
    return b, result


@pytest.fixture(scope="module")
def logistic_23():
    b = builtin("logistic", r=2.3)
    profile, period = b.make_guess()
    problem = BvpProblem(problem=b.problem, mesh=Mesh(np.linspace(0, 1, 41)),
                         degree=4, period_guess=period, guess_profile=profile)
    result = solve_periodic(problem)
    return b, result


@pytest.fixture(scope="module")
def plant_run():
    """Reconstruct the strongly adapted solution from the shipped data."""
    b = builtin("plant")
    mesh01 = read_mesh(data_path("plant_adapted.mesh"))
    seed = read_solution(data_path("plant_solution.sol"))
    problem = BvpProblem(problem=b.problem, mesh=mesh01, degree=5,
                         period_guess=seed.omega, guess_profile=seed)
    result = solve_periodic(problem)
    eq = linearize(b.problem, result.solution)
    return b, result, eq


def test_c01_trivial_multiplier_exact_pipeline(qre, announce):
    _, eq = qre
    ms = qre_multipliers(eq, 4, 15)
    err = abs(ms.trivial() - 1.0)
    announce(f"ACCEPTANCE 01 {'PASS' if err <= 1e-8 else 'FAIL'}: "
             f"quadratic RE trivial multiplier error {err:.2e} (gate 1e-8)")
    assert err <= 1e-8


def test_c02_nontrivial_multiplier_quadratic_re(qre, qre_reference, announce):
    _, eq = qre
    dom = qre_multipliers(eq, 4, 15).dominant_nontrivial()
    err_reported = abs(dom - REPORTED_QRE_DOMINANT)
    err_ref = abs(dom - qre_reference)
    ok = err_reported <= 2e-3 and err_ref <= 1e-8
    announce(f"ACCEPTANCE 02 {'PASS' if ok else 'FAIL'}: quadratic RE dominant "
             f"{dom.real:.6f}; vs reported {err_reported:.2e} (gate 2e-3), "
             f"vs fine reference {err_ref:.2e} (gate 1e-8)")
    assert err_reported <= 2e-3
    assert err_ref <= 1e-8


def test_c03_tent_order_reduction(tent_eq, tent_reference, announce):
    val = tent_dominant(tent_eq, 2, 40)
    err_reported = abs(val - REPORTED_TENT_DOMINANT)
    Ms = [4, 8, 16, 32, 64]
    errs_l1 = [abs(tent_dominant(tent_eq, 1, M) - tent_reference) for M in Ms]
    slope = -np.polyfit(np.log(Ms), np.log(errs_l1), 1)[0]
    e1 = abs(tent_dominant(tent_eq, 1, 40) - tent_reference)
    e2 = abs(tent_dominant(tent_eq, 2, 40) - tent_reference)
    ratio_ok = e2 <= 1e-4 * e1
    ok = err_reported <= 1e-3 and 1.5 <= slope <= 2.5 and ratio_ok
    announce(f"ACCEPTANCE 03 {'PASS' if ok else 'FAIL'}: tent dominant "
             f"{val.real:.6f} vs 2.0133 err {err_reported:.2e} (gate 1e-3); "
             f"kink-omitted order {slope:.2f} (gate [1.5, 2.5]); "
             f"kink-included error {e2:.1e} vs {e1:.1e} (gate 1e4x smaller)")
    assert err_reported <= 1e-3
    assert 1.5 <= slope <= 2.5
    assert ratio_ok


def test_c04_sem_spectral_decay(qre, announce):
    _, eq = qre
    Ms = list(range(4, 16))
    errs = np.array([abs(qre_multipliers(eq, 4, M).trivial() - 1.0) for M in Ms])
    floor = errs.min()
    reaches = floor <= 1e-8
    # no rise beyond a 10x band anywhere on the way down
    banded_monotone = all(
        errs[k + 1] <= 10.0 * max(errs[k], floor) for k in range(len(errs) - 1)
    )
    # each doubling of M improves the error by a growing factor (until the floor)
    factors = []
    for M in (4, 5, 6, 7):
        e_lo, e_hi = errs[Ms.index(M)], errs[Ms.index(2 * M)]
        if e_hi > 10.0 * floor:
            factors.append(e_lo / e_hi)
    superlinear = all(f2 > f1 for f1, f2 in zip(factors, factors[1:]))
    ok = reaches and banded_monotone and superlinear
    announce(f"ACCEPTANCE 04 {'PASS' if ok else 'FAIL'}: SEM trivial error "
             f"{errs[0]:.1e} -> {errs[-1]:.1e} (floor gate 1e-8), banded "
             f"monotone={banded_monotone}, doubling factors "
             f"{['%.1e' % f for f in factors]} growing={superlinear}")
    assert reaches and banded_monotone and superlinear


def test_c05_fem_finite_order(qre, qre_reference, announce):
    _, eq = qre
    Ls = [5, 10, 20, 40]
    lines = []
    ok = True
    for M in (2, 3):
        errs_t, errs_d = [], []
        for L in Ls:
            ms = qre_multipliers(eq, L, M)
            errs_t.append(abs(ms.trivial() - 1.0))
            errs_d.append(abs(ms.dominant_nontrivial() - qre_reference))
        o_t = -np.polyfit(np.log(Ls), np.log(errs_t), 1)[0]
        o_d = -np.polyfit(np.log(Ls), np.log(errs_d), 1)[0]
        ok = ok and o_t >= M - 0.5 and o_d >= M - 0.5
        lines.append(f"M={M}: trivial order {o_t:.2f}, dominant order {o_d:.2f}")
    announce(f"ACCEPTANCE 05 {'PASS' if ok else 'FAIL'}: FEM orders "
             f"{'; '.join(lines)} (gate >= M - 0.5)")
    assert ok


def test_c06_end_to_end_logistic(logistic_16, logistic_23, announce):
    b16, r16 = logistic_16
    eq = linearize(b16.problem, r16.solution)
    ms = multipliers(assemble(eq, r16.solution.mesh, chebyshev_family(4)))
    err_triv = abs(ms.trivial() - 1.0)
    dom16 = ms.dominant_nontrivial()
    err16 = abs(dom16 - REPORTED_LOGISTIC_16)

    b23, r23 = logistic_23
    eq23 = linearize(b23.problem, r23.solution)
    ms23 = multipliers(assemble(eq23, r23.solution.mesh, chebyshev_family(4)))
    dom23 = ms23.dominant_nontrivial()
    err23 = abs(dom23 - REPORTED_LOGISTIC_23)

    ok = err_triv <= 1e-6 and err16 <= 2e-3 and err23 <= 1e-4
    announce(f"ACCEPTANCE 06 {'PASS' if ok else 'FAIL'}: logistic r=1.6 trivial "
             f"err {err_triv:.1e} (gate 1e-6), dominant {dom16.real:.5f} vs "
             f"0.8972 err {err16:.1e} (gate 2e-3); r=2.3 dominant "
             f"{dom23.real:.3e} vs 1.831e-3 err {err23:.1e} (gate 1e-4)")
    assert err_triv <= 1e-6
    assert err16 <= 2e-3
    assert err23 <= 1e-4


def test_c07_ode_oracle(announce):
    eq = LinearPeriodicEquation(
        d_x=0, d_y=1, omega=1.0, tau=1.0,
        discrete=(DiscreteTerm("y", "y", 0.0, np.array([[1.0]])),),
    )
    disc = assemble(eq, Mesh([0.0, 1.0]), chebyshev_family(20))
    err = abs(multipliers(disc).dominant() - np.e)
    announce(f"ACCEPTANCE 07 {'PASS' if err <= 1e-8 else 'FAIL'}: scalar "
             f"y' = y dominant eigenvalue error {err:.2e} (gate 1e-8)")
    assert err <= 1e-8


def test_c09_operator_identities(announce):
    rng = np.random.default_rng(20240817)
    fam = reference_nodes("chebyshev-extrema", 6)
    side = build_forward_grid(Mesh([0.0, 0.45, 1.3, 3.0]), fam)
    vals = rng.normal(size=(side.n, 2))
    v = NodalFunction(side, vals)
    rp = restrict(lambda t: prolong_eval(v, t), side)
    identity_ok = np.array_equal(rp.values, vals)

    f = lambda t: np.exp(np.sin(1.3 * t))
    v1 = restrict(f, side)
    v2 = restrict(lambda t: prolong_eval(v1, t), side)
    idem_ok = np.array_equal(v1.values, v2.values)

    integral_ok = True
    for _ in range(25):
        coeffs = rng.uniform(-1, 1, size=7)
        poly = np.polynomial.Polynomial(coeffs)
        nodal = restrict(lambda t: poly(t), side)
        upper = rng.uniform(0.0, 3.0)
        got = integral_rows(side, upper) @ nodal.values[:, 0]
        want = poly.integ()(upper) - poly.integ()(0.0)
        scale = max(1.0, abs(want))
        integral_ok = integral_ok and abs(got - want) <= 1e-12 * scale

    ok = identity_ok and idem_ok and integral_ok
    announce(f"ACCEPTANCE 09 {'PASS' if ok else 'FAIL'}: restrict/prolong "
             f"identity exact={identity_ok}, idempotent={idem_ok}, "
             f"integral weights exact on degree <= M={integral_ok}")
    assert ok


def test_c10_breakpoint_enforcement(tent_eq, announce):
    with pytest.warns(UserWarning, match="merging"):
        merged = assemble(tent_eq, Mesh([0.0, 2.0]), chebyshev_family(30))
    explicit = assemble(tent_eq, Mesh([0.0, 1.0, 2.0]), chebyshev_family(30))
    diff = abs(multipliers(merged).dominant() - multipliers(explicit).dominant())
    strict_raises = False
    try:
        assemble(tent_eq, Mesh([0.0, 2.0]), chebyshev_family(30), enforce="strict")
    except MissingBreakpointsError:
        strict_raises = True
    ok = diff <= 1e-12 and merged.merged_breakpoints == (1.0,) and strict_raises
    announce(f"ACCEPTANCE 10 {'PASS' if ok else 'FAIL'}: auto-merged kink result "
             f"differs by {diff:.1e} (gate 1e-12); strict mode raises={strict_raises}")
    assert ok


def test_c11_plant_adapted_mesh(plant_run, announce):
    _, result, eq = plant_run
    rho = mesh_ratio(read_mesh(data_path("plant_adapted.mesh")))
    ratio_ok = abs(rho - REPORTED_PLANT_RATIO) <= 0.01 * REPORTED_PLANT_RATIO

    ms = multipliers(assemble(eq, result.solution.mesh, chebyshev_family(5)))
    err_triv = abs(ms.trivial() - 1.0)
    triv_ok = err_triv <= 1e-3

    dom = ms.dominant_nontrivial()
    err_dom = min(abs(dom - REPORTED_PLANT_DOMINANT),
                  abs(dom - np.conj(REPORTED_PLANT_DOMINANT)))
    soft_ok = err_dom <= 5e-3

    hard_ok = ratio_ok and triv_ok
    soft_tag = "SOFT-PASS" if soft_ok else "SOFT-WARN"
    announce(f"ACCEPTANCE 11 {'PASS' if hard_ok else 'FAIL'}/{soft_tag}: plant "
             f"rho={rho:.4f} (gate 55.91 +- 1%), trivial err {err_triv:.1e} "
             f"(gate 1e-3); dominant {dom:.6f} vs 0.1444+-0.0382i err "
             f"{err_dom:.1e} (soft gate 5e-3)")
    if not soft_ok:
        warnings.warn(
            f"plant dominant multiplier off the reported value by {err_dom:.2e} "
            "(soft criterion: the shipped solution is a local reconstruction)"
        )
    assert ratio_ok
    assert triv_ok


def test_c12_plant_refinement_property(plant_run, announce):
    _, result, eq = plant_run
    sol_mesh = result.solution.mesh
    hmax = sol_mesh.widths.max() / 5.0
    mesh_1 = refine_mesh(sol_mesh, hmax)
    mesh_2 = refine_mesh(sol_mesh, hmax / 2.0)

    def oscillating_mode(mesh):
        vals = multipliers(assemble(eq, mesh, chebyshev_family(5))).values
        idx = np.argmin(np.abs(vals - REPORTED_PLANT_OSCILLATING))
        return vals[idx]

    mu_sol = oscillating_mode(sol_mesh)
    mu_1 = oscillating_mode(mesh_1)
    mu_2 = oscillating_mode(mesh_2)
    refine_change = abs(mu_1 - mu_2)
    coarse_gap = abs(mu_sol - mu_1)
    soft_ok = refine_change <= 1e-4 and coarse_gap >= 10.0 * refine_change

    # the mode's eigenfunction oscillates where the orbit is nearly constant
    # and the trivial eigenfunction (the orbit derivative) is flat
    from pwfloquet.monodromy import eigenfunction
    disc = assemble(eq, mesh_1, chebyshev_family(5))
    ms = multipliers(disc)
    idx = int(np.argmin(np.abs(ms.values - REPORTED_PLANT_OSCILLATING)))
    theta = disc.grid.history.nodes
    speed = np.abs(result.solution.derivative()(result.solution.omega + theta)[:, 0])
    plateau = speed < 0.1 * speed.max()

    def sign_changes(vals):
        s = np.sign(vals)
        s = s[s != 0]
        return int(np.sum(s[:-1] * s[1:] < 0))

    osc = sign_changes(eigenfunction(disc, idx).values[plateau, 0].real)
    osc_triv = sign_changes(eigenfunction(disc, 0).values[plateau, 0].real)
    oscillates = osc >= 5 * max(1, osc_triv)

    tag = "SOFT-PASS" if soft_ok else "SOFT-WARN"
    announce(f"ACCEPTANCE 12 {tag}: oscillating mode {mu_1:.6f}; refinement "
             f"change {refine_change:.2e} (gate 1e-4), unrefined gap "
             f"{coarse_gap:.2e} (gate >= 10x change); plateau sign changes "
             f"{osc} vs {osc_triv} for the trivial mode")
    if not soft_ok:
        warnings.warn(
            f"refinement property outside gates (change {refine_change:.2e}, "
            f"gap {coarse_gap:.2e}); soft criterion on a reconstructed solution"
        )
    assert np.isfinite(refine_change) and np.isfinite(coarse_gap)
    assert oscillates
