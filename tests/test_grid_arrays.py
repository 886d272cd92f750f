"""The array builders of ``pwfloquet.mesh`` against the piece-by-piece loop
builders kept in ``tests/oracles.py``: nodes, breakpoints, the piece layout
and errors must agree bit for bit, at the coincidence and sliver tolerances
included."""

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from pwfloquet.mesh import (CHEBYSHEV, UNIFORM, Mesh, build_forward_grid,
                            build_history_grid, reference_nodes, refine_mesh)

from oracles import loop_forward_grid, loop_history_grid, loop_refine_mesh

FAMILIES = [reference_nodes(kind, m) for kind in (CHEBYSHEV, UNIFORM) for m in range(1, 9)]


def outcome(build, *args):
    """Nodes, breakpoints and the piece layout as bytes, or the error's type
    and message."""
    try:
        result = build(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    if isinstance(result, Mesh):
        return result.breakpoints.tobytes()
    return (result.nodes.tobytes(), result.breakpoints.tobytes(), result.pieces.shape,
            result.pieces.tobytes())


def assert_sides_match(mesh, family, tau):
    assert outcome(build_forward_grid, mesh, family) == outcome(
        loop_forward_grid, mesh, family)
    assert outcome(build_history_grid, mesh, family, tau) == outcome(
        loop_history_grid, mesh, family, tau)


def meshes():
    """1-11 pieces at one of four width scales, one piece possibly far narrower."""
    def build(scale, widths, narrow):
        w = np.array(widths) * scale
        if narrow is not None:
            w[narrow[0] % w.size] *= narrow[1]
        b = np.concatenate(([0.0], np.cumsum(w)))
        return Mesh(b) if np.all(np.diff(b) > 0.0) else Mesh([0.0, scale])

    return st.builds(
        build, st.sampled_from([1e-3, 1.0, 7.5, 300.0]),
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=11),
        st.none() | st.tuples(st.integers(0, 10), st.sampled_from([1e-6, 1e-9, 1e-13])))


@settings(max_examples=300, deadline=None)
@given(mesh=meshes(), family=st.sampled_from(FAMILIES), ratio=st.floats(1e-3, 20.0))
def test_random_delays(mesh, family, ratio):
    assert_sides_match(mesh, family, ratio * mesh.breakpoints[-1])


@settings(max_examples=200, deadline=None)
@given(mesh=meshes(), family=st.sampled_from(FAMILIES), k=st.integers(1, 20),
       i=st.integers(0, 11), sign=st.sampled_from([-1.0, 1.0]),
       offset=st.sampled_from([0.0, 1e-16, 1e-13, 1e-12, 2e-12, 1e-9]))
@example(mesh=Mesh([0.0, 1e-16]), family=FAMILIES[0], k=1, i=0, sign=1.0, offset=1e-9)
def test_delay_at_a_shifted_breakpoint(mesh, family, k, i, sign, offset):
    # -tau on or next to a breakpoint, inside and outside COINCIDENCE_RTOL
    b = mesh.breakpoints
    omega = b[-1]
    tau = k * omega - b[i % b.size] + sign * offset * max(1.0, omega)
    assert_sides_match(mesh, family, tau)


@settings(max_examples=200, deadline=None)
@given(mesh=meshes(), family=st.sampled_from(FAMILIES), k=st.integers(1, 20),
       i=st.integers(0, 11), sign=st.sampled_from([-1.0, 1.0]),
       offset=st.sampled_from([1e-12, 5e-12, 1e-11, 5e-11, 9e-11, 1e-10, 1.1e-10, 2e-10]))
def test_delay_at_a_sliver(mesh, family, k, i, sign, offset):
    # -tau that far left of a shifted breakpoint, around SLIVER_RTOL * omega
    b = mesh.breakpoints
    omega = b[-1]
    tau = k * omega - b[i % b.size] + sign * offset * omega
    assert_sides_match(mesh, family, tau)


@pytest.mark.parametrize("tau", [0.0, -1.0, 2.0])
def test_bad_inputs_raise_the_same_errors(tau):
    family = FAMILIES[3]
    assert_sides_match(Mesh([0.0, 0.5, 1.5]), family, tau)
    shifted = Mesh([0.5, 1.0, 2.0])  # not on [0, omega]
    assert_sides_match(shifted, family, 1.0)


def test_degenerate_history_grid_raises_the_same_error():
    # a piece narrower than the rounding of its shifted nodes
    mesh = Mesh([0.0, 1e-17, 1.0])
    family = reference_nodes(CHEBYSHEV, 8)
    assert outcome(build_history_grid, mesh, family, 19.5)[0] is ValueError
    assert_sides_match(mesh, family, 19.5)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f.kind}-{f.degree}")
@pytest.mark.parametrize("tau, first", [(1.5, [-1.5, -0.8]), (1.0, [-1.0, -0.8]),
                                        (1.5 + 1e-11, [-1.5 - 1e-11, -0.8]),
                                        (5.3, [-5.3, -4.8])],
                         ids=["whole", "truncated", "sliver-merged", "three-windows"])
def test_piece_layout(family, tau, first):
    # node j of piece i is at pieces[i, j] on both sides, as the loop
    # builders number them; the sliver of width 1e-11 is merged away
    mesh = Mesh([0.0, 0.5, 1.2, 2.0])
    pairs = [(build_forward_grid(mesh, family), loop_forward_grid(mesh, family)),
             (build_history_grid(mesh, family, tau), loop_history_grid(mesh, family, tau))]
    assert np.array_equal(pairs[1][0].breakpoints[:2], first)
    for side, loop in pairs:
        assert side.pieces.shape == (side.P, family.degree + 1)
        assert np.array_equal(side.pieces, loop.pieces)
        assert np.array_equal(side.nodes[side.pieces[:, [0, -1]]],
                              np.c_[side.breakpoints[:-1], side.breakpoints[1:]])
        assert not side.pieces.flags.writeable


@settings(max_examples=300, deadline=None)
@given(mesh=meshes(), ratio=st.floats(1e-3, 3.0))
def test_refine_mesh(mesh, ratio):
    hmax = ratio * mesh.widths.max()
    assert outcome(refine_mesh, mesh, hmax) == outcome(loop_refine_mesh, mesh, hmax)


@pytest.mark.parametrize("tau", [2e6, np.inf, np.nan])
def test_more_than_a_million_windows_is_refused_up_front(tau):
    # build_history_grid must refuse before it allocates the windows
    with pytest.raises(RuntimeError, match="10\\^6"):
        build_history_grid(Mesh([0.0, 1.0]), FAMILIES[0], tau)
