import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pwfloquet.mesh import (
    CHEBYSHEV,
    COINCIDENCE_RTOL,
    SLIVER_RTOL,
    UNIFORM,
    Mesh,
    build_forward_grid,
    build_grid,
    build_history_grid,
    mesh_ratio,
    read_mesh,
    reference_nodes,
    refine_mesh,
    write_mesh,
)


def meshes(max_pieces=8, span=4.0):
    widths = st.lists(st.floats(0.05, 1.0), min_size=1, max_size=max_pieces)
    return widths.map(lambda ws: Mesh(np.concatenate(([0.0], np.cumsum(ws)))))


class TestReferenceNodes:
    def test_endpoints_only(self):
        fam = reference_nodes(CHEBYSHEV, 1)
        assert np.array_equal(fam.nodes, [0.0, 1.0])

    def test_chebyshev_midpoint(self):
        fam = reference_nodes(CHEBYSHEV, 2)
        assert np.array_equal(fam.nodes, [0.0, 0.5, 1.0])

    def test_uniform(self):
        fam = reference_nodes(UNIFORM, 4)
        assert np.array_equal(fam.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            reference_nodes(CHEBYSHEV, 0)

    @given(m=st.integers(1, 40))
    def test_chebyshev_symmetric_and_increasing(self, m):
        c = reference_nodes(CHEBYSHEV, m).nodes
        assert c[0] == 0.0 and c[-1] == 1.0
        assert np.all(np.diff(c) > 0)
        assert np.array_equal(c + c[::-1], np.ones(m + 1))


class TestForwardGrid:
    def test_single_piece_midpoint(self):
        g = build_forward_grid(Mesh([0.0, 2.0]), reference_nodes(CHEBYSHEV, 2))
        assert np.array_equal(g.nodes, [0.0, 1.0, 2.0])

    def test_endpoints_only_two_pieces(self):
        g = build_forward_grid(Mesh([0.0, 1.0, 2.0]), reference_nodes(CHEBYSHEV, 1))
        assert np.array_equal(g.nodes, [0.0, 1.0, 2.0])
        assert g.P == 2

    def test_nonuniform(self):
        g = build_forward_grid(Mesh([0.0, 0.5, 2.0]), reference_nodes(CHEBYSHEV, 2))
        assert np.array_equal(g.nodes, [0.0, 0.25, 0.5, 1.25, 2.0])

    def test_not_spanning_rejected(self):
        with pytest.raises(ValueError):
            build_forward_grid(Mesh([0.5, 2.0]), reference_nodes(CHEBYSHEV, 2))

    @given(mesh=meshes(), m=st.integers(1, 6))
    @settings(max_examples=60)
    def test_breakpoints_are_nodes_and_count(self, mesh, m):
        g = build_forward_grid(mesh, reference_nodes(CHEBYSHEV, m))
        assert g.n == mesh.L * m + 1
        # exact membership, no tolerance
        assert set(mesh.breakpoints).issubset(set(g.nodes))
        assert np.all(np.diff(g.nodes) > 0)


class TestHistoryGrid:
    def test_exact_shift_no_truncation(self):
        h = build_history_grid(Mesh([0.0, 1.0, 2.0]), reference_nodes(CHEBYSHEV, 1), tau=2.0)
        assert np.array_equal(h.nodes, [-2.0, -1.0, 0.0])

    def test_truncation_with_fresh_nodes(self):
        h = build_history_grid(Mesh([0.0, 1.0, 2.0]), reference_nodes(CHEBYSHEV, 2), tau=1.5)
        assert np.array_equal(h.breakpoints, [-1.5, -1.0, 0.0])
        assert np.array_equal(h.nodes, [-1.5, -1.25, -1.0, -0.5, 0.0])

    def test_tiling_short_window(self):
        h = build_history_grid(Mesh([0.0, 1.0]), reference_nodes(CHEBYSHEV, 1), tau=2.5)
        assert np.array_equal(h.breakpoints, [-2.5, -2.0, -1.0, 0.0])
        assert np.array_equal(h.nodes, [-2.5, -2.0, -1.0, 0.0])

    def test_history_consistency_bit_for_bit(self):
        # tau a breakpoint distance: history nodes are forward nodes minus omega
        mesh = Mesh([0.0, 0.7, 1.1, 2.3, 3.0])
        fam = reference_nodes(CHEBYSHEV, 4)
        fwd = build_forward_grid(mesh, fam)
        h = build_history_grid(mesh, fam, tau=3.0 - 0.7)
        expect = fwd.nodes[fwd.nodes >= 0.7] - 3.0
        assert np.array_equal(h.nodes, expect)

    def test_near_coincidence_keeps_shifted_piece(self):
        # -tau within the coincidence tolerance of a shifted breakpoint:
        # no truncation, the shifted nodes are used as they are
        fam = reference_nodes(CHEBYSHEV, 3)
        mesh = Mesh([0.0, 0.5, 1.0])
        h = build_history_grid(mesh, fam, tau=0.5 + 2e-13)
        assert h.P == 1
        assert h.breakpoints[0] == -0.5

    def test_sliver_merges_into_neighbour(self):
        # truncation would leave a piece of width 1e-11 < 1e-10 * omega;
        # it is merged with the piece to its right
        fam = reference_nodes(CHEBYSHEV, 2)
        mesh = Mesh([0.0, 0.5, 1.0])
        tau = 0.5 + 1e-11
        h = build_history_grid(mesh, fam, tau=tau)
        assert h.P == 1
        assert h.breakpoints[0] == -tau
        assert h.breakpoints[-1] == 0.0
        assert np.all(np.diff(h.nodes) > 0)

    @given(mesh=meshes(), m=st.integers(1, 5), tau=st.floats(0.2, 9.0))
    @settings(max_examples=80)
    def test_cover_and_monotone(self, mesh, m, tau):
        fam = reference_nodes(CHEBYSHEV, m)
        h = build_history_grid(mesh, fam, tau=tau)
        assert h.nodes[-1] == 0.0
        assert abs(h.nodes[0] + tau) <= 1e-12 * max(1.0, mesh.span)
        assert np.all(np.diff(h.nodes) > 0)


    @given(mesh=meshes(), kind=st.sampled_from([CHEBYSHEV, UNIFORM]),
           m=st.integers(1, 8), tau=st.floats(0.01, 20.0))
    @settings(max_examples=80)
    def test_covers_history_without_long_gaps(self, mesh, kind, m, tau):
        h = build_history_grid(mesh, reference_nodes(kind, m), tau=tau)
        omega = mesh.span
        assert abs(h.nodes[0] + tau) <= COINCIDENCE_RTOL * max(1.0, omega)
        assert h.nodes[-1] == 0.0
        gaps = np.diff(h.nodes)
        assert np.all(gaps > 0)
        # a merged sliver may lengthen one piece by up to SLIVER_RTOL * omega
        assert gaps.max() <= mesh.widths.max() + SLIVER_RTOL * omega


class TestMeshRatio:
    @given(n=st.integers(1, 20), span=st.floats(0.1, 50))
    def test_uniform_is_one(self, n, span):
        mesh = Mesh(np.linspace(0.0, span, n + 1))
        assert mesh_ratio(mesh) == pytest.approx(1.0, abs=1e-12)

    def test_simple(self):
        assert mesh_ratio(Mesh([0.0, 0.1, 1.0])) == pytest.approx(9.0)


class TestRefine:
    def test_split_in_two(self):
        out = refine_mesh(Mesh([0.0, 1.0]), 0.5)
        assert np.allclose(out.breakpoints, [0.0, 0.5, 1.0])

    def test_ceil_rule(self):
        out = refine_mesh(Mesh([0.0, 0.2, 1.0]), 0.4)
        assert np.allclose(out.breakpoints, [0.0, 0.2, 0.6, 1.0])

    def test_compliant_unchanged(self):
        mesh = Mesh([0.0, 0.3, 0.55, 1.0])
        out = refine_mesh(mesh, 0.5)
        assert np.array_equal(out.breakpoints, mesh.breakpoints)

    @given(mesh=meshes(), hmax=st.floats(0.03, 2.0))
    @settings(max_examples=80)
    def test_idempotent_and_superset(self, mesh, hmax):
        once = refine_mesh(mesh, hmax)
        twice = refine_mesh(once, hmax)
        assert np.array_equal(once.breakpoints, twice.breakpoints)
        assert set(mesh.breakpoints).issubset(set(once.breakpoints))
        assert once.widths.max() <= hmax * (1 + 1e-12)

    @given(mesh=meshes(), hmax=st.floats(0.03, 2.0))
    @settings(max_examples=80)
    def test_ratio_does_not_grow_if_min_kept(self, mesh, hmax):
        out = refine_mesh(mesh, hmax)
        if out.widths.min() == mesh.widths.min():
            assert mesh_ratio(out) <= mesh_ratio(mesh) * (1 + 1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("hmax", [1e-300, 1e-320, 1e-10])
    def test_more_than_a_million_pieces_is_refused_up_front(self, hmax):
        # counted before anything is allocated: 1e-10 would need 5e11 pieces,
        # and a subnormal hmax must not overflow into a numpy warning
        mesh = Mesh([0.0, 0.2, 50.7])
        with pytest.raises(ValueError, match=rf"hmax = {hmax!r} .* pieces, over 10\^6"):
            refine_mesh(mesh, hmax)


class TestMeshIO:
    def test_round_trip(self, tmp_path):
        mesh = Mesh([0.0, 0.12345678901234567, 1.1, 4.0])
        p = tmp_path / "m.mesh"
        write_mesh(mesh, p, header="test mesh")
        back = read_mesh(p)
        assert np.array_equal(back.breakpoints, mesh.breakpoints)

    def test_comments_ignored(self, tmp_path):
        p = tmp_path / "m.mesh"
        p.write_text("# a comment\n0.0\n0.5  # trailing\n\n1.0\n")
        assert np.array_equal(read_mesh(p).breakpoints, [0.0, 0.5, 1.0])


class TestValidation:
    def test_not_increasing(self):
        with pytest.raises(ValueError):
            Mesh([0.0, 1.0, 1.0])

    def test_too_short(self):
        with pytest.raises(ValueError):
            Mesh([0.0])

    def test_grid_assembly(self):
        grid = build_grid(Mesh([0.0, 1.0, 2.0]), reference_nodes(CHEBYSHEV, 3), tau=1.5)
        assert grid.omega == 2.0
        assert grid.forward.n == 2 * 3 + 1
        assert grid.history.nodes[0] == -1.5
