"""Boundary meshes: construction, refinement, quality, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatbem.mesh import (
    BoundaryMesh,
    dumps,
    loads,
    quasi_uniformity_constant,
    refine_adaptive,
    refine_uniform,
    uniform_mesh,
)


def test_side_normals():
    m = uniform_mesh(1.0, 0)
    assert m.n_left == 1
    assert m.normal_all.tolist() == [-1.0, 1.0]  # left, then right


class TestUniformMesh:
    def test_level0(self):
        m = uniform_mesh(1.0, 0)
        assert m.n_elements == 2
        assert (m.n_left, m.n_right) == (1, 1)
        np.testing.assert_array_equal(m.t_begin_all, [0.0, 0.0])
        np.testing.assert_array_equal(m.t_end_all, [1.0, 1.0])

    def test_level5(self):
        m = uniform_mesh(1.0, 5)
        assert m.n_elements == 64
        assert m.element_sizes.max() == pytest.approx(1.0 / 32.0)
        assert m.element_sizes.max() == m.h_min

    def test_level1_breakpoints(self):
        m = uniform_mesh(1.0, 1)
        np.testing.assert_array_equal(m.left_breaks, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(m.right_breaks, [0.0, 0.5, 1.0])

    def test_count_convention(self):
        for level in range(0, 7):
            assert uniform_mesh(1.0, level).n_elements == 2 ** (level + 1)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            uniform_mesh(1.0, -1)


class TestRefinement:
    def test_uniform_doubles(self):
        m = uniform_mesh(1.0, 0)
        fine = refine_uniform(m)
        assert fine.n_elements == 4
        assert fine.element_sizes.max() == pytest.approx(0.5)

    def test_two_refinements_match_level2_bitwise(self):
        # L refinements of level 0 give uniform_mesh(L), whose nodes are k / 2**L
        refined = uniform_mesh(1.0, 0)
        for level in range(12):
            direct = uniform_mesh(1.0, level)
            np.testing.assert_array_equal(refined.left_breaks, direct.left_breaks)
            np.testing.assert_array_equal(refined.right_breaks, direct.right_breaks)
            np.testing.assert_array_equal(direct.left_breaks, np.arange(2**level + 1) / 2**level)
            refined = refine_uniform(refined)

    def test_uniform_children_at_2i_and_2i_plus_1(self):
        m = refine_adaptive(uniform_mesh(1.0, 1), [1.0, 0.0, 0.0, 0.0])
        assert (m.n_left, m.n_right) == (3, 2)
        fine = refine_uniform(m)
        for i in range(m.n_elements):
            first, second = 2 * i, 2 * i + 1
            assert fine.normal_all[first] == m.normal_all[i] == fine.normal_all[second]
            assert fine.t_begin_all[first] == m.t_begin_all[i]
            assert fine.t_end_all[first] == fine.t_begin_all[second]
            assert fine.t_end_all[second] == m.t_end_all[i]

    def test_adaptive_single_marked(self):
        m = uniform_mesh(1.0, 1)  # N = 4
        fine = refine_adaptive(m, [1.0, 0.0, 0.0, 0.0], theta=0.5)
        assert fine.n_elements == 5
        np.testing.assert_array_equal(fine.left_breaks, [0.0, 0.25, 0.5, 1.0])
        np.testing.assert_array_equal(fine.right_breaks, m.right_breaks)

    def test_adaptive_equal_indicators_full_bisection(self):
        m = uniform_mesh(1.0, 1)
        fine = refine_adaptive(m, np.ones(4), theta=1.0)
        assert fine.n_elements == 8
        np.testing.assert_array_equal(fine.left_breaks, uniform_mesh(1.0, 2).left_breaks)

    def test_adaptive_zero_indicators_progress(self):
        m = uniform_mesh(1.0, 1)
        assert refine_adaptive(m, np.zeros(m.n_elements)).n_elements == m.n_elements + 1

    def test_adaptive_validation(self):
        m = uniform_mesh(1.0, 1)
        with pytest.raises(ValueError):
            refine_adaptive(m, [1.0, 2.0])  # wrong length
        with pytest.raises(ValueError):
            refine_adaptive(m, np.ones(4), theta=0.0)
        with pytest.raises(ValueError):
            refine_adaptive(m, [-1.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_adaptive_non_finite_indicator_rejected(self, bad):
        # a NaN passes eta < 0 and makes eta.max() NaN, which marks nothing
        with pytest.raises(ValueError, match="indicators must be finite"):
            refine_adaptive(uniform_mesh(1.0, 2), [1.0, bad, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 1_000_000), min_size=1, max_size=8))
    def test_partition_under_random_refinement(self, seeds):
        mesh = uniform_mesh(1.0, 0)
        for seed in seeds:
            rng = np.random.default_rng(seed)
            old_left = set(mesh.left_breaks.tolist())
            old_right = set(mesh.right_breaks.tolist())
            eta = rng.random(mesh.n_elements)
            marked = np.flatnonzero(eta >= 0.6 * eta.max())
            expected = [
                np.sort(np.r_[old, [0.5 * (old[i] + old[i + 1]) for i in ids]])
                for old, ids in (
                    (mesh.left_breaks, marked[marked < mesh.n_left]),
                    (mesh.right_breaks, marked[marked >= mesh.n_left] - mesh.n_left),
                )
            ]
            mesh = refine_adaptive(mesh, eta, theta=0.6)
            # nodes never move, and each marked element gains its midpoint bitwise
            assert old_left <= set(mesh.left_breaks.tolist())
            assert old_right <= set(mesh.right_breaks.tolist())
            np.testing.assert_array_equal(mesh.left_breaks, expected[0])
            np.testing.assert_array_equal(mesh.right_breaks, expected[1])
        for breaks in (mesh.left_breaks, mesh.right_breaks):
            assert abs(float(np.sum(np.diff(breaks))) - mesh.horizon) <= 1e-12
            assert np.all(np.diff(breaks) > 0.0)
        assert np.isfinite(quasi_uniformity_constant(mesh))


class TestSlabs:
    def test_uniform_slabs_pair_the_sides(self):
        m = uniform_mesh(1.0, 2)
        assert [idx.tolist() for idx in m.slabs] == [[0, 4], [1, 5], [2, 6], [3, 7]]

    def test_unequal_sides(self):
        m = BoundaryMesh(
            horizon=1.0,
            interval=(0.0, 1.0),
            left_breaks=np.array([0.0, 0.125, 0.25, 0.5, 0.625, 1.0]),
            right_breaks=np.array([0.0, 0.25, 0.5, 0.75, 1.0]),
        )
        slabs = [idx.tolist() for idx in m.slabs]
        assert slabs == [[0, 1, 5], [2, 6], [3, 4, 7, 8]]


class TestIndexing:
    def test_left_block_then_right_block(self):
        m = uniform_mesh(1.0, 1)
        assert (m.n_left, m.n_right) == (2, 2)
        assert m.normal_all.tolist() == [-1.0, -1.0, 1.0, 1.0]
        np.testing.assert_array_equal(m.t_begin_all, [0.0, 0.5, 0.0, 0.5])
        np.testing.assert_array_equal(m.t_end_all, [0.5, 1.0, 0.5, 1.0])
        assert dumps(m).splitlines() == ["L 0 0.5", "L 0.5 1", "R 0 0.5", "R 0.5 1"]

    def test_arrays_consistent(self):
        m = refine_adaptive(uniform_mesh(1.0, 1), [5.0, 0.0, 0.0, 1.0], theta=0.1)
        assert len(m.t_begin_all) == m.n_elements
        np.testing.assert_allclose(m.element_sizes, m.t_end_all - m.t_begin_all)
        assert np.all(m.x_all[: m.n_left] == 0.0)
        assert np.all(m.x_all[m.n_left :] == 1.0)


class TestQuasiUniformity:
    def test_uniform_is_one(self):
        assert quasi_uniformity_constant(uniform_mesh(1.0, 3)) == 1.0

    def test_hand_computed_ratio(self):
        m = BoundaryMesh(
            horizon=1.0,
            interval=(0.0, 1.0),
            left_breaks=np.array([0.0, 0.5, 1.0]),
            right_breaks=np.array([0.0, 0.25, 1.0]),
        )
        assert quasi_uniformity_constant(m) == pytest.approx(3.0)

    def test_single_element_sides(self):
        assert quasi_uniformity_constant(uniform_mesh(1.0, 0)) == 1.0


class TestSerialization:
    def test_format(self):
        text = dumps(uniform_mesh(1.0, 0))
        assert text.splitlines() == ["L 0 1", "R 0 1"]

    def test_roundtrip(self):
        m = refine_adaptive(uniform_mesh(1.0, 2), np.arange(8.0), theta=0.4)
        back = loads(dumps(m))
        np.testing.assert_array_equal(back.left_breaks, m.left_breaks)
        np.testing.assert_array_equal(back.right_breaks, m.right_breaks)
        assert back.horizon == m.horizon

    def test_gap_detected(self):
        with pytest.raises(ValueError):
            loads("L 0 0.5\nL 0.6 1\nR 0 1\n")

    def test_unknown_side_tag(self):
        with pytest.raises(ValueError, match="unknown side tag 'X'"):
            loads("L 0 1\nX 0 1\nR 0 1\n")


def test_mesh_geometry_validation():
    with pytest.raises(ValueError):
        BoundaryMesh(1.0, (0.0, 1.0), np.array([0.0, 0.5]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        BoundaryMesh(1.0, (1.0, 0.0), np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        BoundaryMesh(1.0, (0.0, 1.0), np.array([0.0, 0.5, 0.5, 1.0]), np.array([0.0, 1.0]))
