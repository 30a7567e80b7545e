"""Tests for the stacked kernel containers and the batch forward kinematics.

The tensors must hold *bit-identical* values to their scalar sources: the
batch collision path builds masks from these arrays and then replays scalar
control flow, so any ULP drift here would change planning decisions.
"""

import numpy as np
import pytest

from repro.core.robots import ROBOT_FACTORIES, get_robot
from repro.kernels.tensors import BodyBatch, FlatRTree, ObstacleTensors
from repro.workloads.generator import random_task


@pytest.fixture(scope="module")
def env24():
    return random_task("rozum", 24, seed=9).environment


class TestBatchForwardKinematics:
    @pytest.mark.parametrize("robot_name", sorted(ROBOT_FACTORIES))
    def test_frames_bit_identical_to_scalar(self, robot_name):
        robot = get_robot(robot_name)
        rng = np.random.default_rng(17)
        configs = rng.uniform(robot.config_lo, robot.config_hi, size=(32, robot.dof))
        centers, halves, rotations = robot.body_frames_batch(configs)
        assert centers.shape == (32, robot.num_body_obbs, robot.workspace_dim)
        for i, config in enumerate(configs):
            for j, obb in enumerate(robot.body_obbs(config)):
                assert np.array_equal(centers[i, j], obb.center)
                assert np.array_equal(halves[i, j], obb.half_extents)
                assert np.array_equal(rotations[i, j], obb.rotation)

    def test_single_config_batch_matches(self):
        robot = get_robot("rozum")
        config = robot.clip(np.full(robot.dof, 0.3))
        centers, halves, rotations = robot.body_frames_batch(config[None, :])
        for j, obb in enumerate(robot.body_obbs(config)):
            assert np.array_equal(centers[0, j], obb.center)
            assert np.array_equal(rotations[0, j], obb.rotation)


class TestBodyBatch:
    def test_aabb_corners_match_scalar_to_aabb(self):
        robot = get_robot("xarm7")
        rng = np.random.default_rng(5)
        configs = rng.uniform(robot.config_lo, robot.config_hi, size=(8, robot.dof))
        bodies = BodyBatch.from_frames(*robot.body_frames_batch(configs))
        lo, hi = bodies.aabb_corners()
        row = 0
        for config in configs:
            for obb in robot.body_obbs(config):
                box = obb.to_aabb()
                assert np.array_equal(lo[row], box.lo)
                assert np.array_equal(hi[row], box.hi)
                row += 1

    def test_row_major_config_body_order(self):
        robot = get_robot("rozum")
        rng = np.random.default_rng(6)
        configs = rng.uniform(robot.config_lo, robot.config_hi, size=(3, robot.dof))
        bodies = BodyBatch.from_frames(*robot.body_frames_batch(configs))
        assert bodies.rows == 3 * bodies.bodies_per_config
        scalar = robot.body_obbs(configs[1])
        row = 1 * bodies.bodies_per_config
        assert np.array_equal(bodies.centers[row], scalar[0].center)

    def test_from_obbs_validation(self):
        with pytest.raises(ValueError):
            BodyBatch.from_obbs([], num_configs=1)


class TestObstacleTensors:
    def test_values_match_environment(self, env24):
        tensors = env24.obstacle_tensors
        assert tensors.count == env24.num_obstacles
        for i, obb in enumerate(env24.obstacles):
            assert np.array_equal(tensors.centers[i], obb.center)
            assert np.array_equal(tensors.half_extents[i], obb.half_extents)
            assert np.array_equal(tensors.rotations[i], obb.rotation)
        for i, box in enumerate(env24.obstacle_aabbs):
            assert np.array_equal(tensors.aabb_lo[i], box.lo)
            assert np.array_equal(tensors.aabb_hi[i], box.hi)

    def test_empty_environment_requires_dim(self):
        with pytest.raises(ValueError):
            ObstacleTensors.from_obbs([])
        empty = ObstacleTensors.from_obbs([], dim=3)
        assert empty.count == 0 and empty.dim == 3

    def test_cached_property_is_stable(self, env24):
        assert env24.obstacle_tensors is env24.obstacle_tensors


class TestFlatRTree:
    def test_structure_consistent(self, env24):
        flat = env24.flat_rtree
        assert flat.num_units == flat.num_nodes + env24.num_obstacles
        # Root is unit 0 and the only node without a parent.
        assert flat.parents[0] == -1
        assert np.count_nonzero(flat.parents < 0) == 1
        # Every non-root node is its parent's child.
        for node in range(1, flat.num_nodes):
            assert node in flat.children[flat.parents[node]]
        # entry_leaf agrees with the entries lists.
        for node, node_entries in enumerate(flat.entries):
            for idx in node_entries:
                assert flat.entry_leaf[idx] == node

    def test_entry_order_is_permutation(self, env24):
        flat = env24.flat_rtree
        assert sorted(flat.entry_order) == list(range(env24.num_obstacles))

    def test_unit_boxes_cover_entries(self, env24):
        flat = env24.flat_rtree
        for i, box in enumerate(env24.obstacle_aabbs):
            unit = flat.entry_unit(i)
            assert np.array_equal(flat.unit_lo[unit], box.lo)
            assert np.array_equal(flat.unit_hi[unit], box.hi)
            # The holding leaf's MBR contains the entry box.
            leaf = int(flat.entry_leaf[i])
            assert np.all(flat.unit_lo[leaf] <= box.lo + 1e-12)
            assert np.all(flat.unit_hi[leaf] >= box.hi - 1e-12)

    def test_batch_query_counts_no_pruning(self, env24):
        """With every mask true, each row visits every unit and keeps all."""
        flat = env24.flat_rtree
        ones = np.ones((4, flat.num_units), dtype=bool)
        counts, candidates = flat.batch_query_counts(ones, ones)
        assert np.all(candidates)
        assert np.array_equal(counts[:, :4], np.array(
            [[flat.num_units] * 4, [flat.num_units] * 4, [env24.num_obstacles] * 4]
        ))
        assert not counts[:, 4].any()      # the zero padding column

    def test_batch_query_counts_root_pruned(self, env24):
        """A root AABB miss stops the traversal after one test."""
        flat = env24.flat_rtree
        aabb = np.ones((1, flat.num_units), dtype=bool)
        aabb[0, 0] = False
        counts, candidates = flat.batch_query_counts(aabb, aabb.copy())
        assert counts[0, 0] == 1       # only the root's AABB test ran
        assert counts[1, 0] == 0       # prefilter failed, no OBB test
        assert not candidates.any()

    @pytest.mark.parametrize("robot_name,obstacles", [
        ("mobile2d", 8), ("mobile2d", 40), ("rozum", 24), ("xarm7", 70),
    ])
    def test_batch_query_counts_match_scalar_walk(self, robot_name, obstacles):
        """Random masks: counts and candidates equal a stack walk of
        ``RTree.query_obb``'s discipline over the same masks, on one-node
        and multi-level trees."""
        env = random_task(robot_name, obstacles, seed=2).environment
        flat = env.flat_rtree
        rng = np.random.default_rng(obstacles)
        rows = 64
        aabb = rng.random((rows, flat.num_units)) < 0.8
        obb = rng.random((rows, flat.num_units)) < 0.8
        counts, candidates = flat.batch_query_counts(aabb, aabb & obb)
        for r in range(rows):
            n_aabb = n_obb = 0
            found = []
            stack = [0]
            while stack:
                node = stack.pop()
                n_aabb += 1
                if not aabb[r, node]:
                    continue
                n_obb += 1
                if not obb[r, node]:
                    continue
                if flat.children[node]:
                    stack.extend(flat.children[node])
                    continue
                for idx in flat.entries[node]:
                    unit = flat.entry_unit(idx)
                    n_aabb += 1
                    if aabb[r, unit]:
                        n_obb += 1
                        if obb[r, unit]:
                            found.append(idx)
            assert (counts[0, r], counts[1, r], counts[2, r]) == (n_aabb, n_obb, len(found))
            assert sorted(found) == list(np.flatnonzero(candidates[r]))
            # Candidates come in the static visit order filtered by the mask.
            order = [i for i in flat.entry_order if candidates[r, i]]
            assert order == found
        # One gather per tree level.
        assert flat.unit_path.shape[0] == env.rtree.height


class TestEnvironmentTables:
    """Every environment-constant operand equals what per-call code
    computes from the raw boxes, so a stale or mis-built table fails."""

    @staticmethod
    def _terms_equal(a, b):
        for field_a, field_b in zip(a, b):
            if field_a is None or field_b is None:
                assert field_a is None and field_b is None
            elif isinstance(field_a, tuple):
                assert all(np.array_equal(x, y) for x, y in zip(field_a, field_b))
            else:
                assert np.array_equal(field_a, field_b)

    @pytest.mark.parametrize("robot_name", ["mobile2d", "drone3d", "xarm7"])
    def test_tables_equal_per_call_values(self, robot_name):
        from repro.kernels import batch

        env = random_task(robot_name, 24, seed=5).environment
        obs, flat = env.obstacle_tensors, env.flat_rtree
        assert np.array_equal(obs.aabb_lo_t, obs.aabb_lo.T)
        assert np.array_equal(obs.aabb_hi_t, obs.aabb_hi.T)
        assert np.array_equal(flat.unit_lo_t, flat.unit_lo.T)
        assert np.array_equal(flat.unit_hi_t, flat.unit_hi.T)
        self._terms_equal(obs.terms, batch.box_terms(
            obs.centers.copy(), obs.half_extents.copy(), obs.rotations.copy()))
        self._terms_equal(obs.aabb_terms, batch.aabb_terms(obs.aabb_lo, obs.aabb_hi))
        self._terms_equal(flat.unit_terms, batch.aabb_terms(flat.unit_lo, flat.unit_hi))
        # The unit boxes' centre / half extents are the pair kernels' own.
        center, half = batch._aabb_as_obb(flat.unit_lo, flat.unit_hi)
        assert np.array_equal(flat.unit_terms.centers, center)
        assert np.array_equal(flat.unit_terms.half_extents, half)
        if env.workspace_dim == 2:
            # OBB.corners() order: bit d of corner c selects +/- axis d.
            signs = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
            corners = center + signs[:, None, :] * half              # (4, U, 2)
            assert np.array_equal(flat.unit_terms.corners[0:4], corners[..., 0])
            assert np.array_equal(flat.unit_terms.corners[4:8], corners[..., 0])
            assert np.array_equal(flat.unit_terms.corners[8:12], corners[..., 1])
            lo_eps = corners.min(axis=0) - batch._EPS
            assert np.array_equal(flat.unit_terms.intervals[2:4], lo_eps.T)
            assert np.array_equal(flat.unit_terms.intervals[6:8], corners.max(axis=0).T)
        # entry_rank inverts entry_order.
        assert np.array_equal(flat.entry_order[flat.entry_rank], np.arange(env.num_obstacles))

    def test_gathered_3d_face_terms_equal_per_pair(self):
        """3D AABB-OBB terms computed per body row then gathered equal the
        same terms computed on the gathered rows."""
        from repro.kernels import batch

        robot = get_robot("xarm7")
        rng = np.random.default_rng(8)
        configs = rng.uniform(robot.config_lo, robot.config_hi, size=(40, robot.dof))
        bodies = BodyBatch.from_frames(*robot.body_frames_batch(configs))
        idx = rng.integers(0, bodies.rows, size=500)
        gathered = [term[idx] for term in bodies.terms().face]
        direct = batch._aabb_obb_face_terms_3d(bodies.half_extents[idx], bodies.rotations[idx])
        for a, b in zip(gathered, direct):
            assert np.array_equal(a, b)
