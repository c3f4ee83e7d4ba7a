import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelrefine.errors import (
    DegenerateGeometryError,
    EncodingError,
    InsufficientFramesError,
)
from skelrefine.skeleton import (
    DEFAULT_TREE,
    N_JOINTS,
    POSE_DIM,
    Encoding,
    JointId,
    KinematicTree,
    RigidTransform,
    SkeletonPose,
    SkeletonSequence,
    joint_slice,
    rigid_align,
    sequence_to_absolute,
    sequence_to_relative,
    to_absolute,
    to_relative,
    velocities,
)

from conftest import random_absolute_sequence


class TestJointSet:
    def test_sixteen_joints_with_fixed_indices(self):
        assert len(JointId) == 16
        assert sorted(int(j) for j in JointId) == list(range(16))
        assert JointId.SPINEMID == 0

    def test_pose_dim(self):
        assert POSE_DIM == 48


class TestKinematicTree:
    def test_default_tree_root_is_spinemid(self):
        assert DEFAULT_TREE.root == JointId.SPINEMID
        assert DEFAULT_TREE.parent_of(JointId.SPINEMID) == JointId.SPINEMID

    def test_every_joint_reaches_root(self):
        for joint in JointId:
            node = joint
            for _ in range(N_JOINTS):
                if node == JointId.SPINEMID:
                    break
                node = DEFAULT_TREE.parent_of(node)
            assert node == JointId.SPINEMID

    def test_topological_order_parents_first(self):
        order = DEFAULT_TREE.topological_order()
        assert order[0] == JointId.SPINEMID
        assert sorted(order) == sorted(JointId)
        seen = set()
        for joint in order:
            seen.add(joint)
            assert DEFAULT_TREE.parent_of(joint) in seen

    def test_cycle_rejected(self):
        parent = dict(DEFAULT_TREE.parent)
        parent[JointId.NECK] = JointId.WRISTLEFT
        parent[JointId.WRISTLEFT] = JointId.NECK
        with pytest.raises(ValueError):
            KinematicTree(parent)

    def test_wrong_root_rejected(self):
        parent = dict(DEFAULT_TREE.parent)
        parent[JointId.SPINEMID] = JointId.SPINEBASE
        with pytest.raises(ValueError):
            KinematicTree(parent)


class TestEncodingTransforms:
    def test_zero_pose_round(self, tree):
        pose = SkeletonPose(np.zeros(POSE_DIM), Encoding.ABSOLUTE)
        rel = to_relative(pose, tree)
        assert rel.encoding is Encoding.RELATIVE
        assert np.array_equal(rel.coords, np.zeros(POSE_DIM))

    def test_children_on_parents_collapse_to_zero_offsets(self, tree):
        coords = np.tile([1.0, 1.0, 1.0], N_JOINTS)
        rel = to_relative(SkeletonPose(coords, Encoding.ABSOLUTE), tree)
        assert np.array_equal(rel.coords[joint_slice(JointId.SPINEMID)], [1.0, 1.0, 1.0])
        for joint in JointId:
            if joint != JointId.SPINEMID:
                assert np.array_equal(rel.coords[joint_slice(joint)], [0.0, 0.0, 0.0])

    def test_round_trip_over_seeded_random_poses(self, tree):
        rng = np.random.default_rng(123)
        for _ in range(100):
            coords = rng.normal(scale=0.8, size=POSE_DIM)
            pose = SkeletonPose(coords, Encoding.ABSOLUTE)
            back = to_absolute(to_relative(pose, tree), tree)
            assert np.max(np.abs(back.coords - coords)) < 1e-12
            rel_pose = SkeletonPose(coords, Encoding.RELATIVE)
            back_rel = to_relative(to_absolute(rel_pose, tree), tree)
            assert np.max(np.abs(back_rel.coords - coords)) < 1e-12

    def test_chain_of_constant_offsets_sums_with_depth(self, tree):
        coords = np.zeros(POSE_DIM)
        for joint in JointId:
            if joint != JointId.SPINEMID:
                coords[joint_slice(joint)] = [0.0, 0.1, 0.0]
        absolute = to_absolute(SkeletonPose(coords, Encoding.RELATIVE), tree)
        for joint in JointId:
            depth, node = 0, joint
            while node != tree.root:
                node = tree.parent_of(node)
                depth += 1
            expected = np.array([0.0, 0.1 * depth, 0.0])
            assert np.max(np.abs(absolute.coords[joint_slice(joint)] - expected)) < 1e-12

    def test_wrong_encoding_rejected(self, tree):
        absolute = SkeletonPose(np.zeros(POSE_DIM), Encoding.ABSOLUTE)
        relative = SkeletonPose(np.zeros(POSE_DIM), Encoding.RELATIVE)
        with pytest.raises(EncodingError):
            to_relative(relative, tree)
        with pytest.raises(EncodingError):
            to_absolute(absolute, tree)

    def test_sequence_round_trip(self, tree):
        rng = np.random.default_rng(5)
        seq = random_absolute_sequence(rng, 20)
        back = sequence_to_absolute(sequence_to_relative(seq, tree), tree)
        assert np.max(np.abs(back.data - seq.data)) < 1e-12
        assert back.frame_rate_hz == seq.frame_rate_hz

    @given(st.lists(st.floats(-10, 10), min_size=POSE_DIM, max_size=POSE_DIM))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, coords):
        pose = SkeletonPose(np.array(coords), Encoding.ABSOLUTE)
        back = to_absolute(to_relative(pose, DEFAULT_TREE), DEFAULT_TREE)
        assert np.max(np.abs(back.coords - pose.coords)) < 1e-12


class TestVelocities:
    def test_constant_sequence_has_zero_velocities(self):
        seq = SkeletonSequence(np.ones((5, POSE_DIM)), Encoding.ABSOLUTE)
        assert np.array_equal(velocities(seq), np.zeros((4, POSE_DIM)))

    def test_linear_motion_has_constant_velocity(self):
        steps = np.zeros(POSE_DIM)
        steps[0] = 0.01
        data = np.arange(6)[:, None] * steps[None, :]
        vel = velocities(SkeletonSequence(data, Encoding.ABSOLUTE))
        assert np.allclose(vel, np.tile(steps, (5, 1)), atol=1e-15, rtol=0)

    def test_matches_per_element_subtraction_oracle(self):
        rng = np.random.default_rng(9)
        seq = random_absolute_sequence(rng, 12)
        vel = velocities(seq)
        for t in range(1, 12):
            for j in range(POSE_DIM):
                assert abs(vel[t - 1, j] - (seq.data[t, j] - seq.data[t - 1, j])) < 1e-15

    def test_too_short_rejected(self):
        seq = SkeletonSequence(np.zeros((1, POSE_DIM)), Encoding.ABSOLUTE)
        with pytest.raises(InsufficientFramesError):
            velocities(seq)

    def test_relative_encoding_rejected(self):
        seq = SkeletonSequence(np.zeros((3, POSE_DIM)), Encoding.RELATIVE)
        with pytest.raises(EncodingError):
            velocities(seq)

    def test_concatenation_splits_into_interior_plus_junction(self):
        rng = np.random.default_rng(11)
        first = random_absolute_sequence(rng, 6)
        second = random_absolute_sequence(rng, 7)
        merged = SkeletonSequence(
            np.vstack([first.data, second.data]), Encoding.ABSOLUTE
        )
        merged_vel = velocities(merged)
        junction = second.data[0] - first.data[-1]
        assert np.array_equal(merged_vel[:5], velocities(first))
        assert np.array_equal(merged_vel[6:], velocities(second))
        assert np.array_equal(merged_vel[5], junction)


def _rotation_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestRigidAlign:
    def test_identity_on_equal_point_sets(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(10, 3))
        xf = rigid_align(points, points)
        assert np.max(np.abs(xf.rotation - np.eye(3))) < 1e-12
        assert np.max(np.abs(xf.translation)) < 1e-12

    def test_recovers_constructed_transform(self):
        rng = np.random.default_rng(4)
        src = rng.normal(size=(25, 3))
        rotation = _rotation_z(np.pi / 2)
        translation = np.array([1.0, 2.0, 3.0])
        dst = src @ rotation.T + translation
        xf = rigid_align(src, dst)
        assert np.max(np.abs(xf.rotation - rotation)) < 1e-9
        assert np.max(np.abs(xf.translation - translation)) < 1e-9

    def test_noisy_alignment_residual_and_orthonormality(self):
        sigma = 1e-3
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            src = rng.normal(size=(30, 3))
            angle = rng.uniform(0, 2 * np.pi)
            rotation = _rotation_z(angle)
            translation = rng.normal(size=3)
            dst = src @ rotation.T + translation + rng.normal(scale=sigma, size=src.shape)
            xf = rigid_align(src, dst)
            residual = src @ xf.rotation.T + xf.translation - dst
            rms = np.sqrt(np.mean(np.sum(residual**2, axis=1)))
            assert rms <= 3 * sigma
            assert np.max(np.abs(xf.rotation.T @ xf.rotation - np.eye(3))) < 1e-9
            assert abs(np.linalg.det(xf.rotation) - 1.0) < 1e-9

    def test_collinear_points_rejected(self):
        src = np.outer(np.arange(5.0), [1.0, 0.0, 0.0])
        with pytest.raises(DegenerateGeometryError):
            rigid_align(src, src + [0.0, 1.0, 0.0])

    def test_coincident_points_rejected(self):
        src = np.ones((4, 3))
        with pytest.raises(DegenerateGeometryError):
            rigid_align(src, src)

    def test_too_few_points_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            rigid_align(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rigid_align(np.zeros((4, 3)), np.zeros((5, 3)))

    def test_improper_rotation_rejected_by_type(self):
        reflection = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidTransform(reflection, np.zeros(3))


class TestValueTypes:
    def test_pose_requires_48_finite_values(self):
        with pytest.raises(ValueError):
            SkeletonPose(np.zeros(47), Encoding.ABSOLUTE)
        bad = np.zeros(POSE_DIM)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            SkeletonPose(bad, Encoding.ABSOLUTE)

    def test_pose_is_immutable(self):
        pose = SkeletonPose(np.zeros(POSE_DIM), Encoding.ABSOLUTE)
        with pytest.raises(ValueError):
            pose.coords[0] = 1.0

    def test_sequence_needs_at_least_one_frame(self):
        with pytest.raises(ValueError):
            SkeletonSequence(np.zeros((0, POSE_DIM)), Encoding.ABSOLUTE)
