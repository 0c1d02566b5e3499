"""Kinematics core: DH transform, forward kinematics, Jacobians.

Expected values come from two independent routes: the DH transform is checked
against an explicit product of the four elementary 4x4 matrices, and every
analytic Jacobian is checked against central finite differences.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gazestab import (
    DHLink,
    InvalidInput,
    KinematicChain,
    OracleFailure,
    Pose,
    analytic_axis_jacobian,
    default_head_model,
    dh_matrix,
    finite_difference_jacobian,
    forward_kinematics,
    geometric_jacobian,
    link_frames,
)
from gazestab.chain import _cross_rows

# ---------------------------------------------------------------- oracles


def _rot_z(t):
    c, s = math.cos(t), math.sin(t)
    T = np.eye(4)
    T[:2, :2] = [[c, -s], [s, c]]
    return T


def _rot_x(t):
    c, s = math.cos(t), math.sin(t)
    T = np.eye(4)
    T[1:3, 1:3] = [[c, -s], [s, c]]
    return T


def _trans_z(d):
    T = np.eye(4)
    T[2, 3] = d
    return T


def _trans_x(a):
    T = np.eye(4)
    T[0, 3] = a
    return T


def dh_oracle(a, d, alpha, theta):
    """Elementary-matrix route: Rot_z @ Trans_z @ Trans_x @ Rot_x."""
    return _rot_z(theta) @ _trans_z(d) @ _trans_x(a) @ _rot_x(alpha)


def random_chain(rng, n=None, branch=False):
    n = n if n is not None else rng.integers(2, 7)
    links = [
        DHLink(
            a=rng.uniform(-0.4, 0.4),
            d=rng.uniform(-0.4, 0.4),
            alpha=rng.uniform(-math.pi, math.pi),
            theta_offset=rng.uniform(-math.pi, math.pi),
        )
        for _ in range(int(n))
    ]
    segments = None
    if branch:
        links += [links[0], links[1], links[0], links[1]]
        segments = ("link",) * int(n) + ("left-eye",) * 2 + ("right-eye",) * 2
    return KinematicChain(tuple(links), segments=segments or ())


# ----------------------------------------------------------- dh transform


def test_dh_matrix_pure_a_offset():
    # a=0.1 and everything else zero is a straight x translation.
    T = dh_matrix(DHLink(a=0.1), 0.0)
    assert np.allclose(T[:3, :3], np.eye(3))
    assert np.allclose(T[:3, 3], [0.1, 0.0, 0.0])


@given(
    a=st.floats(-1, 1),
    d=st.floats(-1, 1),
    alpha=st.floats(-math.pi, math.pi),
    off=st.floats(-math.pi, math.pi),
    q=st.floats(-2 * math.pi, 2 * math.pi),
)
def test_dh_matrix_matches_elementary_product(a, d, alpha, off, q):
    link = DHLink(a=a, d=d, alpha=alpha, theta_offset=off)
    assert np.allclose(dh_matrix(link, q), dh_oracle(a, d, alpha, q + off), atol=1e-12)


@given(
    a=st.floats(-1, 1),
    d=st.floats(-1, 1),
    alpha=st.floats(-math.pi, math.pi),
    q=st.floats(-2 * math.pi, 2 * math.pi),
)
def test_dh_rotation_block_orthonormal(a, d, alpha, q):
    R = dh_matrix(DHLink(a=a, d=d, alpha=alpha), q)[:3, :3]
    assert np.allclose(R.T @ R, np.eye(3), atol=1e-9)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------ forward kinematics


def test_fk_two_link_planar():
    chain = KinematicChain((DHLink(a=1.0), DHLink(a=1.0)))
    pose = forward_kinematics(chain, [math.pi / 2, 0.0])
    assert np.allclose(pose.pos, [0.0, 2.0, 0.0], atol=1e-12)
    # elbow at 90 deg too: x = cos0 + cos90, y = sin0 + sin90
    pose = forward_kinematics(chain, [0.0, math.pi / 2])
    assert np.allclose(pose.pos, [1.0, 1.0, 0.0], atol=1e-12)


def test_fk_prefix_q_is_enough():
    chain = random_chain(np.random.default_rng(3), n=5)
    q = np.random.default_rng(4).uniform(-1, 1, 5)
    a = forward_kinematics(chain, q[:3], link_index=2)
    b = forward_kinematics(chain, q, link_index=2)
    assert np.allclose(a.matrix(), b.matrix())
    with pytest.raises(InvalidInput):
        forward_kinematics(chain, q[:2], link_index=2)


def test_fk_base_pose_composes():
    base = Pose(_rot_z(0.7)[:3, :3], np.array([1.0, -2.0, 0.5]))
    chain = KinematicChain((DHLink(a=0.3),), base_pose=base)
    pose = forward_kinematics(chain, [0.0])
    assert np.allclose(pose.pos, base.transform([0.3, 0.0, 0.0]))


@pytest.mark.parametrize(
    "base",
    [
        Pose(np.eye(3), [0.0, math.nan, 0.0]),
        Pose(np.eye(3), [math.inf, 0.0, 0.0]),
        Pose(np.diag([1.0, math.nan, 1.0]), np.zeros(3)),
        Pose(2.0 * np.eye(3), np.zeros(3)),
    ],
    ids=["nan-position", "inf-position", "nan-rotation", "scaled-rotation"],
)
def test_chain_rejects_a_base_pose_that_is_not_a_finite_rigid_transform(base):
    # Camera frames are built from the chain's own walk without re-checking,
    # so the base pose they start from is checked once, here.
    with pytest.raises(InvalidInput, match="base_pose"):
        KinematicChain((DHLink(a=0.3),), base_pose=base)


def test_fk_matches_elementary_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        chain = random_chain(rng)
        q = rng.uniform(-2, 2, chain.n_joints)
        T = chain.base_pose.matrix()
        for link, qi in zip(chain.links, q):
            T = T @ dh_oracle(link.a, link.d, link.alpha, qi + link.theta_offset)
        assert np.allclose(forward_kinematics(chain, q).matrix(), T, atol=1e-10)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**31), qseed=st.integers(0, 2**31))
def test_fk_rotation_stays_orthonormal(seed, qseed):
    chain = random_chain(np.random.default_rng(seed))
    q = np.random.default_rng(qseed).uniform(-3, 3, chain.n_joints)
    R = forward_kinematics(chain, q).rot
    assert np.allclose(R.T @ R, np.eye(3), atol=1e-9)


def test_fk_out_of_range_link_raises_indexerror():
    chain = KinematicChain((DHLink(a=1.0),))
    with pytest.raises(IndexError):
        forward_kinematics(chain, [0.0], link_index=1)
    with pytest.raises(IndexError):
        forward_kinematics(chain, [0.0], link_index=-1)


def test_fk_determinism_bit_identical():
    chain = random_chain(np.random.default_rng(8))
    q = np.random.default_rng(9).uniform(-1, 1, chain.n_joints)
    a = forward_kinematics(chain, q).matrix()
    b = forward_kinematics(chain, q).matrix()
    assert a.tobytes() == b.tobytes()


# ------------------------------------------------------- branching chains


def test_branch_paths_share_trunk_and_skip_other_eye():
    chain = random_chain(np.random.default_rng(21), n=4, branch=True)
    # layout: 0..3 trunk, 4..5 left-eye, 6..7 right-eye
    assert chain.path_indices(5) == [0, 1, 2, 3, 4, 5]
    assert chain.path_indices(7) == [0, 1, 2, 3, 6, 7]
    q = np.random.default_rng(22).uniform(-1, 1, 8)
    left = forward_kinematics(chain, q, link_index=5)
    q2 = q.copy()
    q2[6:8] += 1.0  # moving the right eye must not move the left
    assert np.allclose(left.matrix(), forward_kinematics(chain, q2, link_index=5).matrix())


def test_link_frames_match_path_products():
    chain = random_chain(np.random.default_rng(23), n=3, branch=True)
    q = np.random.default_rng(24).uniform(-1, 1, chain.n_joints)
    frames = link_frames(chain, q)
    assert frames.shape == (chain.n_joints + 1, 4, 4)
    assert np.array_equal(frames[-1], chain.base_pose.matrix())
    assert chain.parents == (-1, 0, 1, 2, 3, 2, 5)
    # link_frames forms its link transforms with np.cos and np.sin on all
    # links at once, dh_matrix with math.cos and math.sin on one: the bits
    # match only where these round alike, so the postures reach |q| = 1000.
    rng = np.random.default_rng(27)
    for ch in (chain, default_head_model().chain):
        for scale in (1.0, 4.0, 1000.0):
            for q in rng.uniform(-scale, scale, (30, ch.n_joints)):
                frames = link_frames(ch, q)
                for k in range(ch.n_joints):
                    T = ch.base_pose.matrix()
                    for i in ch.path_indices(k):
                        T = T @ dh_matrix(ch.links[i], q[i])
                    assert frames[k].tobytes() == T.tobytes(), (scale, q, k)
    # a prefix of q gives the prefix of the frames
    assert np.array_equal(link_frames(ch, q[:4])[:4], frames[:4])
    with pytest.raises(InvalidInput):
        link_frames(ch, np.zeros(ch.n_joints + 1))


def test_helpers_read_a_given_link_frames_stack():
    chain = random_chain(np.random.default_rng(25), n=3, branch=True)
    q = np.random.default_rng(26).uniform(-1, 1, chain.n_joints)
    frames = link_frames(chain, q)
    pt = np.array([0.3, -0.2, 0.5])
    for k in range(chain.n_joints):
        fk = forward_kinematics(chain, q, k, frames=frames)
        assert np.array_equal(fk.matrix(), forward_kinematics(chain, q, k).matrix())
        assert np.array_equal(geometric_jacobian(chain, q, pt, k, frames=frames), geometric_jacobian(chain, q, pt, k))
        assert np.array_equal(analytic_axis_jacobian(chain, q, k, frames=frames), analytic_axis_jacobian(chain, q, k))


FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(0, 8), broadcast=st.booleans())
def test_cross_rows_matches_np_cross_bytes(data, k, broadcast):
    # k = 0 draws two 3-vectors: estimate_ifb's lever-arm product
    a = data.draw(arrays(np.float64, (k, 3) if k else (3,), elements=FINITE))
    b = data.draw(arrays(np.float64, (3,) if broadcast or not k else (k, 3), elements=FINITE))
    expected = np.cross(a, b).T
    assert _cross_rows(a, b).shape == expected.shape
    assert _cross_rows(a, b).tobytes() == expected.tobytes()


def test_limit_arrays_are_cached_and_read_only():
    links = (DHLink(q_min=-1.0, q_max=0.5, v_max=2.0), DHLink())
    chain = KinematicChain(links)
    for name in ("q_min", "q_max", "v_max"):
        arr = getattr(chain, name)
        assert arr.tobytes() == np.array([getattr(link, name) for link in links]).tobytes()
        assert getattr(chain, name) is arr
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_trunk_after_eye_rejected():
    with pytest.raises(InvalidInput):
        KinematicChain(
            (DHLink(), DHLink(), DHLink()),
            segments=("link", "left-eye", "link"),
        )


# ------------------------------------------------------------- jacobians


def _fd_point_jacobian(chain, q, link_index, local):
    def f(qv):
        return forward_kinematics(chain, qv, link_index).transform(local)

    return finite_difference_jacobian(f, q)


def test_geometric_jacobian_matches_fd_random_serial():
    rng = np.random.default_rng(33)
    for _ in range(25):
        chain = random_chain(rng)
        q = rng.uniform(-2, 2, chain.n_joints)
        local = rng.uniform(-0.3, 0.3, 3)
        point = forward_kinematics(chain, q).transform(local)
        J = geometric_jacobian(chain, q, point)
        assert np.allclose(J[:3], _fd_point_jacobian(chain, q, chain.n_joints - 1, local), atol=1e-6)


def test_geometric_jacobian_rotational_rows_are_axes():
    rng = np.random.default_rng(34)
    chain = random_chain(rng, n=5)
    q = rng.uniform(-2, 2, 5)
    J = geometric_jacobian(chain, q, np.zeros(3))
    T = chain.base_pose.matrix()
    for i, link in enumerate(chain.links):
        assert np.allclose(J[3:, i], T[:3, 2])
        T = T @ dh_matrix(link, q[i])


def test_geometric_jacobian_point_at_last_joint_origin():
    # Translational rows of the last column vanish when the point sits on
    # the last joint axis origin.
    rng = np.random.default_rng(35)
    chain = random_chain(rng, n=4)
    q = rng.uniform(-2, 2, 4)
    axes_origin = forward_kinematics(chain, q, link_index=2).pos  # joint 3's origin
    J = geometric_jacobian(chain, q, axes_origin, link_index=3)
    assert np.allclose(J[:3, 3], 0.0, atol=1e-12)


def test_geometric_jacobian_off_branch_columns_zero():
    rng = np.random.default_rng(36)
    chain = random_chain(rng, n=3, branch=True)
    q = rng.uniform(-1, 1, chain.n_joints)
    left_cam = forward_kinematics(chain, q, link_index=4).pos
    J = geometric_jacobian(chain, q, left_cam, link_index=4)
    assert np.all(J[:, 5:7] == 0.0)
    # and the left block matches finite differences
    Jfd = _fd_point_jacobian(chain, q, 4, np.zeros(3))
    assert np.allclose(J[:3], Jfd, atol=1e-6)


def test_axis_jacobian_matches_fd_random():
    rng = np.random.default_rng(37)
    for _ in range(25):
        chain = random_chain(rng)
        q = rng.uniform(-2, 2, chain.n_joints)
        k = int(rng.integers(0, chain.n_joints))

        def f(qv):
            return forward_kinematics(chain, qv, k).rot[:, 2]

        assert np.allclose(analytic_axis_jacobian(chain, q, k), finite_difference_jacobian(f, q), atol=1e-6)


def test_axis_jacobian_aligned_single_link_is_zero():
    # Link z parallel to its own joint axis: spinning changes nothing.
    chain = KinematicChain((DHLink(a=0.0, d=0.2, alpha=0.0),))
    J = analytic_axis_jacobian(chain, [0.4], 0)
    assert np.allclose(J, 0.0, atol=1e-15)


def test_axis_jacobian_downstream_columns_zero():
    rng = np.random.default_rng(38)
    chain = random_chain(rng, n=5)
    q = rng.uniform(-2, 2, 5)
    J = analytic_axis_jacobian(chain, q, 2)
    assert np.all(J[:, 3:] == 0.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_jacobian_agreement_property(seed):
    rng = np.random.default_rng(seed)
    chain = random_chain(rng)
    q = rng.uniform(-2, 2, chain.n_joints)
    point = forward_kinematics(chain, q).pos
    J = geometric_jacobian(chain, q, point)
    Jfd = _fd_point_jacobian(chain, q, chain.n_joints - 1, np.zeros(3))
    assert np.max(np.abs(J[:3] - Jfd)) < 1e-6


# ------------------------------------------------- finite-difference oracle


def test_fd_oracle_on_closed_form():
    # f(q) = (sin q0, q0*q1, q1^2) has a hand-computable Jacobian.
    def f(q):
        return np.array([math.sin(q[0]), q[0] * q[1], q[1] ** 2])

    q0 = np.array([0.3, -1.2])
    expected = np.array([[math.cos(0.3), 0.0], [-1.2, 0.3], [0.0, -2.4]])
    assert np.allclose(finite_difference_jacobian(f, q0), expected, atol=1e-8)


def test_fd_oracle_reports_offending_column():
    def f(q):
        if q[1] > 0.05:
            return np.array([math.nan])
        return np.array([q[0] + q[1]])

    with pytest.raises(OracleFailure) as exc:
        finite_difference_jacobian(f, np.array([0.0, 0.05]), step=1e-2)
    assert exc.value.column == 1


def test_fd_oracle_rejects_bad_step():
    with pytest.raises(InvalidInput):
        finite_difference_jacobian(lambda q: q, np.zeros(2), step=0.0)


# ------------------------------------------------------------- value types


def test_dhlink_validation():
    with pytest.raises(InvalidInput):
        DHLink(a=math.nan)
    with pytest.raises(InvalidInput):
        DHLink(q_min=1.0, q_max=-1.0)
    with pytest.raises(InvalidInput):
        DHLink(v_max=0.0)


def test_pose_roundtrip_and_inverse():
    rng = np.random.default_rng(51)
    chain = random_chain(rng, n=3)
    pose = forward_kinematics(chain, rng.uniform(-1, 1, 3))
    assert np.allclose(pose.inverse().compose(pose).matrix(), np.eye(4), atol=1e-12)
    assert np.allclose(Pose.from_matrix(pose.matrix()).matrix(), pose.matrix())


def test_jacobian_rejects_wrong_length_q():
    chain = random_chain(np.random.default_rng(52), n=3)
    with pytest.raises(InvalidInput):
        geometric_jacobian(chain, [0.0, 0.0], np.zeros(3))
