"""Stereo fixation geometry and the analytic eye/full Jacobians.

Ground truth comes from a brute-force closest-approach search (dense grid
over the left ray parameter, right parameter by exact perpendicular foot,
iteratively refined) and from central finite differences; a couple of
symmetric configurations additionally have hand-derivable closed forms.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazestab import InvalidInput, SingularConfiguration, finite_difference_jacobian, geometric_jacobian
from gazestab import stereo
from gazestab.chain import KinematicChain
from gazestab.models import HeadModel, default_head_model
from gazestab.stereo import (
    CameraFrames,
    camera_frames,
    collapse_head_q,
    expand_head_q,
    eye_jacobian,
    fixation_full_jacobian,
    fixation_point,
    head_layout,
)

MODEL = default_head_model()
CHAIN = MODEL.chain


# ---------------------------------------------------------------- oracles


def closest_points_oracle(o_l, z_l, o_r, z_r, span=1500.0, tol=1e-9):
    """Grid-refined brute-force closest approach between two rays.

    Scans a dense grid over the left parameter; for each sample the right
    parameter is the exact perpendicular foot b(a) = (o_l + a z_l - o_r).z_r,
    so the scan is one-dimensional and refinement cannot lose the minimum.

    For nearly parallel rays the valley is so flat that rounding noise in
    the sampled distances dominates the argmin.  The squared distance is
    exactly quadratic in the parameter, though, so a final parabola vertex
    through three widely spaced samples recovers the minimum without any
    flatness penalty (wide spacing keeps the curvature signal far above the
    evaluation noise; exactness of the quadratic means no truncation error).
    """

    def dist2(a):
        feet = (o_l - o_r) + a * z_l
        b = feet @ z_r
        d = feet - b * z_r
        return float(d @ d)

    lo, hi = -span, span
    best_a = 0.0
    while True:
        a = np.linspace(lo, hi, 2001)
        feet = (o_l - o_r)[None, :] + a[:, None] * z_l[None, :]
        b = feet @ z_r
        d = feet - b[:, None] * z_r[None, :]
        k = int(np.argmin(np.einsum("ij,ij->i", d, d)))
        step = a[1] - a[0]
        best_a = a[k]
        if hi - lo < tol:
            break
        lo, hi = best_a - 2 * step, best_a + 2 * step
    h = 1.0
    d0, d1, d2 = dist2(best_a - h), dist2(best_a), dist2(best_a + h)
    curvature = d2 - 2.0 * d1 + d0
    if curvature > 0.0:
        best_a = best_a - 0.5 * h * (d2 - d0) / curvature
    best_b = float((o_l + best_a * z_l - o_r) @ z_r)
    p_l = o_l + best_a * z_l
    p_r = o_r + best_b * z_r
    return p_l, p_r, best_a, best_b


def random_ray_pair(rng, min_angle=0.015):
    """Two unit rays with a guaranteed non-parallel angle between them."""
    o_l = rng.uniform(-2, 2, 3)
    o_r = rng.uniform(-2, 2, 3)
    z_l = rng.normal(size=3)
    z_l /= np.linalg.norm(z_l)
    angle = rng.uniform(min_angle, math.pi - min_angle)
    perp = np.cross(z_l, rng.normal(size=3))
    perp /= np.linalg.norm(perp)
    z_r = math.cos(angle) * z_l + math.sin(angle) * perp
    return o_l, z_l, o_r, z_r


def head_q(rng, vergence_range=(0.05, 0.6)):
    """Random well-conditioned 9-DoF head configuration."""
    q = rng.uniform(-0.4, 0.4, 9)
    q[8] = rng.uniform(*vergence_range)
    return q


# ------------------------------------------------------------- eye coupling


def eye_q(tilt, version, vergence):
    """9-DoF head vector with the trunk at rest."""
    return np.array([0.0] * 6 + [tilt, version, vergence])


def mech_q(tilt_left, pan_left, tilt_right, pan_right):
    """10 mechanical joint values with the trunk at rest."""
    return np.array([0.0] * 6 + [tilt_left, pan_left, tilt_right, pan_right])


def test_dof_to_joints_frozen_example():
    tilt_l, pan_l, tilt_r, pan_r = expand_head_q(eye_q(0.1, 0.05, 0.02))[6:]
    assert tilt_l == 0.1 and tilt_r == 0.1
    assert pan_l == pytest.approx(0.06, abs=1e-15)
    assert pan_r == pytest.approx(0.04, abs=1e-15)


def test_joints_to_dof_version_only():
    q = collapse_head_q(mech_q(0.0, 0.3, 0.0, 0.3))
    assert tuple(q[6:]) == (0.0, 0.3, 0.0)


def test_tilt_coupling_violation_rejected():
    with pytest.raises(InvalidInput, match="tilt coupling"):
        collapse_head_q(mech_q(0.1, 0.0, 0.2, 0.0))


@given(
    t=st.floats(-0.7, 0.7),
    v=st.floats(-0.8, 0.8),
    g=st.floats(-0.5, 0.8),
)
def test_coupling_round_trip(t, v, g):
    q = collapse_head_q(expand_head_q(eye_q(t, v, g)))
    assert q[6] == t
    assert abs(q[7] - v) < 1e-12
    assert abs(q[8] - g) < 1e-12


def test_expand_collapse_head_q():
    q = np.arange(9, dtype=float) / 10
    qm = expand_head_q(q)
    assert qm.shape == (10,)
    assert qm[6] == qm[8] == q[6]
    assert np.allclose(collapse_head_q(qm), q)
    bad = qm.copy()
    bad[8] += 1e-3  # breaks the shared-tilt invariant
    with pytest.raises(InvalidInput):
        collapse_head_q(bad)


# ------------------------------------------------------------ camera frames


def test_camera_frames_neutral_posture():
    fr = camera_frames(CHAIN, np.zeros(9))
    sep = fr.o_left - fr.o_right
    assert np.allclose(sep, [0.0, 0.068, 0.0], atol=1e-12)  # baseline, lateral axis
    assert np.allclose(fr.z_left, fr.z_right, atol=1e-12)  # parallel gaze
    assert np.allclose(fr.z_left, [1.0, 0.0, 0.0], atol=1e-12)


def test_camera_frames_pure_vergence_axis_angle():
    for g in (0.05, 0.2, 0.45):
        q = np.zeros(9)
        q[8] = g
        fr = camera_frames(CHAIN, q)
        assert fr.z_left @ fr.z_right == pytest.approx(math.cos(g), abs=1e-12)


def test_camera_frames_needs_head_topology():
    from gazestab import DHLink, KinematicChain

    serial = KinematicChain((DHLink(a=0.1),) * 4)
    with pytest.raises(InvalidInput):
        camera_frames(serial, np.zeros(4))


def test_camera_frames_rejects_non_unit_axis():
    with pytest.raises(InvalidInput):
        CameraFrames(
            o_left=np.zeros(3),
            o_right=np.array([0.0, -0.068, 0.0]),
            z_left=np.array([1.0, 0.0, 1.0]),  # not unit
            z_right=np.array([1.0, 0.0, 0.0]),
            rot_left=np.eye(3),
            rot_right=np.eye(3),
        )


# ----------------------------------------------------------- fixation point


def test_fixation_crossing_rays_exact_intersection():
    # Rays through (1, 0, 0) from laterally separated origins.
    fr = CameraFrames.from_rays(
        [0.0, 0.034, 0.0], [0.0, -0.034, 0.0], [1.0, -0.034, 0.0], [1.0, 0.034, 0.0]
    )
    fx = fixation_point(fr)
    assert np.allclose(fx.point, [1.0, 0.0, 0.0], atol=1e-12)
    assert fx.gap == pytest.approx(0.0, abs=1e-12)
    assert fx.s_left == pytest.approx(math.hypot(1.0, 0.034), abs=1e-12)


def test_fixation_skew_pair_hand_computed():
    # Left ray along x from origin; right ray along y from (0, 1, 1):
    # closest points are (0,0,0) and (0,0,1): midpoint (0,0,0.5), gap 1.
    fr = CameraFrames.from_rays([0, 0, 0], [0, 1, 1], [1, 0, 0], [0, 1, 0])
    fx = fixation_point(fr)
    assert np.allclose(fx.point, [0.0, 0.0, 0.5], atol=1e-12)
    assert fx.gap == pytest.approx(1.0, abs=1e-12)
    assert fx.s_left == pytest.approx(0.0, abs=1e-12)
    assert fx.s_right == pytest.approx(-1.0, abs=1e-12)


def test_fixation_matches_grid_oracle():
    rng = np.random.default_rng(101)
    for _ in range(60):
        o_l, z_l, o_r, z_r = random_ray_pair(rng)
        fx = fixation_point(CameraFrames.from_rays(o_l, o_r, z_l, z_r))
        p_l, p_r, _, _ = closest_points_oracle(o_l, z_l, o_r, z_r)
        assert np.allclose(fx.p_left, p_l, atol=1e-7)
        assert np.allclose(fx.p_right, p_r, atol=1e-7)
        assert np.allclose(fx.point, 0.5 * (p_l + p_r), atol=1e-7)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_fixation_orthogonality_invariant(seed):
    o_l, z_l, o_r, z_r = random_ray_pair(np.random.default_rng(seed))
    fx = fixation_point(CameraFrames.from_rays(o_l, o_r, z_l, z_r))
    sep = fx.p_left - fx.p_right
    assert abs(sep @ z_l) < 1e-9
    assert abs(sep @ z_r) < 1e-9
    assert fx.gap == pytest.approx(np.linalg.norm(sep), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_fixation_rigid_invariance(seed):
    from scipy.spatial.transform import Rotation

    rng = np.random.default_rng(seed)
    o_l, z_l, o_r, z_r = random_ray_pair(rng)
    fx = fixation_point(CameraFrames.from_rays(o_l, o_r, z_l, z_r))
    R = Rotation.random(random_state=int(rng.integers(2**31))).as_matrix()
    t = rng.uniform(-3, 3, 3)
    moved = fixation_point(CameraFrames.from_rays(R @ o_l + t, R @ o_r + t, R @ z_l, R @ z_r))
    assert np.allclose(moved.point, R @ fx.point + t, atol=1e-9)
    assert moved.gap == pytest.approx(fx.gap, abs=1e-9)


def test_fixation_parallel_rays_singular():
    fr = camera_frames(CHAIN, np.zeros(9))  # neutral posture: parallel gaze
    with pytest.raises(SingularConfiguration) as exc:
        fixation_point(fr)
    assert exc.value.denom == pytest.approx(0.0, abs=1e-12)
    # vergence 1e-5 rad -> denom ~ -1e-10, still inside the singular band
    q = np.zeros(9)
    q[8] = 1e-5
    with pytest.raises(SingularConfiguration):
        fixation_point(camera_frames(CHAIN, q))


def test_fixation_default_model_distance():
    # vergence for a 6 m target: g = 2 atan(half-baseline / distance)
    g = 2.0 * math.atan(0.034 / 6.0)
    q = np.zeros(9)
    q[8] = g
    fx = fixation_point(camera_frames(CHAIN, q))
    # eye plane sits at x = 0.11: intersection 6 m further out, centered
    assert np.allclose(fx.point, [6.11, 0.0, 0.40], atol=1e-9)
    assert fx.gap == pytest.approx(0.0, abs=1e-10)


def test_fixation_divergent_gaze_lands_behind():
    q = np.zeros(9)
    q[8] = -0.1  # diverging rays: closest approach behind the head
    fx = fixation_point(camera_frames(CHAIN, q))
    assert fx.s_left < 0
    assert fx.point[0] < 0.11


# -------------------------------------------------------------- derivatives


def _fd_eye_jacobian(q):
    def f(eye_part):
        qq = np.concatenate([q[:6], eye_part])
        return fixation_point(camera_frames(CHAIN, qq)).point

    return finite_difference_jacobian(f, q[6:9])


def test_eye_jacobian_matches_fd_random_configs():
    rng = np.random.default_rng(202)
    for _ in range(30):
        q = head_q(rng)
        assert np.allclose(eye_jacobian(CHAIN, q), _fd_eye_jacobian(q), atol=1e-6)


def test_eye_jacobian_tilt_column_closed_form():
    # The common tilt axis passes through both optical centers, so the whole
    # ray pair rotates rigidly about it: column = axis x (point - axis_origin).
    g = 2.0 * math.atan(0.034 / 6.0)
    q = np.zeros(9)
    q[8] = g
    J = eye_jacobian(CHAIN, q)
    fx = fixation_point(camera_frames(CHAIN, q))
    axis, origin = np.array([0.0, 1.0, 0.0]), np.array([0.11, 0.0, 0.40])
    assert np.allclose(J[:, 0], np.cross(axis, fx.point - origin), atol=1e-9)


def test_eye_jacobian_vergence_column_closed_form():
    # Symmetric posture: x_fp = eye_x + (b/2)/tan(g/2), so
    # d x_fp / d vergence = -(b/4) / sin^2(g/2), purely along the gaze.
    for g in (0.011330045546190854, 0.1, 0.3):  # first value: 6 m fixation
        q = np.zeros(9)
        q[8] = g
        J = eye_jacobian(CHAIN, q)
        expected = -(0.068 / 4.0) / math.sin(g / 2.0) ** 2
        assert J[0, 2] == pytest.approx(expected, rel=1e-9)
        assert abs(J[1, 2]) < 1e-9 and abs(J[2, 2]) < 1e-9


def test_eye_jacobian_vergence_sign_pulls_point_inward():
    # More vergence = closer fixation: forward component strictly negative.
    rng = np.random.default_rng(203)
    for _ in range(10):
        q = head_q(rng)
        q[:6] = 0.0
        J = eye_jacobian(CHAIN, q)
        gaze = fixation_point(camera_frames(CHAIN, q)).point - np.array([0.11, 0, 0.40])
        assert J[:, 2] @ gaze < 0.0


def test_eye_jacobian_singular_configuration():
    with pytest.raises(SingularConfiguration):
        eye_jacobian(CHAIN, np.zeros(9))


# ----------------------------------------------------------- full Jacobian


def test_full_jacobian_translation_matches_fd():
    rng = np.random.default_rng(301)
    for _ in range(15):
        q = head_q(rng)

        def f(qq):
            return fixation_point(camera_frames(CHAIN, qq)).point

        J = fixation_full_jacobian(CHAIN, q)
        assert np.allclose(J[:3], finite_difference_jacobian(f, q), atol=1e-6)


def test_full_jacobian_rotation_rows():
    from gazestab.chain import dh_matrix

    rng = np.random.default_rng(302)
    q = head_q(rng)
    J = fixation_full_jacobian(CHAIN, q)
    # trunk rotational columns are the world joint axes
    qm = expand_head_q(q)
    T = CHAIN.base_pose.matrix()
    for i in range(6):
        assert np.allclose(J[3:, i], T[:3, 2], atol=1e-12)
        T = T @ dh_matrix(CHAIN.links[i], qm[i])
    # eye DoF contribute no head rotation
    assert np.all(J[3:, 6:9] == 0.0)


def test_full_jacobian_shape_and_determinism():
    rng = np.random.default_rng(303)
    q = head_q(rng)
    a = fixation_full_jacobian(CHAIN, q)
    assert a.shape == (6, 9)
    fixation_full_jacobian(CHAIN, head_q(rng))  # evicts q's head pass: the next call walks again
    assert a.tobytes() == fixation_full_jacobian(CHAIN, q).tobytes()


def count_dh_calls(monkeypatch):
    """Counter of dh_matrix calls, starting with no head pass kept."""
    import gazestab.chain

    monkeypatch.setattr(stereo, "_last_head_pass", (None, b"", None))
    calls = [0]
    real = gazestab.chain.dh_matrix

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(gazestab.chain, "dh_matrix", counted)
    return calls


def test_camera_frames_walk_each_link_once(monkeypatch):
    calls = count_dh_calls(monkeypatch)
    camera_frames(CHAIN, head_q(np.random.default_rng(304)))
    assert calls[0] == CHAIN.n_joints


def test_full_jacobian_walks_each_link_once(monkeypatch):
    calls = count_dh_calls(monkeypatch)
    fixation_full_jacobian(CHAIN, head_q(np.random.default_rng(305)))
    assert calls[0] == CHAIN.n_joints


def test_camera_frames_then_full_jacobian_share_one_walk(monkeypatch):
    calls = count_dh_calls(monkeypatch)
    q = head_q(np.random.default_rng(312))
    camera_frames(CHAIN, q)
    fixation_full_jacobian(CHAIN, q)
    assert calls[0] == CHAIN.n_joints


def test_head_pass_hit_returns_identical_results(monkeypatch):
    calls = count_dh_calls(monkeypatch)
    q = head_q(np.random.default_rng(313))
    cold_frames = camera_frames(CHAIN, q)
    fixation_full_jacobian(CHAIN, head_q(np.random.default_rng(314)))
    cold_J = fixation_full_jacobian(CHAIN, q)
    walked = calls[0]
    hit_frames, hit_J = camera_frames(CHAIN, q), fixation_full_jacobian(CHAIN, q)
    assert calls[0] == walked
    assert hit_J.tobytes() == cold_J.tobytes()
    for name in ("o_left", "o_right", "z_left", "z_right", "rot_left", "rot_right"):
        assert getattr(hit_frames, name).tobytes() == getattr(cold_frames, name).tobytes()


def test_head_pass_misses_on_another_chain_or_q(monkeypatch):
    calls = count_dh_calls(monkeypatch)
    q = head_q(np.random.default_rng(315))
    twin = KinematicChain(CHAIN.links, CHAIN.base_pose, CHAIN.segments)
    frames = camera_frames(CHAIN, q)
    twin_frames = camera_frames(twin, q)  # an equal chain, but another object
    assert calls[0] == 2 * CHAIN.n_joints
    assert twin_frames is not frames and np.array_equal(twin_frames.rot_left, frames.rot_left)
    q2 = q.copy()
    q2[0] = np.nextafter(q2[0], 1.0)
    camera_frames(twin, q2)
    assert calls[0] == 3 * CHAIN.n_joints


def test_head_pass_arrays_are_read_only():
    q = head_q(np.random.default_rng(316))
    head = stereo._head_pass(CHAIN, q)
    cams, fx = head.cams, head.fx
    assert fx is not None and head.jacobian is None
    fixation_full_jacobian(CHAIN, q)  # fills the record's J slot
    arrays = (head.q_mech, head.link_frames, cams.o_left, cams.z_right, cams.rot_left, fx.point, fx.p_left, fx.p_right)
    for arr in arrays + (head.jacobian,):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def count_jacobian_work(monkeypatch):
    """Counter of the geometric_jacobian calls fixation_full_jacobian makes,
    starting with no head pass kept."""
    monkeypatch.setattr(stereo, "_last_head_pass", (None, b"", None))
    calls = [0]
    real = stereo.geometric_jacobian

    def counted(*args, **kw):
        calls[0] += 1
        return real(*args, **kw)

    monkeypatch.setattr(stereo, "geometric_jacobian", counted)
    return calls


def test_full_jacobian_repeat_hands_out_writable_copies(monkeypatch):
    calls = count_jacobian_work(monkeypatch)
    q = head_q(np.random.default_rng(317))
    first = fixation_full_jacobian(CHAIN, q)
    assert calls[0] == 3
    second = fixation_full_jacobian(CHAIN, q)
    assert calls[0] == 3  # the state's kept J
    assert second is not first and second.tobytes() == first.tobytes()
    assert first.flags.writeable and second.flags.writeable
    kept = second.tobytes()
    first[:] = 0.0
    second[:] = np.nan
    assert fixation_full_jacobian(CHAIN, q).tobytes() == kept
    assert calls[0] == 3


def test_full_jacobian_recomputed_for_another_state(monkeypatch):
    # A new q, an equal chain that is another object, and a reset head-pass
    # record each compute J afresh, to the same bits where the state agrees.
    calls = count_jacobian_work(monkeypatch)
    q = head_q(np.random.default_rng(318))
    J = fixation_full_jacobian(CHAIN, q).tobytes()
    q2 = q.copy()
    q2[0] = np.nextafter(q2[0], 1.0)
    fixation_full_jacobian(CHAIN, q2)
    assert calls[0] == 6
    twin = KinematicChain(CHAIN.links, CHAIN.base_pose, CHAIN.segments)
    assert fixation_full_jacobian(twin, q).tobytes() == J
    assert calls[0] == 9
    monkeypatch.setattr(stereo, "_last_head_pass", (None, b"", None))
    assert fixation_full_jacobian(twin, q).tobytes() == J
    assert calls[0] == 12


def test_full_jacobian_singular_state_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(SingularConfiguration):
            fixation_full_jacobian(CHAIN, np.zeros(9))


def test_full_jacobian_trunk_block_is_geometric_jacobian():
    lay = head_layout(CHAIN)
    for seed in range(306, 311):
        q = head_q(np.random.default_rng(seed))
        x_fp = fixation_point(camera_frames(CHAIN, q)).point
        Jg = geometric_jacobian(CHAIN, expand_head_q(q), x_fp, lay.cam_left)
        assert np.array_equal(fixation_full_jacobian(CHAIN, q)[:, :6], Jg[:, list(lay.trunk)])


def test_head_layout_indices():
    lay = head_layout(CHAIN)
    assert lay.trunk == (0, 1, 2, 3, 4, 5)
    assert (lay.tilt_left, lay.pan_left, lay.tilt_right, lay.pan_right) == (6, 7, 8, 9)
    assert lay.cam_left == 7 and lay.cam_right == 9


# The same ten links in another segment order: the eye blocks swapped, or
# the torso and neck links interleaved.  Both are valid chains, but not heads.
NOT_A_HEAD = {
    "eyes-swapped": KinematicChain(
        CHAIN.links[:6] + CHAIN.links[8:] + CHAIN.links[6:8],
        segments=CHAIN.segments[:6] + CHAIN.segments[8:] + CHAIN.segments[6:8],
    ),
    "trunk-interleaved": KinematicChain(CHAIN.links, segments=("torso", "neck") * 3 + CHAIN.segments[6:]),
}


@pytest.mark.parametrize("name", sorted(NOT_A_HEAD))
def test_a_chain_of_another_shape_is_not_a_head(name):
    chain = NOT_A_HEAD[name]
    q = head_q(np.random.default_rng(317))
    with pytest.raises(InvalidInput, match="torso:3 neck:3 left-eye:2 right-eye:2"):
        HeadModel(chain=chain, imu_link=5)
    with pytest.raises(InvalidInput, match="torso:3 neck:3 left-eye:2 right-eye:2"):
        camera_frames(chain, q)
    with pytest.raises(InvalidInput, match="torso:3 neck:3 left-eye:2 right-eye:2"):
        fixation_full_jacobian(chain, q)
