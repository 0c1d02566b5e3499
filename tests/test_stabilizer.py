"""Estimators and the decoupled compensation law.

The damped pseudo-inverse is checked against an independent normal-equations
solve; estimator outputs against directional finite differences and
hand-computable lever arms; the compensation law against the annihilation
property it exists for.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazestab import InvalidInput, SingularMatrix
from gazestab.models import default_head_model
from gazestab.stabilizer import (
    ImuSample,
    StabilizerCommand,
    StabilizerConfig,
    Twist,
    compensate,
    estimate_ifb,
    estimate_kff,
    pinv_damped,
)
from gazestab.stereo import camera_frames, fixation_full_jacobian, fixation_point

MODEL = default_head_model()
CHAIN = MODEL.chain


def head_q(rng):
    q = rng.uniform(-0.3, 0.3, 9)
    q[8] = rng.uniform(0.05, 0.5)
    return q


def normal_equations_apply(J, lam, b):
    """Independent route: x = (J^T J + lam^2 I)^-1 J^T b."""
    n = J.shape[1]
    return np.linalg.solve(J.T @ J + lam * lam * np.eye(n), J.T @ b)


# ---------------------------------------------------------------- pinv_damped


def test_pinv_damped_frozen_diagonal():
    J = np.diag([2.0, 1.0, 0.0])
    P = pinv_damped(J, 0.5)
    assert np.allclose(P, np.diag([2.0 / 4.25, 1.0 / 1.25, 0.0]), atol=1e-12)


def test_pinv_damped_zero_damping_is_inverse():
    rng = np.random.default_rng(7)
    J = rng.uniform(-1, 1, (3, 3)) + 3 * np.eye(3)
    assert np.allclose(pinv_damped(J, 0.0), np.linalg.inv(J), atol=1e-10)


def test_pinv_damped_singular_raises_without_damping():
    with pytest.raises(SingularMatrix):
        pinv_damped(np.diag([1.0, 1.0, 0.0]), 0.0)
    # ... but succeeds with damping
    P = pinv_damped(np.diag([1.0, 1.0, 0.0]), 0.1)
    assert np.all(np.isfinite(P))


@settings(max_examples=60)
@given(seed=st.integers(0, 2**31), lam=st.floats(1e-6, 1.0))
def test_pinv_damped_matches_normal_equations(seed, lam):
    rng = np.random.default_rng(seed)
    J = rng.uniform(-2, 2, (3, 3))
    b = rng.uniform(-1, 1, 3)
    assert np.allclose(pinv_damped(J, lam) @ b, normal_equations_apply(J, lam, b), atol=1e-9)


@settings(max_examples=40)
@given(seed=st.integers(0, 2**31))
def test_pinv_damped_more_damping_never_amplifies(seed):
    rng = np.random.default_rng(seed)
    J = rng.uniform(-2, 2, (3, 3))
    b = rng.uniform(-1, 1, 3)
    lams = [1e-4, 1e-2, 0.1, 1.0]
    norms = [np.linalg.norm(pinv_damped(J, l) @ b) for l in lams]
    # SVD gains s/(s^2+lam^2) shrink monotonically with lam, component-wise
    gains = [np.linalg.norm(pinv_damped(J, l), ord=2) for l in lams]
    assert all(a >= b_ - 1e-12 for a, b_ in zip(gains, gains[1:]))


def test_pinv_damped_rejects_bad_inputs():
    with pytest.raises(InvalidInput):
        pinv_damped(np.ones((2, 2)), -1.0)
    with pytest.raises(InvalidInput):
        pinv_damped(np.array([1.0, 2.0]), 0.1)


@pytest.mark.parametrize("damping", [0.0, 1e-3, 0.5])
def test_pinv_damped_stack_matches_each_slice(damping):
    rng = np.random.default_rng(11)
    stack = rng.uniform(-2.0, 2.0, (7, 3, 3)) + 2.0 * np.eye(3)
    P = pinv_damped(stack, damping)
    assert P.shape == stack.shape
    for k in range(stack.shape[0]):
        assert np.array_equal(P[k], pinv_damped(stack[k], damping))


def test_pinv_damped_stack_raises_if_any_slice_is_singular():
    stack = np.array([np.eye(3), np.diag([1.0, 1.0, 0.0]), 2.0 * np.eye(3)])
    with pytest.raises(SingularMatrix):
        pinv_damped(stack, 0.0)
    assert np.isfinite(pinv_damped(stack, 0.1)).all()


@pytest.fixture
def svd_calls(monkeypatch):
    """A list that grows by one per np.linalg.svd call."""
    calls, real = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


def test_pinv_damped_repeat_is_a_fresh_writable_array(svd_calls):
    # pinv_damped keeps nothing: each call runs its own SVD and returns its
    # own array, so writing into one result reaches no other.
    J = np.random.default_rng(13).uniform(-2.0, 2.0, (2, 3, 3))
    fresh = pinv_damped(J, 1e-3)
    kept = fresh.tobytes()
    fresh[...] = 0.0
    again = pinv_damped(J.copy(), 1e-3)
    assert again is not fresh and again.flags.writeable and again.tobytes() == kept
    assert len(svd_calls) == 2


def test_pinv_damped_follows_damping_and_shape(svd_calls):
    J = np.random.default_rng(14).uniform(-2.0, 2.0, (2, 3, 3))
    assert pinv_damped(J, 1e-3).tobytes() != pinv_damped(J, 2e-3).tobytes()
    flat = J.reshape(3, 6)  # the same bytes in another shape
    assert pinv_damped(flat, 2e-3).shape == (6, 3)
    assert len(svd_calls) == 3


def test_pinv_damped_never_keeps_a_singular_matrix(svd_calls):
    S = np.diag([1.0, 1.0, 0.0])
    assert np.isfinite(pinv_damped(S, 0.1)).all()
    for _ in range(2):
        with pytest.raises(SingularMatrix):
            pinv_damped(S, 0.0)
    assert len(svd_calls) == 3


def test_compensate_eyes_mode_leaves_a_singular_neck_block_uninverted():
    J = fixation_full_jacobian(CHAIN, head_q(np.random.default_rng(3)))
    J[3:6, 3:6] = 0.0  # no neck rotation at all
    cfg = StabilizerConfig(dof_set="eyes", damping=0.0)
    cmd = compensate(Twist(np.array([0.01, -0.02, 0.0]), np.array([0.1, 0.0, 0.0])), J, cfg)
    assert np.array_equal(cmd.qdot_neck, np.zeros(3)) and np.isfinite(cmd.qdot_eye).all()
    with pytest.raises(SingularMatrix):
        compensate(Twist.zero(), J, StabilizerConfig(damping=0.0))


# ----------------------------------------------------------------- estimators


def test_kff_zero_rates_zero_twist():
    q = head_q(np.random.default_rng(1))
    tw = estimate_kff(fixation_full_jacobian(CHAIN, q), np.zeros(9))
    assert np.all(tw.v == 0.0) and np.all(tw.omega == 0.0)


def test_kff_torso_yaw_rotates_about_world_z():
    q = head_q(np.random.default_rng(2))
    tw = estimate_kff(fixation_full_jacobian(CHAIN, q), [0.35] + [0.0] * 8)
    # first torso joint of the default model spins about world +z
    assert np.allclose(tw.omega, [0.0, 0.0, 0.35], atol=1e-12)


def test_kff_translation_matches_directional_fd():
    rng = np.random.default_rng(3)
    for _ in range(10):
        q = head_q(rng)
        qd = rng.uniform(-0.5, 0.5, 9)
        tw = estimate_kff(fixation_full_jacobian(CHAIN, q), qd)
        eps = 1e-6

        def fp(qq):
            return fixation_point(camera_frames(CHAIN, qq)).point

        v_fd = (fp(q + eps * qd) - fp(q - eps * qd)) / (2 * eps)
        assert np.allclose(tw.v, v_fd, atol=1e-5)


@pytest.mark.parametrize("shape", [(6, 6), (3, 9), (9, 6)])
def test_kff_and_compensate_reject_a_non_6x9_jacobian(shape):
    J = np.zeros(shape)
    with pytest.raises(InvalidInput, match="6x9 fixation Jacobian"):
        estimate_kff(J, np.zeros(9))
    with pytest.raises(InvalidInput, match="6x9 fixation Jacobian"):
        compensate(Twist.zero(), J, StabilizerConfig())


def test_ifb_translation_blind():
    # A translating but non-rotating head produces a zero twist: the gyro
    # reads nothing regardless of how fast the prismatic stage moves.
    imu = ImuSample(np.zeros(3), np.array([0.1, 0.0, 0.4]))
    tw = estimate_ifb(imu, np.array([5.0, 0.0, 0.4]))
    assert np.all(tw.v == 0.0) and np.all(tw.omega == 0.0)


def test_ifb_lever_arm_hand_case():
    imu = ImuSample(np.array([0.0, 0.0, 2.0]), np.zeros(3))
    tw = estimate_ifb(imu, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(tw.v, [0.0, 2.0, 0.0], atol=1e-15)  # z x x = y
    assert np.allclose(tw.omega, [0.0, 0.0, 2.0])


def test_ifb_matches_kff_for_pure_rotation_about_imu():
    # If the disturbance is a pure rotation whose axis passes through the
    # IMU, both estimators must agree on the fixation twist.
    from gazestab.stereo import expand_head_q

    q = np.zeros(9)
    q[8] = 0.2
    qm = expand_head_q(q)
    imu_pos = MODEL.imu_pose(qm).pos
    # neck-yaw axis of the default model: world +z through (0.06, 0, 0.32);
    # IMU sits off that axis, so use a synthetic gyro sample directly at it.
    rate = 0.3
    x_fp = fixation_point(camera_frames(CHAIN, q)).point
    tw_fb = estimate_ifb(ImuSample(np.array([0.0, 0.0, rate]), imu_pos), x_fp)
    qdot = np.zeros(9)
    qdot[5] = rate
    tw_ff = estimate_kff(fixation_full_jacobian(CHAIN, q), qdot)
    # same omega; v differs only by omega x (imu - axis_point) lever
    assert np.allclose(tw_fb.omega, tw_ff.omega, atol=1e-12)
    lever = imu_pos - np.array([0.06, 0.0, 0.32])
    assert np.allclose(tw_ff.v - tw_fb.v, np.cross([0, 0, rate], lever), atol=1e-12)


# --------------------------------------------------------------- compensation


def relaxed_config(**kw):
    kw.setdefault("damping", 0.0)
    kw.setdefault("neck_rate_limit", 1e9)
    kw.setdefault("eye_rate_limit", 1e9)
    return StabilizerConfig(**kw)


def test_compensate_annihilates_full_twist():
    rng = np.random.default_rng(9)
    for _ in range(15):
        q = head_q(rng)
        tw = Twist(rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3))
        J = fixation_full_jacobian(CHAIN, q)
        cmd = compensate(tw, J, relaxed_config())
        qdot = np.concatenate([np.zeros(3), cmd.qdot_neck, cmd.qdot_eye])
        residual = tw.as_array() + J @ qdot
        assert np.linalg.norm(residual) < 1e-9 * max(1.0, np.linalg.norm(tw.as_array()))


def test_compensate_eyes_only_cancels_translation_only():
    rng = np.random.default_rng(10)
    q = head_q(rng)
    tw = Twist(rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.3, 0.3, 3))
    J = fixation_full_jacobian(CHAIN, q)
    cmd = compensate(tw, J, relaxed_config(dof_set="eyes"))
    assert np.all(cmd.qdot_neck == 0.0)
    v_res = tw.v + J[0:3, 6:9] @ cmd.qdot_eye
    assert np.linalg.norm(v_res) < 1e-9


def test_compensate_sequential_vs_independent():
    rng = np.random.default_rng(11)
    q = head_q(rng)
    tw = Twist(rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.3, 0.3, 3))
    J = fixation_full_jacobian(CHAIN, q)
    seq = compensate(tw, J, relaxed_config(sequential=True))
    ind = compensate(tw, J, relaxed_config(sequential=False))
    assert np.allclose(seq.qdot_neck, ind.qdot_neck)  # neck unaffected
    assert not np.allclose(seq.qdot_eye, ind.qdot_eye)
    # independent mode leaves exactly the neck-induced translation behind
    resid = tw.v + J[0:3, 3:6] @ ind.qdot_neck + J[0:3, 6:9] @ ind.qdot_eye
    assert np.allclose(resid, J[0:3, 3:6] @ ind.qdot_neck, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), scale=st.floats(0.1, 5.0))
def test_compensate_homogeneity(seed, scale):
    rng = np.random.default_rng(seed)
    q = head_q(rng)
    tw = Twist(rng.uniform(-0.2, 0.2, 3), rng.uniform(-0.2, 0.2, 3))
    big = Twist(scale * tw.v, scale * tw.omega)
    J = fixation_full_jacobian(CHAIN, q)
    a = compensate(tw, J, relaxed_config(damping=1e-3))
    b = compensate(big, J, relaxed_config(damping=1e-3))
    assert np.allclose(b.qdot_neck, scale * a.qdot_neck, atol=1e-9)
    assert np.allclose(b.qdot_eye, scale * a.qdot_eye, atol=1e-9)


def test_compensate_saturation_clips_and_flags():
    J = fixation_full_jacobian(CHAIN, head_q(np.random.default_rng(12)))
    tw = Twist(np.array([50.0, -80.0, 20.0]), np.array([30.0, -10.0, 5.0]))
    cfg = StabilizerConfig(damping=1e-3)
    cmd = compensate(tw, J, cfg)
    assert cmd.saturated
    assert np.all(np.abs(cmd.qdot_neck) <= cfg.neck_rate_limit + 1e-15)
    assert np.all(np.abs(cmd.qdot_eye) <= cfg.eye_rate_limit + 1e-15)
    # small twists must not be flagged
    small = compensate(Twist(np.full(3, 1e-4), np.full(3, 1e-4)), J, cfg)
    assert not small.saturated


def numpy_clip(raw: StabilizerCommand, cfg: StabilizerConfig) -> StabilizerCommand:
    """The clip compensate applied in numpy before it ran on floats: the
    reference its command and saturated flag must equal bit for bit."""
    neck = np.minimum(np.maximum(raw.qdot_neck, -cfg.neck_rate_limit), cfg.neck_rate_limit)
    eye = np.minimum(np.maximum(raw.qdot_eye, -cfg.eye_rate_limit), cfg.eye_rate_limit)
    return StabilizerCommand(neck, eye, bool((neck != raw.qdot_neck).any() or (eye != raw.qdot_eye).any()))


J_CLIP = fixation_full_jacobian(CHAIN, head_q(np.random.default_rng(32)))
TWIST_PART = st.sampled_from([0.0, -0.0, 1e-3, -0.2, 0.7, 4.0, -30.0])


@settings(max_examples=100, deadline=None)
@given(
    v=st.tuples(TWIST_PART, TWIST_PART, TWIST_PART),
    omega=st.tuples(TWIST_PART, TWIST_PART, TWIST_PART),
    dof_set=st.sampled_from(["neck-eyes", "eyes"]),
    limits=st.tuples(*[st.one_of(st.sampled_from([math.inf, 0.05, 1.0]), st.integers(0, 2)) for _ in range(2)]),
)
def test_compensate_clip_matches_numpy_minimum_maximum(v, omega, dof_set, limits):
    # An integer limit k ties the limit with |rate k| of its block (1.0 where
    # that rate is a zero, which then passes through with its sign).
    tw = Twist(np.array(v), np.array(omega))
    raw = compensate(tw, J_CLIP, StabilizerConfig(dof_set=dof_set, neck_rate_limit=math.inf, eye_rate_limit=math.inf))
    neck_lim, eye_lim = (
        lim if isinstance(lim, float) else abs(block[lim]) or 1.0
        for lim, block in zip(limits, (raw.qdot_neck, raw.qdot_eye))
    )
    cfg = StabilizerConfig(dof_set=dof_set, neck_rate_limit=neck_lim, eye_rate_limit=eye_lim)
    got, expected = compensate(tw, J_CLIP, cfg), numpy_clip(raw, cfg)
    assert got.qdot_neck.tobytes() == expected.qdot_neck.tobytes()
    assert got.qdot_eye.tobytes() == expected.qdot_eye.tobytes()
    assert got.saturated is expected.saturated


def test_compensate_non_finite_rate_raises_the_command_message():
    # Rates that overflow: inf passes an unlimited rate, and NaN (inf - inf in
    # the eye target) any limit.  StabilizerCommand's message names the first
    # block holding one.
    tw = Twist(np.full(3, 1e300), np.full(3, 1e300))
    for dof_set, limit, name in (
        ("neck-eyes", math.inf, "qdot_neck"), ("eyes", math.inf, "qdot_eye"), ("neck-eyes", 1.0, "qdot_eye")
    ):
        cfg = StabilizerConfig(dof_set=dof_set, damping=0.0, neck_rate_limit=limit, eye_rate_limit=limit)
        with pytest.raises(InvalidInput, match=f"^StabilizerCommand.{name} must be a finite 3-vector$"), \
                np.errstate(over="ignore", invalid="ignore"):
            compensate(tw, J_CLIP * 1e-20, cfg)


def test_config_validation():
    with pytest.raises(InvalidInput):
        StabilizerConfig(mode="nope")
    with pytest.raises(InvalidInput):
        StabilizerConfig(dof_set="arms")
    with pytest.raises(InvalidInput):
        StabilizerConfig(damping=-1.0)


def test_twist_array_round_trip():
    tw = Twist(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
    assert np.all(Twist.from_array(tw.as_array()).as_array() == tw.as_array())
    with pytest.raises(InvalidInput):
        Twist(np.array([1.0, np.nan, 0.0]), np.zeros(3))


def test_command_validation():
    with pytest.raises(InvalidInput):
        StabilizerCommand(np.zeros(2), np.zeros(3))
