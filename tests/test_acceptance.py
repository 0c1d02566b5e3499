"""Acceptance gate: nine go/no-go checks on the finished system.

Each criterion is one test that prints a single PASS/FAIL line (visible with
``pytest -s`` or in the captured output) and then asserts.  Closed-loop runs
are built from the *shipped* config/model/script files so the gate exercises
the same artifacts a user gets, and they are cached module-wide because the
later criteria reuse the same conditions.
"""

import math
import os
import time

import numpy as np
import pytest

from test_stereo import closest_points_oracle, random_ray_pair

from gazestab.chain import (
    finite_difference_jacobian,
    forward_kinematics,
    geometric_jacobian,
    analytic_axis_jacobian,
)
from gazestab.fileio import (
    default_data_dir,
    parse_model_file,
    parse_run_config,
    parse_script_file,
    resolve_input_path,
)
from gazestab.models import default_head_model
from gazestab.simulator import CameraModel, PlantParams, run_experiment
from gazestab.stabilizer import StabilizerConfig
from gazestab.stereo import (
    CameraFrames,
    camera_frames,
    eye_jacobian,
    fixation_full_jacobian,
    fixation_point,
    head_layout,
)
from gazestab.simulator import flow_metric

DATA = default_data_dir()
MODEL = default_head_model()


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def _load_shipped(name: str):
    cfg = parse_run_config(os.path.join(DATA, f"{name}.config"))
    model = parse_model_file(resolve_input_path(cfg.model_path, DATA))
    script = parse_script_file(resolve_input_path(cfg.script_path, DATA))
    return model, script, cfg.settings


_RUN_CACHE: dict = {}


def shipped_run(name: str, **setting_overrides):
    """run_experiment on a shipped config, cached per override set."""
    from dataclasses import replace

    key = (name, tuple(sorted(setting_overrides.items(), key=lambda kv: kv[0])))
    if key not in _RUN_CACHE:
        model, script, settings = _load_shipped(name)
        control_over = setting_overrides.pop("control", None)
        if control_over is not None:
            settings = replace(settings, control=control_over)
        if setting_overrides:
            settings = replace(settings, **setting_overrides)
        t0 = time.perf_counter()
        log = run_experiment(model, script, settings)
        _RUN_CACHE[key] = (log, time.perf_counter() - t0)
    return _RUN_CACHE[key]


def random_head_q(rng) -> np.ndarray:
    """Well-conditioned posture: vergence kept away from the parallel-gaze
    singularity and large enough that FD truncation error stays << 1e-5."""
    q = rng.uniform(-0.5, 0.5, 9)
    q[8] = rng.uniform(0.03, 0.6)
    return q


def test_criterion_1_jacobian_fd_suite():
    rng = np.random.default_rng(11)
    chain = MODEL.chain
    layout = head_layout(chain)
    t0 = time.perf_counter()
    worst = 0.0
    n_configs = 1000
    for _ in range(n_configs):
        q = random_head_q(rng)

        # one fixation-point FD Jacobian, read for the eye and the trunk-neck columns
        fd = finite_difference_jacobian(lambda qq: fixation_point(camera_frames(chain, qq)).point, q)
        je = eye_jacobian(chain, q)
        worst = max(worst, float(np.max(np.abs(je - fd[:, 6:9]))))

        jf = fixation_full_jacobian(chain, q)
        worst = max(worst, float(np.max(np.abs(jf[:3, :6] - fd[:, :6]))))

        # geometric jacobian of a point rigidly attached to the left camera
        link = layout.cam_left
        point = fixation_point(camera_frames(chain, q)).point
        from gazestab.stereo import expand_head_q

        pose = forward_kinematics(chain, expand_head_q(q), link_index=link)
        local = pose.inverse().transform(point)

        def fk_point(qm):
            return forward_kinematics(chain, qm, link_index=link).transform(local)

        qm = expand_head_q(q)
        jg = geometric_jacobian(chain, qm, point, link_index=link)[:3]
        fd_g = finite_difference_jacobian(fk_point, qm)
        worst = max(worst, float(np.max(np.abs(jg - fd_g))))

        ja = analytic_axis_jacobian(chain, qm, link_index=link)
        fd_a = finite_difference_jacobian(
            lambda qq: forward_kinematics(chain, qq, link_index=link).rot[:, 2], qm
        )
        worst = max(worst, float(np.max(np.abs(ja - fd_a))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 30.0
    report(1, ok, f"{n_configs} configs, max |analytic - FD| = {worst:.2e} (< 1e-5), {elapsed:.1f}s (< 30s)")


def test_criterion_2_fixation_grid_oracle():
    rng = np.random.default_rng(23)
    t0 = time.perf_counter()
    worst_pos = 0.0
    worst_orth = 0.0
    n_pairs = 0
    while n_pairs < 1000:
        o_l, z_l, o_r, z_r = random_ray_pair(rng)
        cos_axes = float(z_l @ z_r)
        if abs(cos_axes**2 - 1.0) <= 1e-4:
            continue
        frames = CameraFrames.from_rays(o_l, o_r, z_l, z_r)
        fx = fixation_point(frames)
        p_l, p_r, _, _ = closest_points_oracle(o_l, z_l, o_r, z_r)
        worst_pos = max(worst_pos, float(np.linalg.norm(fx.point - 0.5 * (p_l + p_r))))
        join = fx.p_left - fx.p_right
        worst_orth = max(worst_orth, abs(float(join @ z_l)), abs(float(join @ z_r)))
        n_pairs += 1
    elapsed = time.perf_counter() - t0
    ok = worst_pos < 1e-7 and worst_orth < 1e-9 and elapsed < 30.0
    report(
        2,
        ok,
        f"{n_pairs} skew pairs, max position err {worst_pos:.2e} (< 1e-7), "
        f"max orthogonality {worst_orth:.2e} (< 1e-9), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_exact_annihilation_ideal_plant():
    ideal = dict(
        plant=PlantParams(tau_neck=0.0, tau_eye=0.0),
        control=StabilizerConfig(mode="kff", dof_set="neck-eyes", damping=0.0),
    )
    comp, comp_time = shipped_run("exp_a_kff", **ideal)
    base, _ = shipped_run("exp_a_off")
    n_c = np.linalg.norm(comp.true_twist[1:], axis=1)
    n_b = np.linalg.norm(base.true_twist[1:], axis=1)
    moving = n_b > 1e-9
    ratio = float(np.max(n_c[moving] / n_b[moving]))
    still_ok = bool(np.all(n_c[~moving] < 1e-12))
    red = 100.0 * (1.0 - float(np.mean(comp.optfl[1:])) / float(np.mean(base.optfl[1:])))
    ok = ratio < 1e-6 and still_ok and red >= 90.0 and comp_time < 10.0
    report(
        3,
        ok,
        f"max per-tick twist ratio {ratio:.2e} (< 1e-6), optfl reduction {red:.1f}% (>= 90%), "
        f"run {comp_time:.1f}s (< 10s)",
    )


def test_criterion_4_mode_ordering_with_separation():
    off, _ = shipped_run("exp_a_off")
    kff, _ = shipped_run("exp_a_kff")
    ifb, _ = shipped_run("exp_a_ifb")
    m_off = float(np.mean(off.optfl[1:]))
    m_kff = float(np.mean(kff.optfl[1:]))
    m_ifb = float(np.mean(ifb.optfl[1:]))
    ok = m_kff <= 0.9 * m_ifb and m_ifb <= 0.9 * m_off
    report(
        4,
        ok,
        f"mean optfl kFF {m_kff:.4f} <= 0.9 x iFB {m_ifb:.4f} <= 0.81 x off {m_off:.4f} "
        f"(ratios {m_kff / m_ifb:.2f}, {m_ifb / m_off:.2f})",
    )


def roll_window_mean(log) -> float:
    rows = (log.t > 6.0) & (log.t <= 10.0)
    return float(np.mean(log.optfl[rows]))


def test_criterion_5_roll_failure_eyes_only():
    base = roll_window_mean(shipped_run("exp_a_off")[0])
    eyes = {m: roll_window_mean(shipped_run(f"exp_a_{m}_eyes")[0]) / base for m in ("kff", "ifb")}
    full = {m: roll_window_mean(shipped_run(f"exp_a_{m}")[0]) / base for m in ("kff", "ifb")}
    ok = all(r >= 0.95 for r in eyes.values()) and all(r <= 0.5 for r in full.values())
    report(
        5,
        ok,
        f"roll-segment ratio vs baseline: eyes-only kFF {eyes['kff']:.2f}, iFB {eyes['ifb']:.2f} (>= 0.95); "
        f"neck+eyes kFF {full['kff']:.2f}, iFB {full['ifb']:.2f} (<= 0.5)",
    )


def test_criterion_6_neck_strictly_helps():
    means = {}
    for mode in ("kff", "ifb"):
        means[mode] = (
            float(np.mean(shipped_run(f"exp_a_{mode}")[0].optfl[1:])),
            float(np.mean(shipped_run(f"exp_a_{mode}_eyes")[0].optfl[1:])),
        )
    ok = all(full < eyes for full, eyes in means.values())
    report(
        6,
        ok,
        "full-script mean optfl neck+eyes < eyes-only: "
        + ", ".join(f"{m} {f:.4f} < {e:.4f}" for m, (f, e) in means.items()),
    )


def test_criterion_7_translation_blindness():
    off = float(np.mean(shipped_run("translate_off")[0].optfl[1:]))
    kff = float(np.mean(shipped_run("translate_kff")[0].optfl[1:]))
    ifb = float(np.mean(shipped_run("translate_ifb")[0].optfl[1:]))
    red_kff = 100.0 * (1.0 - kff / off)
    red_ifb = 100.0 * (1.0 - ifb / off)
    ok = red_kff >= 90.0 and abs(red_ifb) <= 5.0
    report(
        7,
        ok,
        f"pure translation: kFF reduction {red_kff:.1f}% (>= 90%), iFB reduction {red_ifb:.2f}% (|.| <= 5%)",
    )


def test_criterion_8_flow_metric_contract():
    cam = CameraModel()
    defaults_ok = (cam.width, cam.height, cam.border) == (320, 240, 20)

    rot = np.eye(3)
    z = np.array([0.0, 0.0, 1.0])

    def frames(offset):
        o = np.array(offset, float)
        return CameraFrames(o, o + np.array([0.068, 0.0, 0.0]), z, z, rot, rot)

    cloud = np.array([(x, y, 5.0) for x in np.linspace(-1, 1, 6) for y in np.linspace(-1, 1, 6)])
    zero = flow_metric(cam, frames([0, 0, 0]), frames([0, 0, 0]), cloud)
    dx = 0.013
    lateral = flow_metric(cam, frames([0, 0, 0]), frames([dx, 0, 0]), cloud)
    expected = cam.f * dx / 5.0
    rel = abs(lateral - expected) / expected
    ok = defaults_ok and zero == 0.0 and rel < 1e-9
    report(
        8,
        ok,
        f"identical frames -> {zero}; lateral flow rel err {rel:.2e} (< 1e-9); "
        f"defaults W={cam.width} H={cam.height} border={cam.border}",
    )


def test_criterion_9_shipped_configs_byte_identical(tmp_path, monkeypatch):
    from gazestab.cli import main

    monkeypatch.chdir(tmp_path)
    checked = []
    for name in ("translate_kff", "exp_b_ifb"):
        config = os.path.join(DATA, f"{name}.config")
        a, b = tmp_path / f"{name}_a.csv", tmp_path / f"{name}_b.csv"
        assert main(["run", "--config", config, "--out", str(a)]) == 0
        assert main(["run", "--config", config, "--out", str(b)]) == 0
        checked.append(a.read_bytes() == b.read_bytes())
    ok = all(checked)
    report(9, ok, f"byte-identical reruns for translate_kff and exp_b_ifb: {checked}")
