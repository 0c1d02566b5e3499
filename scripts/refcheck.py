#!/usr/bin/env python3
"""Check that a refactor kept gazestab's results: compare two source trees.

    python scripts/refcheck.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository; its own `src/` and shipped
configs are used.  The check

* runs the ten shipped configs on both trees, exp_b_ifb once more with
  `gyro-delay 3` (no shipped config exercises the iFB delay line) and
  translate_ifb once more with `gyro-noise 0.005` (no shipped config pairs
  a still head with a noisy gyro), and compares each CSV log and
  `.summary.json` sidecar byte for byte; on a
  mismatch it prints the largest difference per file against the BUDGET
  (absolute, per CSV column or sidecar value), and a metadata line, header
  or shape that differs is a breach whatever the numbers;
* compares the `gazestab compare` output of the exp_a, exp_b and translate
  condition sets byte for byte;
* cross-reads the logs: each tree's `read_log_csv` reads every log of both
  trees, and the two readers must return equal arrays, metadata and
  segments for each (so a rewritten reader is checked against the old one
  on the same bytes);
* compares SHA-256 digests of `fixation_full_jacobian`, of a repeat call of
  it at the same q after the first result was overwritten with zeros (so a
  repeat call is pinned to give the same bits, untouched by a caller's
  writes into an earlier result), `camera_frames`, `link_frames` and
  `dh_matrix` (each link at the configuration's mechanical joint values),
  `HeadModel.imu_pose`, `synth_gyro` (without and with noise),
  `compensate`, `estimate_kff` and `estimate_ifb` over 2,000 seeded head
  configurations; the gyro moves from each configuration to the next,
  `compensate` cancels the `estimate_kff` twist of seeded rates under the
  default `neck-eyes` joint set and under `eyes`, and `estimate_ifb` reads
  the noisy gyro sample against a seeded fixation point (the loop computes
  both estimates through the same private kernels);
* compares SHA-256 digests of the plant `step` (the new state's bytes, `t`
  with its dtype, or the exception, and each warning's text) over 2,000
  seeded cases -- signed zeros, values tied with a joint limit, clamped and
  unlimited joints, overflow, `None` as command, `active` and `base_vel`,
  and numpy float32 `dt` and `tau` (`step` takes a float32 `dt`, and
  `PlantParams` stores a float32 `tau`, as its float64 value, so those cases
  run a float64 `dt` and lag gain) -- and of
  `expand_head_q` and `collapse_head_q` on seeded vectors, tilts equal,
  apart by a signed zero or an ulp, or apart (the error text); no shipped
  log clamps a joint or diverges;
* compares a SHA-256 digest of `flow_metric` (the mean's bytes, or the
  `InsufficientCoverage` text) over 1,000 seeded whole-cloud frame pairs at
  focal lengths 240 and 3 px: still, exactly shifted and slightly moved
  cameras, clouds with points behind the camera, at and past its 1e-9 m
  depth test, far off the image, and exactly on each border (u or v equal
  to `border` or to `width - border`), and a tenth of them cut to 14
  points so that fewer than 10 may count (no shipped log puts a point on a
  border, and the loop projects only a view cone's columns);
* adds to the `link_frames` and `dh_matrix` digests the head's links and
  three more (a signed-zero, a pi and a large twist) at signed zeros, +-pi,
  +-pi/2 and large angles up to 1e300, and compares a digest of
  `initial_state`'s q0 bytes at fixation distances from 5e-324 to 1e300 m,
  on the shipped head and on one with a turned and shifted base;
* compares a SHA-256 digest of `DisturbanceScript.realize` (the dtype, shape
  and bytes of each of the track's five arrays) on the three shipped scripts;
  on a synthetic script of commanded and external moves and noise on joint
  and base channels, which the shipped scripts never combine; on 2,000
  back-to-back moves; and, at dt 0.01 and 0.003, on back-to-back moves and
  noise lines whose edges fall on a tick, 1e-12 to either side of one or
  between ticks (a segment owns the ticks t with t_start - 1e-12 <= t <
  t_end - 1e-12, so these are the edges where rounding decides);
* compares a SHA-256 digest of the `serialize_model` text of the shipped
  model, of a variant with a yawed base pose and unlimited joints, and of
  that variant with its base pitched 4e-4 rad short of vertical and rolled
  (where the written pitch depends on its formula), and the
  `serialize_script` text of the same four scripts, in `degrees` and in
  `radians` (no shipped log exercises the serializers);
* runs a lift script (`move channel=base-z t=0.2,3 rate=10` for 3 s, which
  takes the cloud out of view, as in the coverage-loss tests) in `off`,
  `kff` and `ifb` mode, and compares each run's exit code, its stderr with
  the output directory's path normalised, and the bytes of the partial log
  it leaves (no shipped config fails, so nothing else checks where a failed
  run's log is cut);
* runs a 2 s spin script (torso yaw and pitch at +-140 deg/s, swinging
  +-35 degrees) in `off` and `kff` mode at focal lengths 240, 40 and 3 px,
  and compares the same, plus each run's log and sidecar: the flow's view
  cone re-centres often on these runs, and at the short focal lengths it
  holds nearly the whole cloud (no shipped config turns the head this fast);
* runs a 0.4 s torso yaw at 0.35 rad/s with an eye-vergence move of
  0.02 rad/s from 0.05 s to 0.3 s, fixating 10 km away, in `off`, `kff` and
  `ifb` mode, and compares the same: these runs start with near-parallel
  optical axes and leave that singular band, so the `singular` column and
  the held command change part-way (no shipped config logs a singular row);
* runs a 30 s torso yaw whose segments meet at 25 s in `off` mode (the
  plant's running-sum `t` reads 25.00000000000111 at tick 2500) and moves
  with edges between ticks (t=0.005,0.995 and t=0.333,0.777) in `kff` mode,
  and compares the same: these edges decide which rows a segment's mean in
  the sidecar covers (no shipped script runs past 13 s or puts an edge off
  the 0.01 s grid);
* prints both trees' `src/gazestab/*.py` line totals, the design aim's size
  metric, and their work ledgers: the Python calls into gazestab per tick,
  counted with `sys.setprofile` as `test_work_ledger_calls_per_tick` counts
  them, on the four configs that test runs.  Both are for information only:
  no total or count is a breach.

It prints one line per check and exits 1 on any breach (a byte-identical
result or a numeric difference within the budget is no breach).
"""

import json
import os
import subprocess
import sys
import tempfile

import numpy as np

BUDGET = 1e-12
# condition sets, passive baseline first, in `gazestab compare` order
SETS = {
    "exp_a": ("exp_a_off", "exp_a_kff", "exp_a_ifb", "exp_a_kff_eyes", "exp_a_ifb_eyes"),
    "exp_b": ("exp_b_off", "exp_b_ifb"),
    "translate": ("translate_off", "translate_kff", "translate_ifb"),
}
CONFIGURATIONS = 2000
# (run name, shipped config, the config line it gains or replaces) of each
# shipped config rerun with one setting changed
VARIANTS = (
    ("exp_b_ifb_delay3", "exp_b_ifb", "gyro-delay 3"),
    ("translate_ifb_noise", "translate_ifb", "gyro-noise 0.005"),
)
DIGESTS = (
    "fixation_full_jacobian", "fixation_full_jacobian (repeat)", "camera_frames", "imu_pose", "synth_gyro",
    "synth_gyro (noise)", "compensate", "estimate_kff", "estimate_ifb", "realize", "serialize", "step",
    "expand_head_q", "collapse_head_q", "flow_metric", "link_frames", "dh_matrix", "initial_state",
)
# A script that fails every mode part-way, and the modes it runs in.
LIFT_SCRIPT = "script lift\nunits degrees\nmove channel=base-z t=0.2,3 rate=10\n"
# Torso yaw and pitch at +-140 deg/s, each swinging +-35 degrees.
SPIN_SCRIPT = """script spin
units degrees
move channel=torso-yaw   t=0,0.25    rate=140
move channel=torso-yaw   t=0.25,0.75 rate=-140
move channel=torso-yaw   t=0.75,1.25 rate=140
move channel=torso-yaw   t=1.25,1.75 rate=-140
move channel=torso-yaw   t=1.75,2    rate=140
move channel=torso-pitch t=0.1,0.35  rate=-140
move channel=torso-pitch t=0.35,0.85 rate=140
move channel=torso-pitch t=0.85,1.35 rate=-140
move channel=torso-pitch t=1.35,1.85 rate=140
move channel=torso-pitch t=1.85,2    rate=-140
"""
# A torso yaw with the eyes verging off a 10 km target: the run starts in the
# singular band of near-parallel optical axes and leaves it.
LEAVE_SCRIPT = """script leave
units radians
move channel=torso-yaw    t=0,0.4    rate=0.35
move channel=eye-vergence t=0.05,0.3 rate=0.02
"""
# Back-to-back moves with an edge at 25 s, which the plant's running-sum t
# passes 1.1e-12 late, and moves with edges between ticks: the rows a
# segment's mean covers are decided at these edges.
DRIFT_SCRIPT = """script drift
units radians
move channel=torso-yaw t=0,25  rate=0.01
move channel=torso-yaw t=25,30 rate=-0.02
"""
OFF_GRID_SCRIPT = """script off-grid
units radians
move channel=torso-yaw   t=0.005,0.995 rate=0.3
move channel=torso-pitch t=0.333,0.777 rate=-0.2
"""
MODES = ("off", "kff", "ifb")
# (name, script file, config lines) of each run compared by exit code, stderr, log and sidecar
EDGE_RUNS = (
    [(f"lift_{mode}", "lift.script", f"mode {mode}\nduration 3\n") for mode in MODES]
    + [
        (f"spin_{mode}_f{f}", "spin.script", f"mode {mode}\nfocal-length {f}\n")
        for mode in ("off", "kff")
        for f in (240, 40, 3)
    ]
    + [(f"leave_{mode}", "leave.script", f"mode {mode}\nduration 0.4\nfixation-distance 1e4\n") for mode in MODES]
    + [("drift_off", "drift.script", "mode off\n"), ("off_grid_kff", "off-grid.script", "mode kff\n")]
)

# (shipped config, run length in s) of each work-ledger run: the configs and
# lengths test_work_ledger_calls_per_tick measures.
LEDGER = (("exp_a_kff", 2.0), ("exp_b_ifb", 1.0), ("translate_ifb", 1.0), ("translate_off", 1.0))

# Runs inside a tree: prints each LEDGER config's name and its Python calls
# into gazestab per tick, over a run of the given length minus a run of half
# that length, each on freshly parsed inputs, so set-up cancels.
LEDGER_CODE = f"""
import os, sys
from dataclasses import replace
import gazestab.simulator as simulator
from gazestab.fileio import default_data_dir, parse_model_file, parse_run_config, parse_script_file

package = os.path.dirname(simulator.__file__) + os.sep
data = default_data_dir()
calls = 0


def profile(frame, event, arg):
    global calls
    calls += event == "call" and frame.f_code.co_filename.startswith(package)


for name, duration in {LEDGER!r}:
    counts = []
    for length in (duration, duration / 2):
        cfg = parse_run_config(os.path.join(data, name + ".config"))
        model = parse_model_file(os.path.join(data, cfg.model_path))
        script = parse_script_file(os.path.join(data, cfg.script_path))
        calls = 0
        sys.setprofile(profile)
        try:
            log = simulator.run_experiment(model, script, replace(cfg.settings, duration=length))
        finally:
            sys.setprofile(None)
        counts.append((calls, log.n_rows()))
    (full, rows_full), (half, rows_half) = counts
    print(name, f"{{(full - half) / (rows_full - rows_half):.2f}}")
"""

# Runs inside a tree on log paths: prints a digest of each log as read_log_csv
# returns it (every array's dtype, shape and bytes, the metadata, the segments).
READ_CODE = """
import hashlib, sys
import numpy as np
from dataclasses import fields
from gazestab.fileio import read_log_csv

for path in sys.argv[1:]:
    log = read_log_csv(path)
    h = hashlib.sha256()
    for f in fields(log):
        value = getattr(log, f.name)
        if isinstance(value, np.ndarray):
            h.update(f"{f.name} {value.dtype.str} {value.shape}".encode() + np.ascontiguousarray(value).tobytes())
        else:
            h.update(f"{f.name} {value!r}".encode())
    print(h.hexdigest())
"""

# Runs inside a tree: prints the digests, one per line, in DIGESTS order.
DIGEST_CODE = f"""
import hashlib
import numpy as np
from gazestab.errors import SingularConfiguration
from gazestab.models import default_head_model
from gazestab.simulator import PlantState, synth_gyro
from gazestab.stabilizer import StabilizerConfig, compensate, estimate_ifb, estimate_kff
from gazestab.chain import dh_matrix, link_frames
from gazestab.stereo import camera_frames, expand_head_q, fixation_full_jacobian

model = default_head_model()
chain = model.chain
rng = np.random.default_rng(20241)
rng_noise = np.random.default_rng(71)
rng_rates = np.random.default_rng(72)  # its own stream: the configurations stay as they were
rng_fp = np.random.default_rng(73)  # estimate_ifb's fixation points, likewise
controls = (StabilizerConfig(), StabilizerConfig(dof_set="eyes"))
h_jac, h_rep, h_cam, h_imu, h_gyro, h_noisy, h_comp, h_kff, h_ifb = (hashlib.sha256() for _ in range(9))
h_frames, h_dh, h_init = (hashlib.sha256() for _ in range(3))  # printed last
prev = PlantState(t=0.0, q=np.zeros(9), qdot=np.zeros(9))
for k in range({CONFIGURATIONS}):
    q = rng.uniform(-0.9, 0.9, 9)
    q[8] = rng.uniform(0.0, 0.3)
    if k % 5 == 0:
        q[rng.random(9) < 0.5] = 0.0  # exact zeros take other rounding paths
    fr = camera_frames(chain, q)
    for a in (fr.o_left, fr.o_right, fr.z_left, fr.z_right, fr.rot_left, fr.rot_right):
        h_cam.update(np.ascontiguousarray(a).tobytes())
    q_mech = expand_head_q(q)
    h_frames.update(link_frames(chain, q_mech).tobytes())
    for link, angle in zip(chain.links, q_mech.tolist()):
        h_dh.update(dh_matrix(link, angle).tobytes())
    rates = rng_rates.uniform(-2.0, 2.0, 9)
    try:
        J = fixation_full_jacobian(chain, q)
    except SingularConfiguration:
        h_jac.update(b"singular")
        try:
            fixation_full_jacobian(chain, q)
        except SingularConfiguration:
            h_rep.update(b"singular")
    else:
        h_jac.update(J.tobytes())
        twist = estimate_kff(J, rates)
        h_kff.update(twist.v.tobytes() + twist.omega.tobytes())
        for control in controls:
            cmd = compensate(twist, J, control)
            h_comp.update(cmd.qdot_neck.tobytes() + cmd.qdot_eye.tobytes() + bytes([cmd.saturated]))
        h_rep.update(J.tobytes())
        J[:] = 0.0  # a caller writing into its J must not reach the next call's
        h_rep.update(fixation_full_jacobian(chain, q).tobytes())
    pose = model.imu_pose(expand_head_q(q))
    h_imu.update(pose.rot.tobytes() + pose.pos.tobytes())
    state = PlantState(t=0.01 * (k + 1), q=q, qdot=np.zeros(9), base_offset=q[:3])
    for h, kw in ((h_gyro, {{}}), (h_noisy, dict(sigma=0.005, rng=rng_noise))):
        sample = synth_gyro(model, prev, state, 0.01, **kw)
        h.update(sample.omega.tobytes() + sample.position.tobytes())
    twist = estimate_ifb(sample, rng_fp.uniform(-10.0, 10.0, 3))
    h_ifb.update(twist.v.tobytes() + twist.omega.tobytes())
    prev = state
for h in (h_jac, h_rep, h_cam, h_imu, h_gyro, h_noisy, h_comp, h_kff, h_ifb):
    print(h.hexdigest())

from dataclasses import fields
from gazestab.fileio import default_data_dir, parse_script_file
from gazestab.simulator import DisturbanceScript, NoiseSegment, ScriptSegment

synthetic = DisturbanceScript(
    "mixed",
    segments=(
        ScriptSegment(0.0, 0.3, "torso-yaw", 0.4),
        ScriptSegment(0.1, 0.25, "neck-pitch", -0.2, external=True),
        ScriptSegment(0.05, 0.35, "base-x", 0.1),
        ScriptSegment(0.2, 0.4, "base-z", -0.05, external=True),
    ),
    noise=(
        NoiseSegment(0.3, 0.5, ("torso-yaw", "eye-version"), 0.1, 2.0, seed=5, external=False),
        NoiseSegment(0.0, 0.45, ("torso-roll",), 0.2, 1.0, seed=6),
        NoiseSegment(0.4, 0.5, ("base-y", "base-x"), 0.05, 3.0, seed=7, external=False),
        NoiseSegment(0.0, 0.2, ("base-z",), 0.02, 1.5, seed=8),
    ),
)
scripts = [parse_script_file(f"{{default_data_dir()}}/{{n}}.script") for n in ("exp_a", "exp_b", "translate")]


def edge_script(dt):
    # back-to-back moves and noise lines whose edges fall on a tick of the dt
    # grid, 1e-12 after one, 1e-12 before one and between two, in turn
    ticks = np.arange(400) * dt
    offsets = (0.0, 1e-12, -1e-12, dt / 2)
    moves, noise = [], []
    for c, channel in enumerate(("torso-yaw", "neck-pitch", "eye-version", "base-x", "torso-roll", "base-z")):
        edges = [float(ticks[k]) + offsets[(k // 7 + c) % 4] for k in range(1, 400, 7)]
        for j, (t0, t1) in enumerate(zip(edges, edges[1:])):
            if c < 4:
                moves.append(ScriptSegment(t0, t1, channel, 0.1 * (j % 5 - 2), external=j % 3 == 0))
            else:
                noise.append(NoiseSegment(t0, t1, (channel,), 0.05, 2.0, seed=j, external=j % 2 == 0))
    return DisturbanceScript("edges", tuple(moves), tuple(noise))


# 2,000 back-to-back moves, each 0.0037 s long: most start and end between ticks
chained = DisturbanceScript(
    "chained",
    tuple(ScriptSegment(0.0037 * i, 0.0037 * (i + 1), "torso-pitch", 0.01 * (i % 11 - 5), external=i % 4 == 0)
          for i in range(2000)),
)
cases = [(script, 0.01) for script in scripts + [synthetic, chained]] + [(edge_script(dt), dt) for dt in (0.01, 0.003)]
h_track = hashlib.sha256()
for script, dt in cases:
    track = script.realize(model, dt, int(round((script.duration() + 0.5) / dt)))
    for f in fields(track):
        a = getattr(track, f.name)
        h_track.update(f"{{f.name}} {{a.dtype.str}} {{a.shape}}".encode() + np.ascontiguousarray(a).tobytes())
print(h_track.hexdigest())

from dataclasses import replace
from gazestab.chain import KinematicChain, Pose
from gazestab.fileio import parse_model_file, serialize_model, serialize_script

shipped_model = parse_model_file(f"{{default_data_dir()}}/default_head.model")
# the shipped model has no base pose and no unlimited joint: a variant has both
links = list(shipped_model.chain.links)
links[0] = replace(links[0], q_min=-np.inf, q_max=np.inf)
links[4] = replace(links[4], v_max=np.inf)
links[7] = replace(links[7], q_max=np.inf)
c, s = np.cos(0.3), np.sin(0.3)
base = Pose(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]), np.array([0.1, -0.2, 0.3]))
chain = KinematicChain(tuple(links), base_pose=base, segments=shipped_model.chain.segments)


def rot_zyx(yaw, pitch, roll):
    (cy, sy), (cp, sp), (cr, sr) = ((np.cos(a), np.sin(a)) for a in (yaw, pitch, roll))
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    return rz @ ry @ np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])


# a base pitched 4e-4 rad short of vertical, rolled and yawed: the pitch
# formula decides the written angles here, where asin and atan2 round apart
vertical = Pose(rot_zyx(0.3, np.pi / 2 - 4e-4, 0.7), np.array([0.1, -0.2, 0.3]))
chain_vertical = replace(chain, base_pose=vertical)
h_text = hashlib.sha256()
for units in ("degrees", "radians"):
    for head in (shipped_model, replace(shipped_model, chain=chain), replace(shipped_model, chain=chain_vertical)):
        h_text.update(serialize_model(head, units).encode())
    for script in scripts + [synthetic]:
        h_text.update(serialize_script(script, units).encode())
print(h_text.hexdigest())

import warnings
from gazestab.errors import InvalidInput, SimulationDiverged
from gazestab.simulator import PlantParams, step
from gazestab.stabilizer import StabilizerCommand
from gazestab.stereo import collapse_head_q

# the shipped head, the head with every joint unlimited, and one whose odd
# links are unlimited and whose even links stop at a signed zero
unlimited = tuple(replace(k, q_min=-np.inf, q_max=np.inf, v_max=np.inf) for k in shipped_model.chain.links)
stops = {{0: dict(q_min=-0.0), 2: dict(q_max=0.0), 4: dict(q_min=0.0), 6: dict(q_max=-0.0), 8: dict(q_max=-0.0)}}
zero_stops = tuple(replace(k, **stops[i]) if i in stops else unlimited[i] for i, k in enumerate(shipped_model.chain.links))
heads = [shipped_model] + [
    replace(shipped_model, chain=replace(shipped_model.chain, links=ls)) for ls in (unlimited, zero_stops)
]
rng = np.random.default_rng(20251)


def values(size, scale, limits=()):
    # seeded values, 30% of them signed zeros, huge values or the given limits
    x = rng.normal(0.0, scale, size)
    special = [0.0, -0.0, 1e300, -1e300, 1.7e308, -1.7e308, *limits]
    for i in np.flatnonzero(rng.random(size) < 0.3):
        x[i] = special[rng.integers(len(special))]
    return x


h_step = hashlib.sha256()
for k in range({CONFIGURATIONS}):
    head = heads[rng.integers(3)]
    lims = [v for v in head.chain.q_min.tolist()[:6] + head.chain.q_max.tolist()[:6] if np.isfinite(v)]
    rates = [s * v for v in head.chain.v_max.tolist()[:6] if np.isfinite(v) for s in (1.0, -1.0)]
    q = np.where(rng.random(9) < 0.5, rng.uniform(-1.0, 1.0, 9), values(9, 0.3, lims))
    q = np.clip(q, -1e3, 1e3) if head is shipped_model else q
    qdot, neck, eye = values(9, 2.0, rates), values(3, 1.0, rates), values(3, 3.0, rates)
    state = PlantState(t=0.01 * k, q=q, qdot=qdot, base_offset=values(3, 1.0))
    command = None if rng.random() < 0.2 else StabilizerCommand(neck, eye)
    dt = [0.01, np.float32(0.01), float(rng.uniform(1e-4, 0.2)), 1e10, 1e-300][rng.choice(5, p=[0.4, 0.2, 0.3, 0.05, 0.05])]
    taus = [0.0, 0.08, 0.02, np.float32(0.08), float(rng.uniform(0.0, 0.5))]
    params = PlantParams(taus[rng.integers(5)], taus[rng.integers(5)])
    active = None if rng.random() < 0.3 else rng.random(9) < 0.4
    base_vel = None if rng.random() < 0.3 else values(3, 0.5)
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
        warnings.simplefilter("always")
        try:
            new = step(head, state, values(9, 1.0, rates), command, dt, params, active=active, base_vel=base_vel)
        except (SimulationDiverged, InvalidInput) as err:
            h_step.update(f"{{type(err).__name__}} {{err}} {{getattr(err, 't', None)!r}}".encode())
        else:
            t = np.asarray(new.t)
            h_step.update(t.dtype.str.encode() + t.tobytes() + new.q.tobytes() + new.qdot.tobytes())
            h_step.update(new.base_offset.tobytes())
    for w in caught:
        h_step.update(f"{{w.category.__name__}} {{w.message}}".encode())
print(h_step.hexdigest())

h_expand, h_collapse = hashlib.sha256(), hashlib.sha256()
with np.errstate(all="ignore"):
    for k in range({CONFIGURATIONS}):
        h_expand.update(expand_head_q(values(9, 0.5)).tobytes())
        qm = values(10, 0.5)
        if rng.random() < 0.8:  # tilts equal, or apart by a signed zero or one ulp
            qm[8] = [qm[6], -qm[6], np.nextafter(qm[6], 0.0)][rng.integers(3)]
        try:
            h_collapse.update(collapse_head_q(qm).tobytes())
        except InvalidInput as err:  # tilts apart
            h_collapse.update(str(err).encode())
print(h_expand.hexdigest())
print(h_collapse.hexdigest())

from gazestab.errors import InsufficientCoverage
from gazestab.simulator import CameraModel, flow_metric
from gazestab.stereo import CameraFrames


def frames_at(rot, o):
    # flow_metric reads the left camera alone
    return CameraFrames(o_left=o, o_right=o + rot[:, 0], z_left=rot[:, 2], z_right=rot[:, 2],
                        rot_left=rot, rot_right=rot)


def turn(rot, angle):
    # rot turned by angle about a seeded axis (Rodrigues)
    k = rng.normal(size=3)
    k /= np.linalg.norm(k)
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return (np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)) @ rot


rng = np.random.default_rng(20261)
h_flow = hashlib.sha256()
for cam in (CameraModel(), CameraModel(f=3.0)):
    w2, h2, b = cam.width / 2, cam.height / 2, cam.border
    for k in range({CONFIGURATIONS} // 4):
        # the cloud in frame a's coordinates: a shell in front, some of it behind
        n = int(rng.integers(20, 1600))
        local = rng.normal([0.0, 0.0, 4.0], [3.0, 3.0, 4.0], (n, 3))
        # points whose u or v lands exactly on a border in frame a (exact while
        # frame a is the identity: f * x / (f * s) = x / s for a power of two s)
        s = 2.0 ** rng.integers(-3, 4, 24)
        u = np.where(rng.random(24) < 0.5, rng.choice([b, cam.width - b], 24), rng.uniform(b, cam.width - b, 24))
        v = np.where(rng.random(24) < 0.5, rng.choice([b, cam.height - b], 24), rng.uniform(b, cam.height - b, 24))
        edge = np.column_stack([(u - w2) * s, (v - h2) * s, cam.f * s])
        # far off the image, just past the depth test, on it and behind
        z = np.array([2e-9, 1e-9, np.nextafter(1e-9, 1.0), 0.0, -1.0, 1e-3, 10.0, 1e80])
        far = np.column_stack([1e6 * z * rng.choice([-1.0, 1.0], z.size), 1e5 * z, z])
        local = np.concatenate([local, edge, far])
        if k % 10 == 9:  # a few points: fewer than 10 may count
            local = local[rng.choice(len(local), 14, replace=False)]
        rot_a, o_a = np.eye(3), np.zeros(3)
        if k % 2:
            rot_a, o_a = turn(rot_a, rng.uniform(0.0, 3.0)), rng.normal(0.0, 1.0, 3)
        cloud = local @ rot_a.T + o_a
        if k % 3 == 0:  # still, or an exact shift
            rot_b, o_b = rot_a, o_a + np.round(rng.normal(0.0, 2.0, 3)) * (k % 6 == 3)
        else:
            rot_b, o_b = turn(rot_a, rng.uniform(0.0, 0.05)), o_a + rng.normal(0.0, 0.05, 3)
        try:
            h_flow.update(np.float64(flow_metric(cam, frames_at(rot_a, o_a), frames_at(rot_b, o_b), cloud)).tobytes())
        except InsufficientCoverage as err:
            h_flow.update(str(err).encode())
print(h_flow.hexdigest())

import math
from gazestab.chain import DHLink, KinematicChain, Pose
from gazestab.models import HeadModel
from gazestab.simulator import initial_state

# link_frames and dh_matrix at signed zeros, +-pi, +-pi/2 and large angles, on
# the head's links and on links with a signed-zero, pi or large twist (a -0.0
# joint angle reaches cos and sin as -0.0 only past a -0.0 theta_offset)
angles = [0.0, -0.0, math.pi, -math.pi, 0.5 * math.pi, -0.5 * math.pi, 2 * math.pi, 1e3, -1e3, 1e6, 1e15, -1e300,
          5e-324]
odd = KinematicChain((DHLink(a=-0.0, d=-0.0, alpha=-0.0, theta_offset=-0.0), DHLink(a=0.1, d=-0.2, alpha=math.pi, theta_offset=-math.pi),
                      DHLink(a=3e99, d=1.0, alpha=1e6, theta_offset=1e15)))
for ch in (chain, odd):
    for angle in angles:
        h_frames.update(link_frames(ch, np.full(ch.n_joints, angle)).tobytes())
        for link in ch.links:
            h_dh.update(dh_matrix(link, angle).tobytes())
# initial_state's q0 at fixation distances from the least positive float up,
# on the shipped head and on one with a turned and shifted base
yawed = Pose(np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), np.array([0.3, -2.0, 1.1]))
moved = HeadModel(KinematicChain(chain.links, yawed, chain.segments), model.imu_link, model.imu_offset)
for head in (model, moved):
    for distance in (5e-324, 1e-3, 0.5, 6.0, 1e3, 1e300):
        h_init.update(initial_state(head, distance).q.tobytes())
for h in (h_frames, h_dh, h_init):
    print(h.hexdigest())
"""


def config_path(tree, name):
    """A shipped config of a tree."""
    return os.path.join(os.path.abspath(tree), "src", "gazestab", "data", f"{name}.config")


def start(tree, args, cwd):
    """Start `gazestab ARGS` on a tree's sources; stdout is captured."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    return subprocess.Popen(
        [sys.executable, *args], cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )


def both_results(trees, outdirs, args_for):
    """Run args_for(tree) on both trees at once; return (exit code, stdout,
    stderr) of each."""
    procs = [start(tree, args_for(tree), cwd) for tree, cwd in zip(trees, outdirs)]
    outputs = [p.communicate() for p in procs]
    return [(p.returncode, out, err) for p, (out, err) in zip(procs, outputs)]


def both(trees, outdirs, args_for, what):
    """Run args_for(tree) on both trees at once; return both stdouts, each
    run having exited 0."""
    results = both_results(trees, outdirs, args_for)
    for (code, _, err), tree in zip(results, trees):
        if code != 0:
            raise SystemExit(f"refcheck: {what} on {tree} exited {code}:\n{err}")
    return [out for _, out, _ in results]


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    rows = [ln for ln in lines if not ln.startswith("#")]
    return meta, rows[0].split(","), np.array([[float(x) for x in r.split(",")] for r in rows[1:]])


def csv_difference(a, b):
    """(largest |difference|, its column), or a string naming a structural
    mismatch that no budget covers."""
    meta_a, head_a, data_a = read_csv(a)
    meta_b, head_b, data_b = read_csv(b)
    if meta_a != meta_b:
        return "metadata lines differ"
    if head_a != head_b or data_a.shape != data_b.shape:
        return f"header or shape differs ({data_a.shape} vs {data_b.shape})"
    same = (data_a == data_b) | (np.isnan(data_a) & np.isnan(data_b))
    with np.errstate(invalid="ignore"):
        diff = np.nan_to_num(np.where(same, 0.0, np.abs(data_a - data_b)), nan=np.inf)
    col = int(np.argmax(diff.max(axis=0)))
    return float(diff[:, col].max()), head_a[col]


def json_leaves(value, prefix=""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from json_leaves(v, f"{prefix}.{k}" if prefix else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from json_leaves(v, f"{prefix}[{i}]")
    else:
        yield prefix, value


def sidecar_difference(a, b):
    with open(a, encoding="utf-8") as fa, open(b, encoding="utf-8") as fb:
        la, lb = list(json_leaves(json.load(fa))), list(json_leaves(json.load(fb)))
    if [k for k, _ in la] != [k for k, _ in lb]:
        return "keys differ"
    worst = (0.0, None)
    for (key, x), (_, y) in zip(la, lb):
        if x == y:
            continue
        if not (isinstance(x, float) and isinstance(y, float)):
            return f"{key} differs ({x!r} vs {y!r})"
        worst = max(worst, (abs(x - y), key), key=lambda w: w[0])
    return worst


def source_lines(tree):
    """Total line count of a tree's src/gazestab/*.py, as `wc -l` gives it."""
    package = os.path.join(tree, "src", "gazestab")
    total = 0
    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def report(label, old, new, compare):
    """Print one file's verdict; return True on a breach."""
    with open(old, "rb") as fa, open(new, "rb") as fb:
        if fa.read() == fb.read():
            print(f"  {label:<38} identical")
            return False
    got = compare(old, new)
    if isinstance(got, str):
        print(f"  {label:<38} BREACH: {got}")
        return True
    worst, where = got
    ok = worst <= BUDGET
    print(f"  {label:<38} max |diff| {worst:.3g} ({where}) {'within' if ok else 'BREACH: over'} {BUDGET:g}")
    return not ok


def main(argv):
    if len(argv) != 2 or not all(os.path.isdir(os.path.join(t, "src", "gazestab")) for t in argv):
        raise SystemExit(__doc__.split("\n\n")[1])
    trees = argv
    breaches = 0
    print(f"refcheck {trees[0]} -> {trees[1]}")
    print(f"src/gazestab/*.py lines: {source_lines(trees[0])} -> {source_lines(trees[1])} (information, not a check)")
    with tempfile.TemporaryDirectory() as work:
        outdirs = [os.path.join(work, side) for side in ("old", "new")]
        for d in outdirs:
            os.mkdir(d)
        old, new = both(trees, outdirs, lambda tree: ["-c", LEDGER_CODE], "work ledger")
        ledger = ", ".join(f"{a.split()[0]} {a.split()[1]} -> {b.split()[1]}" for a, b in zip(old.splitlines(), new.splitlines()))
        print(f"work ledger, calls per tick: {ledger} (information, not a check)")
        print("logs and sidecars:")
        variants = [name for name, _, _ in VARIANTS]
        for tree, d in zip(trees, outdirs):
            for name, shipped, line in VARIANTS:
                # beside each tree's outputs: its model and script resolve to that tree's packaged data
                key = line.split()[0]
                with open(config_path(tree, shipped), encoding="utf-8") as fh:
                    kept = [ln for ln in fh if ln.split()[:1] != [key]]
                with open(os.path.join(d, f"{name}.config"), "w", encoding="utf-8") as fh:
                    fh.write("".join(kept) + line + "\n")
        runs = [name for names in SETS.values() for name in names]
        for name in runs + variants:

            def run_args(tree, name=name):
                config = f"{name}.config" if name in variants else config_path(tree, name)
                return ["-m", "gazestab.cli", "run", "--config", config, "--out", f"{name}.csv"]

            both(trees, outdirs, run_args, f"run {name}")
            old, new = (os.path.join(d, name) for d in outdirs)
            breaches += report(f"{name}.csv", old + ".csv", new + ".csv", csv_difference)
            breaches += report(f"{name}.summary.json", old + ".summary.json", new + ".summary.json", sidecar_difference)
        print("cross-read, each tree's read_log_csv on both trees' logs:")
        logs = [os.path.join(d, f"{name}.csv") for d in outdirs for name in runs + variants]
        old, new = both(trees, outdirs, lambda tree: ["-c", READ_CODE, *logs], "cross-read")
        for side, d in zip(("old", "new"), outdirs):
            differ = [
                os.path.basename(log)
                for log, a, b in zip(logs, old.split(), new.split())
                if os.path.dirname(log) == d and a != b
            ]
            label = f"{side} tree's {len(logs) // 2} logs"
            print(f"  {label:<38} {'identical' if not differ else 'BREACH: read differently: ' + ', '.join(differ)}")
            breaches += bool(differ)
        print("lift runs (they fail part-way), spin runs, singular-band runs and segment-edge runs:")
        for d in outdirs:
            scripts = (
                ("lift.script", LIFT_SCRIPT), ("spin.script", SPIN_SCRIPT), ("leave.script", LEAVE_SCRIPT),
                ("drift.script", DRIFT_SCRIPT), ("off-grid.script", OFF_GRID_SCRIPT),
            )
            for script_name, text in scripts:
                with open(os.path.join(d, script_name), "w", encoding="utf-8") as fh:
                    fh.write(text)
        for name, script_name, lines in EDGE_RUNS:
            for d in outdirs:
                with open(os.path.join(d, f"{name}.config"), "w", encoding="utf-8") as fh:
                    fh.write(f"config {name}\nmodel default_head.model\nscript {script_name}\n{lines}")
            args = ["-m", "gazestab.cli", "run", "--config", f"{name}.config", "--out", f"{name}.csv"]
            results = both_results(trees, outdirs, lambda tree: args)
            (code_a, _, err_a), (code_b, _, err_b) = results
            same = code_a == code_b and err_a.replace(outdirs[0], "<out>") == err_b.replace(outdirs[1], "<out>")
            print(f"  {name + ' exit code and stderr':<38} {'identical' if same else 'BREACH: differ'} (exit {code_b})")
            if not same:
                for side, (code, _, err) in zip(("old", "new"), results):
                    print(f"    {side}| exit {code}")
                    print("".join(f"    {side}| {ln}\n" for ln in err.splitlines()), end="")
            breaches += not same
            for suffix, compare in ((".csv", csv_difference), (".summary.json", sidecar_difference)):
                old, new = (os.path.join(d, name + suffix) for d in outdirs)
                if os.path.exists(old) and os.path.exists(new):
                    breaches += report(name + suffix, old, new, compare)
                elif os.path.exists(old) or os.path.exists(new):
                    print(f"  {name + suffix:<38} BREACH: written by one tree only")
                    breaches += 1
        print("gazestab compare:")
        for set_name, names in SETS.items():
            args = ["-m", "gazestab.cli", "compare", "--baseline", *(f"{n}.csv" for n in names)]
            old, new = both(trees, outdirs, lambda tree: args, f"compare {set_name}")
            same = old == new
            print(f"  {set_name:<38} {'identical' if same else 'BREACH: output differs'}")
            if not same:
                print("".join(f"    old| {ln}\n" for ln in old.splitlines()), end="")
                print("".join(f"    new| {ln}\n" for ln in new.splitlines()), end="")
            breaches += not same
        print(f"digests over {CONFIGURATIONS} seeded configurations:")
        old, new = both(trees, outdirs, lambda tree: ["-c", DIGEST_CODE], "digests")
        for label, a, b in zip(DIGESTS, old.split(), new.split()):
            same = a == b
            print(f"  {label:<38} {'identical' if same else 'BREACH: differs'} {b[:16]}")
            breaches += not same
    print(f"refcheck: {'clean' if not breaches else f'{breaches} breach(es)'}")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
