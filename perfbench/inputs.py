"""Seeded input files for the three benchmark workloads.

The benchmark never reads the package's shipped data files: every workload
writes its own model, script and config files from the templates below into
a fresh directory, so the program sees only generated inputs and a later
change to the shipped examples cannot move the benchmark.

The templates reproduce the shipped experiment A (torso sweeps), experiment
B (band-limited torso noise) and the base-stage translation experiment.  The
benchmark seed offsets the three seeds those files carry:

    cloud-seed = 2024 + seed    (CloudSpec default)
    seed       = seed           (run seed: gyro noise)
    noise seed = 101 + seed     (exp-B noise segment)

so seed 0 reproduces the shipped inputs exactly.
"""

from __future__ import annotations

import json
import os

SEED_MODULUS = 2**31

MODEL = """\
model default-head
units degrees

segment torso
link torso-yaw   a=0    d=0     alpha=-90 theta0=0   min=-52 max=52 vmax=145
link torso-pitch a=0    d=0     alpha=-90 theta0=-90 min=-52 max=52 vmax=145
link torso-roll  a=0.32 d=0.06  alpha=90  theta0=0   min=-52 max=52 vmax=145

segment neck
link neck-pitch  a=0    d=0     alpha=-90 theta0=0   min=-52 max=52 vmax=145
link neck-roll   a=0    d=0     alpha=90  theta0=90  min=-52 max=52 vmax=145
link neck-yaw    a=0.05 d=0.08  alpha=-90 theta0=90  min=-52 max=52 vmax=145

segment left-eye
link left-eye-tilt  a=0 d=0.034  alpha=-90 theta0=0  min=-42 max=42 vmax=345
link left-eye-pan   a=0 d=0      alpha=90  theta0=90 min=-52 max=52 vmax=345

segment right-eye
link right-eye-tilt a=0 d=-0.034 alpha=-90 theta0=0  min=-42 max=42 vmax=345
link right-eye-pan  a=0 d=0      alpha=90  theta0=90 min=-52 max=52 vmax=345

imu link=neck-yaw offset=-0.02,-0.03,0
"""

SWEEP_SCRIPT = """\
script exp-a
units degrees

move channel=torso-yaw   t=1,2      rate=20
move channel=torso-yaw   t=2,3      rate=-20
move channel=torso-pitch t=3.5,4.5  rate=20
move channel=torso-pitch t=4.5,5.5  rate=-20
move channel=torso-roll  t=6,8      rate=20
move channel=torso-roll  t=8,10     rate=-20
move channel=torso-yaw   t=10.5,11.5 rate=20
move channel=torso-pitch t=10.5,11.5 rate=20
move channel=torso-roll  t=10.5,11.5 rate=20
move channel=torso-yaw   t=11.5,12.5 rate=-20
move channel=torso-pitch t=11.5,12.5 rate=-20
move channel=torso-roll  t=11.5,12.5 rate=-20
"""

SHAKE_SCRIPT = """\
script exp-b
units degrees

noise channels=torso-yaw,torso-pitch,torso-roll t=0.5,10.5 amplitude=15 bandwidth=1.2 seed={noise_seed}
"""

TRANSLATE_SCRIPT = """\
script translate
units degrees

move channel=base-y t=0.5,2  rate=0.15
move channel=base-y t=2,3.5  rate=-0.15
move channel=base-z t=4,5    rate=0.1
move channel=base-z t=5,6    rate=-0.1
"""

CONFIG = """\
config {name}
units degrees
model default_head.model
script {script}
mode {mode}
dof neck-eyes
duration {duration}
gyro-noise {gyro_noise}
seed {run_seed}
cloud-seed {cloud_seed}
{extra}"""

# name -> (script file, script template, duration s, gyro noise, extra config
# lines, cloud points, modes, runs through the cli and ends with compare)
WORKLOADS = {
    "sweep-kff": ("exp_a.script", SWEEP_SCRIPT, 13, 0, "", 900, ("kff",), False),
    "shake-ifb": ("exp_b.script", SHAKE_SCRIPT, 11, 0.005, "", 900, ("ifb",), False),
    "translate-set": (
        "translate.script", TRANSLATE_SCRIPT, 6.5, 0,
        "focal-length 480\ncloud-points 1600\n", 1600, ("off", "kff", "ifb"), True,
    ),
}
DT = 0.01  # the configs keep the default tick


def write_inputs(workload: str, seed: int, directory: str) -> dict:
    """Write model, script and one config per condition; return the manifest
    the worker runs from (also saved as manifest.json in the directory)."""
    script_name, script_tpl, duration, gyro_noise, extra, cloud_n, modes, cli = WORKLOADS[workload]
    seed %= SEED_MODULUS
    files = {
        "default_head.model": MODEL,
        script_name: script_tpl.format(noise_seed=101 + seed),
    }
    conditions = []
    for mode in modes:
        name = f"{workload}-{mode}"
        files[f"{name}.config"] = CONFIG.format(
            name=name, script=script_name, mode=mode, duration=duration,
            gyro_noise=gyro_noise, run_seed=seed, cloud_seed=2024 + seed, extra=extra,
        )
        conditions.append({
            "mode": mode,
            "config": os.path.join(directory, f"{name}.config"),
            "out": os.path.join(directory, f"{name}.csv"),
            "ticks": int(round(duration / DT)),
            "cloud_points": cloud_n,
        })
    for fname, text in files.items():
        with open(os.path.join(directory, fname), "w", encoding="utf-8") as fh:
            fh.write(text)
    manifest = {"workload": workload, "seed": seed, "cli": cli, "conditions": conditions}
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest
