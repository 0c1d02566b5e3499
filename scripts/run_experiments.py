#!/usr/bin/env python3
"""Run one packaged experiment's condition set end to end.

Runs each condition's shipped config, the passive baseline first, then
prints the comparison table against that baseline, overall and per script
segment.  Logs and summary sidecars land in --outdir (default
runs/<experiment>).

    python scripts/run_experiments.py {exp_a,exp_b,translation} [--outdir DIR]
"""

import argparse
import os
import sys

from gazestab.cli import main
from gazestab.fileio import default_data_dir

# experiment -> (condition configs, baseline first; what the run shows)
EXPERIMENTS = {
    "exp_a": (
        ("exp_a_off", "exp_a_kff", "exp_a_ifb", "exp_a_kff_eyes", "exp_a_ifb_eyes"),
        "Deterministic torso-sweep experiment, all five shipped conditions: the "
        "passive baseline, then kFF/iFB with neck+eyes and with eyes only.",
    ),
    "exp_b": (
        ("exp_b_off", "exp_b_ifb"),
        "Stochastic torso-noise experiment.  The disturbance is external (no "
        "feedforward signal), so kinematic feedforward is structurally blind "
        "here; the run pair shows what inertial feedback buys over the passive "
        "baseline.",
    ),
    "translation": (
        ("translate_off", "translate_kff", "translate_ifb"),
        "Pure head-translation experiment.  A gyroscope cannot see translation, "
        "so inertial feedback should match the baseline exactly while kinematic "
        "feedforward (which knows the commanded stage velocity) removes most of "
        "the flow.",
    ),
}


def run(experiment: str, outdir: str) -> int:
    os.makedirs(outdir, exist_ok=True)
    logs = []
    for name in EXPERIMENTS[experiment][0]:
        config = os.path.join(default_data_dir(), f"{name}.config")
        out = os.path.join(outdir, f"{name}.csv")
        code = main(["run", "--config", config, "--out", out])
        if code:
            return code
        logs.append(out)
    return main(["compare", "--baseline", logs[0], *logs[1:]])


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="experiment", required=True)
    for name, (_, rationale) in EXPERIMENTS.items():
        p = sub.add_parser(name, help=rationale, description=rationale)
        p.add_argument("--outdir", default=os.path.join("runs", name), help="where to put CSV logs")
    args = ap.parse_args()
    sys.exit(run(args.experiment, args.outdir))
