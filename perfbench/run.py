"""gazestab closed-loop benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/gazestab).
It writes the workload's seeded inputs under .perfbench_runs/, runs the
workload in a worker process for S seconds (single thread, closed loop: each
run starts when the previous one ends), checks every output, and prints the
end-to-end metrics (--trace 0) or the per-layer trace metrics (--trace 1),
ending with one JSON line holding the metrics BENCHMARK.json lists:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 it also spawns fresh interpreters that stop at the first
run_experiment call, to time set-up.  Times are scaled to a fixed host speed
by a reference kernel timed beside them -- before every plant step, and
after each set-up probe (see tracer.REFERENCE_MS); the raw host times and
the tick-time p99 are printed beside them.  Workloads (see BENCHMARK.json):

    sweep-kff      exp-A torso sweeps, kff: three fixation Jacobians per tick
    shake-ifb      exp-B torso noise, ifb with gyro noise: the only synth_gyro load
    translate-set  base translation, off/kff/ifb through `gazestab run`, then
                   `gazestab compare`: the only workload that reads logs back
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tr  # noqa: E402
from inputs import WORKLOADS, write_inputs  # noqa: E402

RUN_DIR = ".perfbench_runs"
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 140  # with the probes, a run ends within 180 s
PROBE_TIMEOUT_S = 4
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def child_env(root: str) -> dict:
    """The checkout's src on the path, single-threaded BLAS/OpenMP, and no
    inherited Python or gazestab settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "GAZESTAB_"))}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_times(manifest_path: str, env: dict) -> list[tuple[float, float]]:
    """(raw, reference-scaled) seconds from spawning a fresh interpreter to
    its first run_experiment call, once per probe."""
    out = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "probe", manifest_path, str(time.monotonic_ns())]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr[-2000:]}")
        raw, scaled = done.stdout.split()
        out.append((float(raw), float(scaled)))
    return out


def print_layer_tables(tables: dict) -> None:
    for group, body in tables.items():
        ticks, rows = body["ticks"], body["rows"]
        print(f"layer table [{group}], {ticks} ticks (self = span minus child spans; inclusive us/call):")
        print(f"  {'function':38} {'calls/tick':>10} {'self ms/tick':>12} {'us/call':>10}")
        for label, (calls, self_ns, incl_ns) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
            print(f"  {label:38} {calls / ticks:10.3f} {self_ns / ticks / 1e6:12.4f} {incl_ns / calls / 1e3:10.1f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be between 1 and 60")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gazestab", "__init__.py")):
        print("perfbench: error: run from the root of a gazestab source checkout (no src/gazestab here)", file=sys.stderr)
        return 2

    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    env = child_env(root)
    os.makedirs(os.path.join(root, RUN_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, RUN_DIR))
    try:
        manifest = write_inputs(args.workload, args.seed, work)
        manifest_path = os.path.join(work, "manifest.json")
        result_path = os.path.join(work, "result.json")
        spans_path = os.path.join(root, RUN_DIR, f"{args.workload}.spans.csv.gz")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "run", manifest_path,
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--result", result_path]
        if args.trace:
            cmd += ["--spans", spans_path]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        if done.returncode != 0:
            print(f"perfbench: error: worker exited {done.returncode}\n{done.stderr[-4000:]}", file=sys.stderr)
            return 1
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
        if not args.trace:
            res["setup_s_all"] = setup_times(manifest_path, env)
            res["setup_s"] = statistics.median(scaled for _, scaled in res["setup_s_all"])
    except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    res["machine"].update(nproc=os.cpu_count(), loadavg_1m=os.getloadavg()[0])
    print("machine: " + " ".join(f"{k}={v}" for k, v in res["machine"].items()))
    for log in res["logs"]:
        print(f"log it{log['iteration']}{'T' if log['traced'] else ' '} {log['mode']:3} ticks={log['ticks']} "
              f"mean_optfl={log['mean_optfl']:.12g} sha256={log['sha256']}")
    for msg in res["failures"]:
        print(f"FAILED: {msg}")
    print(f"failed_frac {res['failed'] / res['attempted']:.4f}  ({res['failed']} of {res['attempted']} runs and compares)")

    correct = res["failed"] == 0
    if correct:
        print("counts per condition set: " + " ".join(f"{k}={v:.6g}" for k, v in res["counts"].items()))
    if not correct:
        values = {}
    elif args.trace:
        print_layer_tables(res["layer_tables"])
        values = res["per_layer"]
        print("per-layer metrics (BENCHMARK.json lists only those above 0 on every workload):")
        for name, value in values.items():
            print(f"  {name:45} {value:.6g}")
        if values["trace.coverage"] < 0.9:
            print("TRACE FLAGGED: coverage below 0.9; the per-layer split misses loop time")
        print(f"spans written to {os.path.relpath(spans_path, root)}")
    else:
        values = res
        print(f"times are host times scaled to the reference speed (reference kernel median "
              f"{res['reference_ms']:.4f} ms here, {tr.REFERENCE_MS} ms nominal); raw host times in brackets")
        print(f"ms_per_tick: median {res['ms_per_tick']:.4f} [{res['raw_ms_per_tick']:.4f}] ms, "
              f"p99 {res['ms_per_tick_p99']:.4f} [{res['raw_ms_per_tick_p99']:.4f}] ms with {res['beyond_p99']} "
              f"of {res['tick_samples']} tick samples beyond it; raw mean {res['raw_ms_per_tick_mean']:.4f} ms")
        print(f"workload_s: median of {res['iterations']} condition sets: "
              + " ".join(f"{w:.3f} [{r:.3f}]" for w, r in zip(res["workload_s_all"], res["raw_workload_s_all"])))
        print(f"setup_s: median of {len(res['setup_s_all'])} fresh interpreters: "
              + " ".join(f"{s:.4f} [{r:.4f}]" for r, s in res["setup_s_all"]))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted} if correct else {}
    for name, m in metrics.items():
        print(f"{name:45} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
