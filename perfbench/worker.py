"""One benchmark process: set up a workload, run its condition set for a
fixed time, check every output, and write the measurements as JSON.

    worker.py run MANIFEST --seconds S --trace 0|1 --result PATH [--spans PATH]
    worker.py probe MANIFEST SPAWNED_NS

`probe` measures set-up only: it imports gazestab, parses the inputs and
stops at the first run_experiment call, which it never makes.  SPAWNED_NS
is the monotonic clock when the parent spawned it, so the difference is the
set-up a user pays before a run.  It prints that time raw and scaled.

Measured iterations run the whole condition set: every run, its CSV log and
summary sidecar, and `compare` where the workload has one.  Each
iteration's outputs are checked as soon as it ends, outside its timed span
and before the next iteration overwrites them.  Untraced iterations record
one span per run and one span of a fixed reference kernel before every
plant step, which delimits the ticks and lets their times be scaled to a
fixed host speed; with --trace 1 every other iteration is traced through
all public functions instead.
"""

import sys
import time
from collections import namedtuple

# The tracer (and numpy through it) is imported inside the functions that
# use it, so that a set-up probe imports only what gazestab imports.

# One measured pass over the condition set; lo/hi bound its spans.
Iteration = namedtuple("Iteration", "traced wall runs compare_out lo hi")
REFERENCE_WINDOW = 15  # ticks in the rolling median of reference spans
PROBE_REFERENCES = 60  # reference calls timed after each set-up probe


class _SetupDone(Exception):
    pass


def _sidecar(out: str) -> str:
    return out[:-4] + ".summary.json" if out.lower().endswith(".csv") else out + ".summary.json"


def prepare(manifest):
    """Parse and validate each condition's inputs (the API workloads' set-up;
    the cli workload re-parses inside every `gazestab run`)."""
    import os

    from gazestab import fileio

    if manifest["cli"]:
        return None
    prepared = []
    for cond in manifest["conditions"]:
        cfg = fileio.parse_run_config(cond["config"])
        config_dir = os.path.dirname(cond["config"])
        model = fileio.parse_model_file(fileio.resolve_input_path(cfg.model_path, config_dir))
        script = fileio.parse_script_file(fileio.resolve_input_path(cfg.script_path, config_dir))
        script.validate(model)
        prepared.append((model, script, cfg.settings))
    return prepared


def probe(manifest, spawned_ns: int) -> None:
    """Print the seconds from spawned_ns (monotonic clock) to the first
    run_experiment call, raw and scaled to the reference speed by the
    reference kernel timed in this process right after (warmed first, since
    its first calls after import are slow)."""
    import io
    from contextlib import redirect_stdout

    import gazestab
    from gazestab import cli, simulator

    def first_run(*args, **kwargs):
        raise _SetupDone(time.monotonic_ns())

    for mod in (gazestab, simulator, cli):
        mod.run_experiment = first_run
    try:
        prepared = prepare(manifest)
        if prepared is None:
            cond = manifest["conditions"][0]
            with redirect_stdout(io.StringIO()):
                cli.main(["run", "--config", cond["config"], "--out", cond["out"]])
        else:
            gazestab.run_experiment(*prepared[0])
    except _SetupDone as done:
        import statistics

        import tracer as tr

        raw = (done.args[0] - spawned_ns) / 1e9
        for _ in range(PROBE_REFERENCES // 2):
            tr.reference_kernel()
        ref_ns = []
        for _ in range(PROBE_REFERENCES):
            t0 = time.perf_counter_ns()
            tr.reference_kernel()
            ref_ns.append(time.perf_counter_ns() - t0)
        print(raw, raw * tr.REFERENCE_MS / (statistics.median(ref_ns) / 1e6))
        return
    raise SystemExit("probe: run_experiment was never called")


# ------------------------------------------------------------- iterations


def _clamp_count(caught) -> int:
    return sum(1 for w in caught if issubclass(w.category, RuntimeWarning) and "joint position limit" in str(w.message))


def run_condition_set(manifest, prepared, tracer):
    """Run every condition once; return wall seconds and per-run records."""
    import io
    import traceback
    import warnings
    from contextlib import redirect_stdout

    import gazestab
    from gazestab import cli, fileio

    runs = []
    compare_out = None
    t0 = time.perf_counter()
    for k, cond in enumerate(manifest["conditions"]):
        run = {"mode": cond["mode"], "lo": len(tracer), "error": None}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                if prepared is None:
                    with redirect_stdout(io.StringIO()):
                        code = cli.main(["run", "--config", cond["config"], "--out", cond["out"]])
                    if code != 0:
                        run["error"] = f"gazestab run exited {code}"
                else:
                    log = gazestab.run_experiment(*prepared[k])
                    fileio.write_log_csv(log, cond["out"])
                    fileio.write_summary_json(gazestab.summarize(log), _sidecar(cond["out"]))
            except SystemExit as err:
                run["error"] = f"gazestab exited {err.code}"
            except Exception:
                run["error"] = traceback.format_exc(limit=3)
        run["clamp_warnings"] = _clamp_count(caught)
        runs.append(run)
    if manifest["cli"]:
        outs = [c["out"] for c in manifest["conditions"]]
        buf = io.StringIO()
        try:
            with redirect_stdout(buf):
                code = cli.main(["compare", "--baseline", outs[0], *outs[1:]])
            compare_out = (code, buf.getvalue())
        except Exception:
            compare_out = (None, traceback.format_exc(limit=3))
    return time.perf_counter() - t0, runs, compare_out


# ------------------------------------------------------------------ checks


def check_log(cond, run) -> dict:
    """Read a log back independently of gazestab and check its contract:
    ticks + 1 rows, every value finite, >= 10 valid flow points per tick,
    and a sidecar whose mean optical flow matches the log."""
    import csv
    import hashlib
    import json
    import math

    with open(cond["out"], "rb") as fh:
        data = fh.read()
    info = {"sha256": hashlib.sha256(data).hexdigest()}
    lines = [ln for ln in data.decode("utf-8").splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    header, body = rows[0], rows[1:]
    if len(body) != cond["ticks"] + 1:
        raise ValueError(f"{len(body)} rows, expected {cond['ticks'] + 1}")
    values = [[float(x) for x in r] for r in body]
    if not all(math.isfinite(x) for r in values for x in r):
        raise ValueError("non-finite value in log")
    col = {name: i for i, name in enumerate(header)}
    optfl = [r[col["optfl"]] for r in values[1:]]
    n_valid = [r[col["n_valid"]] for r in values[1:]]
    if min(n_valid) < 10:
        raise ValueError(f"a tick kept only {min(n_valid):g} valid flow points")
    info["mean_optfl"] = sum(optfl) / len(optfl)
    info["n_valid_sum"] = sum(n_valid)
    info["saturated"] = int(sum(r[col["saturated"]] for r in values))
    info["singular"] = int(sum(r[col["singular"]] for r in values))
    with open(_sidecar(cond["out"]), encoding="utf-8") as fh:
        side = json.load(fh)["mean_optfl"]
    if not abs(side - info["mean_optfl"]) <= 1e-9 * max(1.0, abs(side)):
        raise ValueError(f"sidecar mean_optfl {side!r} != log {info['mean_optfl']!r}")
    return info


def check_compare(compare_out) -> dict:
    """`compare` must show the paper's translation result: kff removes
    >= 90 % of the flow, ifb is blind to translation (within +-1 % of off)."""
    import re

    code, text = compare_out
    if code != 0:
        raise ValueError(f"gazestab compare exited {code}: {text.strip()[-200:]}")
    red = {}
    for line in text.splitlines():
        m = re.match(r"^\S+ \[(\w+)/[\w-]+\]\s+(\S+)\s+(\S+)%$", line)
        if m:
            red[m.group(1)] = float(m.group(3))
    if set(red) != {"kff", "ifb"}:
        raise ValueError(f"compare table not understood: {text.strip()[:300]}")
    if not red["kff"] >= 90.0:
        raise ValueError(f"kff reduction {red['kff']}% < 90%")
    if not abs(red["ifb"]) <= 1.0:
        raise ValueError(f"ifb reduction {red['ifb']}% outside +-1%")
    return red


def check_iteration(manifest, k: int, it: Iteration, first_sha: dict):
    """Check iteration k's logs and compare output: each log's contract, and
    a log byte-identical to the first iteration's of its mode (same seed).
    Returns the checked values by mode, the failure messages, one record
    per log (mean_optfl and SHA-256) and the number of checks attempted."""
    got, failures, logs = {}, [], []
    for cond, run in zip(manifest["conditions"], it.runs):
        try:
            if run["error"]:
                raise ValueError(run["error"])
            info = check_log(cond, run)
            if info["sha256"] != first_sha.setdefault(cond["mode"], info["sha256"]):
                raise ValueError("log differs from the first iteration's (same seed)")
        except (ValueError, OSError, KeyError) as err:
            failures.append(f"iteration {k} {cond['mode']}: {err}")
            continue
        info["clamp_warnings"] = run["clamp_warnings"]
        got[cond["mode"]] = info
        logs.append({"iteration": k, "traced": it.traced, "mode": cond["mode"], "ticks": cond["ticks"],
                     "mean_optfl": info["mean_optfl"], "sha256": info["sha256"]})
    attempted = len(it.runs)
    if it.compare_out is not None:
        attempted += 1
        try:
            got["compare"] = check_compare(it.compare_out)
        except ValueError as err:
            failures.append(f"iteration {k} compare: {err}")
    return got, failures, logs, attempted


# ---------------------------------------------------------------- analysis


def tick_samples(sp, runs):
    """Host ms of every tick and the reference kernel's ms beside it.

    Each plant step is preceded by one reference span, so a tick is the time
    from the end of one reference span to the start of the next.  Its
    reference time is the rolling median of reference spans around it, which
    follows host-speed drift without passing on one call's jitter.  Also
    returns the run time without reference spans and the ticks simulated."""
    import numpy as np

    import tracer as tr

    ref = sp.names.index(tr.REFERENCE)
    half = REFERENCE_WINDOW // 2
    ticks_ms, refs_ms, run_ns, ticks = [], [], 0, 0
    for r, n_ticks in runs:
        s = sp.subtree(r)
        ids = np.nonzero(sp.name_id[s] == ref)[0] + s.start
        padded = np.pad(sp.dur[ids] / 1e6, half, mode="edge")
        rolling = np.median(np.lib.stride_tricks.sliding_window_view(padded, REFERENCE_WINDOW), axis=1)
        ticks_ms.append((sp.start[ids[1:]] - sp.end[ids[:-1]]) / 1e6)
        refs_ms.append((rolling[1:] + rolling[:-1]) / 2)
        run_ns += int(sp.dur[r] - sp.dur[ids].sum())
        ticks += n_ticks
    return np.concatenate(ticks_ms), np.concatenate(refs_ms), run_ns, ticks


def iteration_seconds(sp, it: Iteration, ticks_ms, refs_ms):
    """The iteration's wall seconds without its reference spans, raw and
    scaled to the reference speed: ticks tick by tick, the rest (run set-up,
    log writes, compare) by the iteration's median reference."""
    import numpy as np

    import tracer as tr

    ref_ms = sp.dur[it.lo:it.hi][sp.name_id[it.lo:it.hi] == sp.names.index(tr.REFERENCE)].sum() / 1e6
    other_ms = it.wall * 1e3 - ref_ms - ticks_ms.sum()
    scaled_ms = ((ticks_ms / refs_ms).sum() + other_ms / float(np.median(refs_ms))) * tr.REFERENCE_MS
    return (it.wall * 1e3 - ref_ms) / 1e3, scaled_ms / 1e3


LOOP_METRICS = (
    "stereo.fixation_full_jacobian", "stereo.fixation_deriv_terms", "stereo.camera_frames",
    "stereo.fixation_point", "chain.geometric_jacobian", "chain.analytic_axis_jacobian",
    "chain.forward_kinematics", "stabilizer.compensate", "stabilizer.pinv_damped",
    "stabilizer.estimate_kff", "stabilizer.estimate_ifb", "simulator.synth_gyro",
    "simulator.shifted_model", "simulator.step",
)
PER_CALL_S = {
    "simulator.realize_s": "simulator.realize",
    "simulator.make_cloud_s": "simulator.make_cloud",
    "fileio.parse_run_config_s": "fileio.parse_run_config",
    "fileio.parse_model_file_s": "fileio.parse_model_file",
    "fileio.parse_script_file_s": "fileio.parse_script_file",
    "fileio.write_log_csv_s": "fileio.write_log_csv",
    "fileio.write_summary_json_s": "fileio.write_summary_json",
    "fileio.read_log_csv_s": "fileio.read_log_csv",
    "cli.compare_s": "cli.cmd_compare",
}


def layer_tables(sp, runs):
    """{group: (ticks, {label: (calls, self_ns, incl_ns)})} for every mode,
    for "all" runs, and for the spans outside any run (parsing, log
    writes and reads, cli), normalised by all ticks."""
    import numpy as np

    n = len(sp.names)
    acc = {}
    in_run = np.zeros(len(sp.dur), dtype=bool)

    def add(group, mask, n_ticks):
        ids = sp.name_id[mask]
        got = (
            np.bincount(ids, minlength=n),
            np.bincount(ids, weights=sp.self_ns[mask], minlength=n),
            np.bincount(ids, weights=sp.dur[mask], minlength=n),
        )
        ticks, sums = acc.get(group, (0, [np.zeros(n)] * 3))
        acc[group] = (ticks + n_ticks, [a + b for a, b in zip(sums, got)])

    for mode, r, n_ticks in runs:
        s = sp.subtree(r)
        in_run[s] = True
        add("all", s, n_ticks)
        add(mode, s, n_ticks)
    add("outside runs", ~in_run, acc["all"][0])
    return {
        g: (ticks, {sp.names[i]: (int(c[i]), float(sf[i]), float(inc[i])) for i in range(n) if c[i]})
        for g, (ticks, (c, sf, inc)) in acc.items()
    }


def per_layer_metrics(tables, sp, untraced_ms_per_tick, counts) -> dict:
    ticks, tab = tables["all"]
    out = {}
    for label in LOOP_METRICS:
        calls, self_ns, incl_ns = tab.get(label, (0, 0.0, 0.0))
        out[f"{label}.calls_per_tick"] = calls / ticks
        out[f"{label}.self_ms_per_tick"] = self_ns / ticks / 1e6
        if calls:
            out[f"{label}.us_per_call"] = incl_ns / calls / 1e3
    _, run_self, run_incl = tab["simulator.run_experiment"]
    out["simulator.loop_other_ms_per_tick"] = run_self / ticks / 1e6
    out["trace.coverage"] = 1.0 - run_self / run_incl
    out["trace.overhead_pct"] = 100.0 * (run_incl / ticks / 1e6 / untraced_ms_per_tick - 1.0)
    for metric, label in PER_CALL_S.items():
        idx = sp.ids(label)
        if len(idx):
            out[metric] = float(sp.dur[idx].mean()) / 1e9
    out.update(counts)
    return out


def condition_counts(manifest, checks) -> dict:
    """Deterministic per-condition-set counts, from the first iteration."""
    first = checks[0]
    valid = sum(first[c["mode"]]["n_valid_sum"] for c in manifest["conditions"])
    points = sum(c["ticks"] * c["cloud_points"] for c in manifest["conditions"])
    return {
        "simulator.flow.valid_ratio": valid / points,
        "simulator.saturated_ticks": sum(first[c["mode"]]["saturated"] for c in manifest["conditions"]),
        "simulator.singular_ticks": sum(first[c["mode"]]["singular"] for c in manifest["conditions"]),
        "simulator.clamp_warnings": sum(first[c["mode"]]["clamp_warnings"] for c in manifest["conditions"]),
    }


# -------------------------------------------------------------------- main


def measure(manifest, seconds: float, trace: bool, spans_path):
    import resource

    import numpy as np

    import tracer as tr

    timing, full = tr.Tracer(), tr.Tracer()
    layer_fns = tr.public_functions() if trace else None
    if trace:
        full.install(layer_fns)
    try:
        prepared = prepare(manifest)
    finally:
        full.uninstall()

    iterations, checks, failures, logs = [], [], [], []
    attempted = 0
    first_sha = {}  # mode -> SHA-256 of the first iteration's log
    t_begin = time.perf_counter()
    while True:
        traced = trace and len(iterations) % 2 == 1
        rec = full if traced else timing
        lo = len(rec)
        if traced:
            rec.install(layer_fns)
        else:
            tr.install_timing(rec)
        try:
            wall, runs, compare_out = run_condition_set(manifest, prepared, rec)
        finally:
            rec.uninstall()
        iterations.append(Iteration(traced, wall, runs, compare_out, lo, len(rec)))
        # Checked now, before the next iteration overwrites the logs.
        got, new_failures, new_logs, n = check_iteration(manifest, len(iterations) - 1, iterations[-1], first_sha)
        checks.append(got)
        failures += new_failures
        logs += new_logs
        attempted += n
        elapsed = time.perf_counter() - t_begin
        if len(iterations) >= 2 and elapsed + float(np.median([it.wall for it in iterations])) > seconds:
            break
        if elapsed > 100.0:  # keeps the whole run inside its time limit
            break

    failed = len(failures)
    result = {"iterations": len(iterations), "attempted": attempted, "failed": failed,
              "failures": failures, "logs": logs, "machine": {
                  "python": sys.version.split()[0],
                  "numpy": np.__version__,
                  "scipy": sys.modules["scipy"].__version__ if "scipy" in sys.modules else "not-imported",
              }}
    if failed:
        return result

    ticks_of = {c["mode"]: c["ticks"] for c in manifest["conditions"]}

    def run_spans(rec, traced):
        """The record's spans and, per iteration of that kind, the iteration
        and its runs as (mode, run_experiment span, ticks)."""
        sp = rec.spans()
        starts = sp.ids("simulator.run_experiment")
        out = []
        for it in iterations:
            if it.traced == traced:
                spans = [int(starts[np.searchsorted(starts, run["lo"])]) for run in it.runs]
                out.append((it, [(run["mode"], r, ticks_of[run["mode"]]) for run, r in zip(it.runs, spans)]))
        return sp, out

    sp, by_iteration = run_spans(timing, False)
    per_iteration = [tick_samples(sp, [(r, n) for _, r, n in runs]) for _, runs in by_iteration]
    ticks_ms = np.concatenate([t for t, _, _, _ in per_iteration])
    refs_ms = np.concatenate([r for _, r, _, _ in per_iteration])
    run_ns = sum(n for _, _, n, _ in per_iteration)
    ticks = sum(n for _, _, _, n in per_iteration)
    scaled = ticks_ms * tr.REFERENCE_MS / refs_ms
    p99 = float(np.percentile(scaled, 99))
    seconds_each = [iteration_seconds(sp, it, t, r) for (it, _), (t, r, _, _) in zip(by_iteration, per_iteration)]
    result.update({
        "ms_per_tick": float(np.median(scaled)),
        "ms_per_tick_p99": p99,
        "tick_samples": int(scaled.size),
        "beyond_p99": int(np.count_nonzero(scaled > p99)),
        "raw_ms_per_tick": float(np.median(ticks_ms)),
        "raw_ms_per_tick_p99": float(np.percentile(ticks_ms, 99)),
        "raw_ms_per_tick_mean": run_ns / ticks / 1e6,
        "reference_ms": float(np.median(refs_ms)),
        "workload_s": float(np.median([s for _, s in seconds_each])),
        "raw_workload_s_all": [raw for raw, _ in seconds_each],
        "workload_s_all": [s for _, s in seconds_each],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counts": condition_counts(manifest, checks),
    })
    if trace:
        sp, by_iteration = run_spans(full, True)
        tables = layer_tables(sp, [run for _, runs in by_iteration for run in runs])
        result["per_layer"] = per_layer_metrics(tables, sp, result["raw_ms_per_tick_mean"], result["counts"])
        result["layer_tables"] = {g: {"ticks": t, "rows": tab} for g, (t, tab) in tables.items()}
        if spans_path:
            sp.write_csv_gz(spans_path)
    return result


def main(argv) -> int:
    import argparse
    import json

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure the workload and write the result JSON")
    run.add_argument("manifest")
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run.add_argument("--result", required=True)
    run.add_argument("--spans")
    probe_ap = sub.add_parser("probe", help="time set-up up to the first run_experiment call")
    probe_ap.add_argument("manifest")
    probe_ap.add_argument("spawned_ns", type=int)
    args = ap.parse_args(argv)
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if args.command == "probe":
        probe(manifest, args.spawned_ns)
        return 0
    result = measure(manifest, args.seconds, bool(args.trace), args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
