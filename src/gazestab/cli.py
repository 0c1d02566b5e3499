"""Command-line front end: run closed-loop experiments, compare logs.

    gazestab run --config exp_a_kff.config [--seed N] [--mode kff|ifb|off]
                 [--dof eyes|neck-eyes] [--out path.csv]
    gazestab compare --baseline off.csv kff.csv ifb.csv

Model and script names in configs resolve relative to the config file, then
$GAZESTAB_MODEL_DIR, then the packaged data directory, so the shipped
examples run from anywhere.  Exit codes: 0 success, 1 runtime failure
(diverged simulation, lost flow coverage, incomparable logs, unwritable
output), 2 bad or unreadable input files, settings past the tick cap, or
usage.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import stat
import sys
import warnings

from .errors import (
    FileFormatError,
    GazestabError,
    InsufficientCoverage,
    InvalidComparison,
    InvalidInput,
    JointLimitWarning,
    SimulationDiverged,
)
from .fileio import (
    config_overrides,
    parse_model_file,
    parse_run_config,
    parse_script_file,
    read_log_csv,
    resolve_input_path,
    write_log_csv,
    write_summary_json,
)
from .simulator import run_experiment, summarize


def _fail(msg: str, code: int) -> int:
    print(f"gazestab: error: {msg}", file=sys.stderr)
    return code


def _sidecar_path(out: str) -> str:
    root, ext = os.path.splitext(out)
    return (root if ext.lower() == ".csv" else out) + ".summary.json"


def _write_error(err: OSError, path: str) -> str:
    return f"cannot write {err.filename or path}: {err.strerror or err}"


def _out_dir_error(out: str) -> str | None:
    """Why out's directory cannot take a new file (checked before the run,
    so a bad --out fails at once), or None."""
    where = os.path.dirname(out) or "."
    try:
        if not stat.S_ISDIR(os.stat(where).st_mode):
            return os.strerror(errno.ENOTDIR)
    except OSError as err:
        return err.strerror
    if not os.access(where, os.W_OK | os.X_OK):
        return os.strerror(errno.EACCES)
    return None


@contextlib.contextmanager
def _joint_limit_summary():
    """Fold the plant's per-tick JointLimitWarnings as they arrive (a count,
    the first t, the union of joints) into one stderr line, printed when the
    run ends, failed or not; other warnings pass through."""
    count, first_t, joints = 0, None, set()
    with warnings.catch_warnings():
        warnings.simplefilter("always", JointLimitWarning)
        show = warnings.showwarning

        def fold(message, *where):
            nonlocal count, first_t
            if not isinstance(message, JointLimitWarning):
                return show(message, *where)
            if not count:
                first_t = message.t
            count += 1
            joints.update(message.joints)

        warnings.showwarning = fold
        try:
            yield
        finally:
            if count:
                print(
                    f"gazestab: warning: joint position limits clamped {count} ticks, "
                    f"first at t={first_t:.3f}s (mechanical joints {sorted(joints)})",
                    file=sys.stderr,
                )


def cmd_run(args) -> int:
    try:
        cfg = parse_run_config(args.config)
    except FileFormatError as err:
        return _fail(str(err), 2)
    try:
        cfg = config_overrides(cfg, mode=args.mode, dof=args.dof, seed=args.seed, out=args.out)
    except InvalidInput as err:
        return _fail(f"--seed: {err}", 2)

    config_dir = os.path.dirname(os.path.abspath(args.config))
    model_path = resolve_input_path(cfg.model_path, config_dir)
    script_path = resolve_input_path(cfg.script_path, config_dir)
    try:
        model = parse_model_file(model_path)
        script = parse_script_file(script_path)
    except GazestabError as err:
        return _fail(str(err), 2)
    try:
        script.validate(model)  # the channels a script may name are the model's
    except InvalidInput as err:
        return _fail(f"{script_path}: {err}", 2)

    out = cfg.out or f"{cfg.name}.csv"
    reason = _out_dir_error(out)
    if reason:
        return _fail(f"cannot write {out}: {reason}", 1)
    try:
        with _joint_limit_summary():
            log = run_experiment(model, script, cfg.settings)
    except InvalidInput as err:
        return _fail(f"{args.config}: {err}", 2)
    except (SimulationDiverged, InsufficientCoverage) as err:
        partial = getattr(err, "partial_log", None)
        if partial is not None and partial.n_rows() > 0:
            try:
                write_log_csv(partial, out)
            except OSError as werr:
                return _fail(f"{err}; partial log not written: {_write_error(werr, out)}", 1)
            print(f"partial log ({partial.n_rows()} rows) written to {out}", file=sys.stderr)
        return _fail(str(err), 1)
    except GazestabError as err:
        return _fail(str(err), 1)

    summary = summarize(log)
    try:
        write_log_csv(log, out)
        write_summary_json(summary, _sidecar_path(out))
    except OSError as err:
        return _fail(_write_error(err, out), 1)
    print(
        f"{cfg.name}: mode={summary.mode} dof={summary.dof_set} "
        f"ticks={log.n_rows() - 1} mean-optfl={summary.mean_optfl:.6f} px -> {out}"
    )
    return 0


def _condition_label(path: str, log) -> str:
    return f"{os.path.basename(path)} [{log.meta.get('mode')}/{log.meta.get('dof_set')}]"


def _percent(reduction: float | None, width: int) -> str:
    """A reduction as width.1f and %, or n/a (None: no positive finite baseline flow) in as many columns."""
    return f"{'n/a':>{width + 1}}" if reduction is None else f"{reduction:{width}.1f}%"


def cmd_compare(args) -> int:
    try:
        baseline = read_log_csv(args.baseline)
        logs = [(path, read_log_csv(path)) for path in args.logs]
    except FileFormatError as err:
        return _fail(str(err), 2)

    path = args.baseline  # the log being summarized, named on failure
    try:
        base_summary = summarize(baseline)
        rows = []
        for path, log in logs:
            rows.append((path, log, summarize(log, baseline=baseline)))
    except InvalidComparison as err:
        return _fail(f"{path}: {err}", 1)

    rows.sort(key=lambda r: r[2].mean_optfl)
    label_w = max(len(_condition_label(p, lg)) for p, lg in logs + [(args.baseline, baseline)])

    print(f"baseline: {_condition_label(args.baseline, baseline)}  mean-optfl {base_summary.mean_optfl:.6f} px")
    print()
    print(f"{'condition'.ljust(label_w)}  {'mean-optfl':>12}  {'reduction':>10}")
    for path, log, s in rows:
        print(f"{_condition_label(path, log).ljust(label_w)}  {s.mean_optfl:12.6f}  {_percent(s.reduction_pct, 9)}")
    print()

    if rows and rows[0][2].segments:
        print("per-segment mean optfl (reduction vs baseline):")
        seg_w = max(len(f"{s.label} {s.t_start:g}-{s.t_end:g}") for s in rows[0][2].segments)
        header = "segment".ljust(seg_w)
        for path, log, _ in rows:
            header += f"  {os.path.basename(path):>24}"
        print(header)
        for i, seg in enumerate(rows[0][2].segments):
            line = f"{seg.label} {seg.t_start:g}-{seg.t_end:g}".ljust(seg_w)
            for _, _, s in rows:
                cell = f"{s.segments[i].mean_optfl:.4f} ({_percent(s.segments[i].reduction_pct, 5)})"
                line += f"  {cell:>24}"
            print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gazestab",
        description="Closed-loop gaze stabilization runs and log comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one experiment from a config file")
    run_p.add_argument("--config", required=True, help="run configuration file")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--mode", choices=("kff", "ifb", "off"), default=None, help="override the estimator mode")
    run_p.add_argument("--dof", choices=("eyes", "neck-eyes"), default=None, help="override the joint set")
    run_p.add_argument("--out", default=None, help="override the CSV output path")
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="tabulate logs against a baseline log")
    cmp_p.add_argument("--baseline", required=True, help="baseline CSV log (usually the off condition)")
    cmp_p.add_argument("logs", nargs="+", help="CSV logs to compare")
    cmp_p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
