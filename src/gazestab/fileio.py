"""Line-oriented text formats for models, scripts, and run configs; CSV logs.

All files are human-editable plain text.  Blank lines and `#` comments are
ignored.  Model and script files declare their angle units before their
first angle (`units degrees` or `units radians`); lengths are always meters
and times always seconds.  Internally everything is radians, so a degrees
file and its radians twin parse to identical objects.

Model, script and config files share one line reader, _EntityFile: it takes
their name (`model`/`script`/`config`) and `units` lines, each at most once,
and hands every other line to the file's parser.  Model and script lines are
`directive key=value ...`; config lines are `key value` pairs, each key at
most once, and a config's units apply to the whole file.  Parse and
validation problems raise FileFormatError carrying the file path and 1-based
line number.

Trajectory logs are CSV with a frozen column set (see the README; the layout
is declared beside TrajectoryLog in gazestab.simulator), every cell written
as repr-faithful %.17g, and run metadata in `# key: value` comment lines
before the header -- byte identical across reruns of the same config.  The
reader splits each row on commas: the writer never quotes a cell, and a
quoted one is rejected as a bad number in its column.

Files are read a line at a time and logs written a block of rows at a time,
so log I/O streams in bounded memory per row (about the log's own arrays).
"""

from __future__ import annotations

import io
import json
import math
import os
from array import array
from dataclasses import asdict, dataclass, replace

import numpy as np

from .chain import DHLink, KinematicChain, Pose
from .errors import FileFormatError, InvalidInput
from .models import BASE_CHANNELS, HeadModel, _tilt_mismatch
from .simulator import (
    LOG_COLUMNS,
    LOG_META,
    CameraModel,
    CloudSpec,
    DisturbanceScript,
    NoiseSegment,
    PlantParams,
    ScriptSegment,
    SimSettings,
    TrajectoryLog,
)
from .stabilizer import StabilizerConfig
from .stereo import HEAD_SEGMENTS

MODEL_DIR_ENV = "GAZESTAB_MODEL_DIR"
# The segments a model file declares, in the order they must come.
SEGMENT_ORDER = tuple(dict.fromkeys(HEAD_SEGMENTS))
FLOAT_FMT = "%.17g"


def _fmt(x: float) -> str:
    return FLOAT_FMT % (x,)


# ----------------------------------------------------------------- scanning


def _numbered_lines(path: str):
    """(line_number, text) for each line of a UTF-8 text file, read one line
    at a time, without its line break (LF, CRLF or CR).  An unreadable file
    or an undecodable line is a FileFormatError, never an OSError or
    UnicodeDecodeError."""
    try:
        with open(path, "rb") as fh:
            # a binary file yields chunks ending at LF; splitlines also ends lines at CR
            lines = (line for chunk in fh for line in chunk.splitlines())
            for no, line in enumerate(lines, start=1):
                try:
                    text = line.decode("utf-8")
                except UnicodeDecodeError:
                    raise FileFormatError(path, no, "not UTF-8 text") from None
                yield no, text
    except FileNotFoundError:
        raise FileFormatError(path, 0, "file not found") from None
    except OSError as err:
        raise FileFormatError(path, 0, err.strerror or str(err)) from None


def _parse_float(path: str, no: int, token: str, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise FileFormatError(path, no, f"bad number {token!r} for {what}") from None


def _setting_value(path: str, no: int, key: str, raw: str, kind, units):
    """One config, link or script value parsed as its kind: str, int, float,
    "angle" (a float in the file's units, returned in radians) or "bool"."""
    if kind is str:
        return raw
    if kind == "bool":
        if raw.lower() not in ("true", "false"):
            raise FileFormatError(path, no, f"{key} must be true or false")
        return raw.lower() == "true"
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            raise FileFormatError(path, no, f"bad integer {raw!r} for {key}") from None
    v = _parse_float(path, no, raw, key)
    return units.to_rad(v) if kind == "angle" else v


def _parse_kv(path: str, no: int, tokens, allowed, flags=()):
    """key=value tokens -> dict; a bare flag word maps to True.  A key or a
    flag word given twice is a duplicate."""
    got = {}
    for tok in tokens:
        key, eq, value = tok.partition("=")
        if not eq and key in flags:
            value = True
        elif not eq:
            raise FileFormatError(path, no, f"expected key=value, got {tok!r}")
        elif key not in allowed:
            raise FileFormatError(path, no, f"unknown key {key!r} (allowed: {', '.join(sorted(allowed))})")
        if key in got:
            raise FileFormatError(path, no, f"duplicate key {key!r}")
        got[key] = value
    return got


def _parse_vector(path: str, no: int, text: str, n: int, what: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != n:
        raise FileFormatError(path, no, f"{what} needs {n} comma-separated numbers, got {len(parts)}")
    vec = np.array([_parse_float(path, no, p, what) for p in parts])
    if not np.isfinite(vec).all():
        raise FileFormatError(path, no, f"{what} must be finite, got {text}")
    return vec


class _Units:
    def __init__(self, path: str, no: int, name: str):
        if name not in ("degrees", "radians"):
            raise FileFormatError(path, no, f"units must be 'degrees' or 'radians', got {name!r}")
        self.name = name

    def to_rad(self, x: float) -> float:
        return math.radians(x) if self.name == "degrees" else x

    def from_rad(self, x: float) -> float:
        return math.degrees(x) if self.name == "degrees" else x


class _EntityFile:
    """The one reader of model, script and config files.  Blank lines and
    `#` comments aside, it takes the name line (kind) and the units line, and
    yields (line number, directive, args, units in force or None) for every
    other line; a needs_units directive before the units line, or a second
    kind, units or once line, is rejected at its line.  After the last line
    it holds name, units (None if the file has no units line) and last_no."""

    def __init__(self, path: str, kind: str, needs_units, once=()):
        self.path, self.kind, self.needs_units = path, kind, needs_units
        self.once = (kind, "units", *once)
        self.name = self.units = None
        self.last_no = 0

    def __iter__(self):
        path, first = self.path, {}
        for no, line in _numbered_lines(path):
            words = line.split("#", 1)[0].split()  # a blank or comment line has none
            if not words:
                continue
            self.last_no = no
            head, *rest = words
            if head in self.once:
                if head in first:
                    raise FileFormatError(path, no, f"second {head} line (the first is line {first[head]})")
                first[head] = no
            if head in (self.kind, "units"):
                if len(rest) != 1:
                    what = "value" if head == "units" else "name"
                    raise FileFormatError(path, no, f"{head} line needs exactly one {what}")
                if head == "units":
                    self.units = _Units(path, no, rest[0])
                else:
                    self.name = rest[0]
            elif self.units is None and head in self.needs_units:
                raise FileFormatError(path, no, f"units must be declared before {head} lines")
            else:
                yield no, head, rest, self.units
        if self.name is None:
            raise FileFormatError(path, self.last_no, f"missing {self.kind} line")


def _rot_zyx(yaw: float, pitch: float, roll: float) -> np.ndarray:
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return rz @ ry @ rx


# -------------------------------------------------------------- model files

# Each link key: its DHLink field and its _setting_value kind.  A key the
# line does not give keeps DHLink's default.
_LINK_KEYS = {
    "a": ("a", float),
    "d": ("d", float),
    "alpha": ("alpha", "angle"),
    "theta0": ("theta_offset", "angle"),
    "min": ("q_min", "angle"),
    "max": ("q_max", "angle"),
    "vmax": ("v_max", "angle"),
}


def parse_model_file(path: str) -> HeadModel:
    """Read a head model description; see data/default_head.model."""
    lines = _EntityFile(path, "model", needs_units=("base", "link"), once=("base", "imu"))
    base = Pose.identity()
    segment = None
    links: list[DHLink] = []
    segments: list[str] = []
    link_names: list[str] = []
    link_nos: list[int] = []
    imu = None

    for no, head, rest, units in lines:
        if head == "base":
            got = _parse_kv(path, no, rest, {"position", "rotation-zyx"})
            pos = _parse_vector(path, no, got.get("position", "0,0,0"), 3, "base position")
            ang = _parse_vector(path, no, got.get("rotation-zyx", "0,0,0"), 3, "base rotation")
            base = Pose(_rot_zyx(*(units.to_rad(a) for a in ang)), pos)
        elif head == "segment":
            if len(rest) != 1 or rest[0] not in SEGMENT_ORDER:
                raise FileFormatError(path, no, f"segment must be one of {SEGMENT_ORDER}")
            if segment is not None and SEGMENT_ORDER.index(rest[0]) < SEGMENT_ORDER.index(segment):
                order = " -> ".join(SEGMENT_ORDER)
                raise FileFormatError(path, no, f"segment {rest[0]} after {segment}: segments go {order}")
            segment = rest[0]
        elif head == "link":
            if segment is None:
                raise FileFormatError(path, no, "link line before any segment line")
            if not rest:
                raise FileFormatError(path, no, "link line needs a name")
            link_name, kv = rest[0], _parse_kv(path, no, rest[1:], _LINK_KEYS)
            if link_name in link_names:
                raise FileFormatError(path, no, f"duplicate link name {link_name!r}")
            fields = {}
            for key, raw in kv.items():
                field, kind = _LINK_KEYS[key]
                fields[field] = _setting_value(path, no, key, raw, kind, units)
            try:
                links.append(DHLink(**fields))
            except InvalidInput as err:
                raise FileFormatError(path, no, str(err)) from None
            segments.append(segment)
            link_names.append(link_name)
            link_nos.append(no)
        elif head == "imu":
            got = _parse_kv(path, no, rest, {"link", "offset"})
            if "link" not in got:
                raise FileFormatError(path, no, "imu line needs link=<name>")
            off = _parse_vector(path, no, got.get("offset", "0,0,0"), 3, "imu offset")
            imu = (no, got["link"], off)
        else:
            raise FileFormatError(path, no, f"unknown directive {head!r}")

    if imu is None:
        raise FileFormatError(path, lines.last_no, "missing imu line")
    imu_no, imu_name, imu_off = imu
    if imu_name not in link_names:
        raise FileFormatError(path, imu_no, f"imu link {imu_name!r} is not a declared link")
    imu_link = link_names.index(imu_name)
    try:
        chain = KinematicChain(tuple(links), base_pose=base, segments=tuple(segments))
        trunk = tuple(n for n, s in zip(link_names, segments) if s in ("torso", "neck"))
        return HeadModel(chain, imu_link, Pose(np.eye(3), imu_off), trunk_names=trunk, name=lines.name)
    except InvalidInput as err:
        # A HeadModel rule names its links: cite the later of their lines,
        # or the imu line for the IMU's link; other faults the last line.
        nos = [imu_no if i == imu_link else link_nos[i] for i in err.links]
        show = lines.units.from_rad  # the tilt rule (two links) speaks in the file's units
        tilt = len(err.links) == 2 and _tilt_mismatch(*(links[i] for i in err.links), lambda x: f"{show(x):.15g}")
        raise FileFormatError(path, max(nos, default=lines.last_no), tilt or str(err)) from None


def serialize_model(model: HeadModel, units: str = "degrees") -> str:
    """Text that parse_model_file reads back: in radians every link field
    exactly, in degrees each angle to within 1 ulp.  The base rotation goes as
    ZYX angles: it comes back to 1e-15 per entry."""
    u = _Units("<serialize>", 0, units)
    buf = io.StringIO()
    buf.write(f"model {model.name}\nunits {units}\n\n")
    bp = model.chain.base_pose
    if not (np.array_equal(bp.rot, np.eye(3)) and np.array_equal(bp.pos, np.zeros(3))):
        yaw = math.atan2(bp.rot[1, 0], bp.rot[0, 0])
        pitch = math.atan2(-bp.rot[2, 0], math.hypot(bp.rot[0, 0], bp.rot[1, 0]))
        roll = math.atan2(bp.rot[2, 1], bp.rot[2, 2])
        ang = ",".join(_fmt(u.from_rad(a)) for a in (yaw, pitch, roll))
        pos = ",".join(_fmt(x) for x in bp.pos)
        buf.write(f"base position={pos} rotation-zyx={ang}\n\n")
    names = _link_names(model)
    current = None
    for link, seg, link_name in zip(model.chain.links, model.chain.segments, names):
        if seg != current:
            buf.write(f"\nsegment {seg}\n" if current else f"segment {seg}\n")
            current = seg
        parts = [f"link {link_name}"]
        for key, (field, kind) in _LINK_KEYS.items():
            v = getattr(link, field)
            if math.isfinite(v):  # an unlimited limit is left out
                parts.append(f"{key}={_fmt(u.from_rad(v) if kind == 'angle' else v)}")
        buf.write(" ".join(parts) + "\n")
    off = ",".join(_fmt(x) for x in model.imu_offset.pos)
    buf.write(f"\nimu link={names[model.imu_link]} offset={off}\n")
    return buf.getvalue()


def _link_names(model: HeadModel):
    """Stable per-link names: trunk names plus eye tilt/pan pairs."""
    names = list(model.trunk_names)
    for side in ("left", "right"):
        names += [f"{side}-eye-tilt", f"{side}-eye-pan"]
    return names


# ------------------------------------------------------------- script files

# Each motion directive's keys, all required, and its one flag word.
_MOTION_KEYS = {
    "move": (("channel", "t", "rate"), "external"),
    "noise": (("channels", "t", "amplitude", "bandwidth", "seed"), "commanded"),
}


def parse_script_file(path: str) -> DisturbanceScript:
    """Read a disturbance script; see data/exp_a.script.  Channel names are
    checked against a model by DisturbanceScript.validate."""
    lines = _EntityFile(path, "script", needs_units=_MOTION_KEYS)
    moves: list[ScriptSegment] = []
    noises: list[NoiseSegment] = []
    for no, head, rest, units in lines:
        if head not in _MOTION_KEYS:
            raise FileFormatError(path, no, f"unknown directive {head!r}")
        keys, flag = _MOTION_KEYS[head]
        got = _parse_kv(path, no, rest, keys, flags=(flag,))
        for req in keys:
            if req not in got:
                raise FileFormatError(path, no, f"{head} line missing {req}=")
        t0, t1 = _parse_vector(path, no, got["t"], 2, "time span")
        named = got[keys[0]]  # a move's one channel, a noise line's list
        chans = tuple(named.split(","))
        repeated = len(set(chans)) < len(chans)
        if "" in chans or repeated or head == "move" and len(chans) > 1:
            what = "an empty" if "" in chans else "a repeated" if repeated else "more than one"
            raise FileFormatError(path, no, f"{keys[0]}={named} has {what} channel name")
        if len({c in BASE_CHANNELS for c in chans}) > 1:
            raise FileFormatError(path, no, "noise cannot mix joint and base channels (units differ)")
        kind = float if chans[0] in BASE_CHANNELS else "angle"  # base channels move in meters
        try:  # the parse helpers raise FileFormatError; the segments InvalidInput
            if head == "move":
                rate = _setting_value(path, no, "rate", got["rate"], kind, units)
                moves.append(ScriptSegment(t0, t1, named, rate, external=flag in got))
            else:
                amp = _setting_value(path, no, "amplitude", got["amplitude"], kind, units)
                seed = _setting_value(path, no, "seed", got["seed"], int, units)
                bw = _setting_value(path, no, "bandwidth", got["bandwidth"], float, units)
                noises.append(NoiseSegment(t0, t1, chans, amp, bw, seed, external=flag not in got))
        except InvalidInput as err:
            raise FileFormatError(path, no, str(err)) from None
    return DisturbanceScript(lines.name, tuple(moves), tuple(noises))


def serialize_script(script: DisturbanceScript, units: str = "degrees") -> str:
    u = _Units("<serialize>", 0, units)
    buf = io.StringIO()
    buf.write(f"script {script.name}\nunits {units}\n\n")
    for seg in script.segments:
        rate = seg.rate if seg.channel in BASE_CHANNELS else u.from_rad(seg.rate)
        flag = " external" if seg.external else ""
        buf.write(f"move channel={seg.channel} t={_fmt(seg.t_start)},{_fmt(seg.t_end)} rate={_fmt(rate)}{flag}\n")
    for seg in script.noise:
        amp = seg.amplitude if seg.channels[0] in BASE_CHANNELS else u.from_rad(seg.amplitude)
        flag = "" if seg.external else " commanded"
        buf.write(
            f"noise channels={','.join(seg.channels)} t={_fmt(seg.t_start)},{_fmt(seg.t_end)}"
            f" amplitude={_fmt(amp)} bandwidth={_fmt(seg.bandwidth)} seed={seg.seed}{flag}\n"
        )
    return buf.getvalue()


# -------------------------------------------------------------- run configs


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run: model + script paths plus simulator settings."""

    name: str
    model_path: str
    script_path: str
    settings: SimSettings
    out: str | None = None


# Every settings key of a run config: (part, field, kind).  The part names
# the dataclass the value feeds (run = SimSettings itself); a key the config
# does not give keeps that dataclass's default.  Kinds are str, int, float,
# "angle" (a float in the config's units) and "bool" (true or false).
_SETTING_KEYS = {
    "mode": ("control", "mode", str),
    "dof": ("control", "dof_set", str),
    "damping": ("control", "damping", float),
    "sequential": ("control", "sequential", "bool"),
    "neck-rate-limit": ("control", "neck_rate_limit", "angle"),
    "eye-rate-limit": ("control", "eye_rate_limit", "angle"),
    "dt": ("run", "dt", float),
    "duration": ("run", "duration", float),
    "seed": ("run", "seed", int),
    "gyro-noise": ("run", "gyro_sigma", float),
    "gyro-delay": ("run", "gyro_delay_ticks", int),
    "fixation-distance": ("run", "fixation_distance", float),
    "tau-neck": ("plant", "tau_neck", float),
    "tau-eye": ("plant", "tau_eye", float),
    "focal-length": ("cam", "f", float),
    "image-width": ("cam", "width", int),
    "image-height": ("cam", "height", int),
    "image-border": ("cam", "border", int),
    "cloud-points": ("cloud", "n", int),
    "cloud-azimuth": ("cloud", "azimuth", "angle"),
    "cloud-elevation": ("cloud", "elevation", "angle"),
    "cloud-seed": ("cloud", "seed", int),
}
_CONFIG_KEYS = {"config", "units", "model", "script", "out", "cloud-radius", *_SETTING_KEYS}


def default_data_dir() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def resolve_input_path(name: str, config_dir: str | None = None) -> str:
    """Find a model/script file: absolute, beside the config, $GAZESTAB_MODEL_DIR,
    then the packaged data directory.  Returns the name unchanged (for the
    caller's not-found diagnostics) when nothing matches."""
    if os.path.isabs(name):
        return name
    candidates = []
    if config_dir:
        candidates.append(os.path.join(config_dir, name))
    env = os.environ.get(MODEL_DIR_ENV)
    if env:
        candidates.append(os.path.join(env, name))
    candidates.append(os.path.join(default_data_dir(), name))
    for cand in candidates:
        if os.path.exists(cand):
            return cand
    return name


def parse_run_config(path: str) -> RunConfig:
    """Read a flat `key value` run configuration; see data/exp_a_kff.config.
    Each key comes at most once; `units` (degrees by default) applies to the
    whole file, wherever its line sits."""
    lines = _EntityFile(path, "config", needs_units=(), once=_CONFIG_KEYS)
    pairs: dict[str, list[str]] = {}
    line_of: dict[str, int] = {}  # in line order
    for no, key, rest, _ in lines:
        if key not in _CONFIG_KEYS:
            raise FileFormatError(path, no, f"unknown config key {key!r}")
        if not rest:
            raise FileFormatError(path, no, f"config key {key!r} needs a value")
        pairs[key], line_of[key] = rest, no
    units = lines.units or _Units(path, 0, "degrees")
    for req in ("model", "script"):
        if req not in pairs:
            raise FileFormatError(path, lines.last_no, f"missing required config key {req!r}")

    def config_from(given: dict[str, list[str]]) -> RunConfig:
        def one(key: str):
            if key not in given:
                return None
            if len(given[key]) != 1:
                raise FileFormatError(path, line_of[key], f"config key {key!r} takes one value")
            return given[key][0]

        parts: dict[str, dict] = {"control": {}, "plant": {}, "cam": {}, "cloud": {}, "run": {}}
        for key, (part, name, kind) in _SETTING_KEYS.items():
            raw = one(key)
            if raw is not None:
                parts[part][name] = _setting_value(path, line_of[key], key, raw, kind, units)
        if "cloud-radius" in given:
            radii, no = given["cloud-radius"], line_of["cloud-radius"]
            if len(radii) != 2:
                raise FileFormatError(path, no, "cloud-radius takes two values: min max")
            parts["cloud"]["r_min"] = _parse_float(path, no, radii[0], "cloud-radius")
            parts["cloud"]["r_max"] = _parse_float(path, no, radii[1], "cloud-radius")
        settings = SimSettings(
            control=StabilizerConfig(**parts["control"]),
            plant=PlantParams(**parts["plant"]),
            cam=CameraModel(**parts["cam"]),
            cloud=CloudSpec(**parts["cloud"]),
            **parts["run"],
        )
        return RunConfig(lines.name, one("model"), one("script"), settings, out=one("out"))

    try:
        return config_from(pairs)
    except InvalidInput as err:
        # Cite the first line at which the config read so far is rejected
        # with this same error: the offending key, or the later one of two
        # keys checked together.  An earlier prefix may fail for another
        # reason (a default that a later key replaces), which does not count.
        given: dict[str, list[str]] = {}
        for key, no in line_of.items():
            given[key] = pairs[key]
            try:
                config_from(given)
            except InvalidInput as prefix_err:
                if str(prefix_err) == str(err):
                    raise FileFormatError(path, no, str(err)) from None
        raise AssertionError("the whole config, the last prefix, failed differently") from err


def config_overrides(cfg: RunConfig, *, mode=None, dof=None, seed=None, out=None) -> RunConfig:
    """Apply CLI flag overrides on top of a parsed config."""
    settings = cfg.settings
    control = settings.control
    if mode is not None:
        control = replace(control, mode=mode)
    if dof is not None:
        control = replace(control, dof_set=dof)
    if mode is not None or dof is not None:
        settings = replace(settings, control=control)
    if seed is not None:
        settings = replace(settings, seed=seed)
    return replace(cfg, settings=settings, out=out if out is not None else cfg.out)


# ----------------------------------------------------------------- CSV logs

LOG_HEADER = tuple(c for _, cols, _ in LOG_COLUMNS for c in cols)
# All 47 columns are written as %.17g, which prints an integer-valued float
# as the integer does (1.0 -> "1"), and read back as LOG_COLUMNS types them.
_LOG_ROW = ",".join([FLOAT_FMT] * len(LOG_HEADER)) + "\n"
_LOG_BLOCK = 64  # rows per write: the writer holds one block, not the log
# The cells the writer writes in the checked columns: a finite tick time above
# the row before, a count as a whole number int64 holds, a flag as 0 or 1.
_FLAG = ("0 or 1", lambda c: (c == 0) | (c == 1))
_CELL_RULES = {
    "t": ("finite and increasing", lambda c: np.isfinite(c) & np.concatenate(([True], c[1:] > c[:-1]))),
    "n_valid": ("a whole number >= 0", lambda c: (c >= 0) & (c < 2.0**63) & (np.floor(c) == c)),
    "saturated": _FLAG,
    "singular": _FLAG,
}


def write_log_csv(log: TrajectoryLog, path: str) -> None:
    """One row per tick; metadata and script segments in leading comments."""
    arrays = [getattr(log, name) for name, _, _ in LOG_COLUMNS]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# gazestab-log: 1\n")
        for key in LOG_META:
            val = log.meta.get(key)
            if isinstance(val, float):
                val = _fmt(val)
            fh.write(f"# {key}: {val}\n")
        for label, t0, t1 in log.segments:
            fh.write(f"# segment: {label} {_fmt(t0)} {_fmt(t1)}\n")
        fh.write(",".join(LOG_HEADER) + "\n")
        for start in range(0, log.n_rows(), _LOG_BLOCK):
            block = np.column_stack([a[start : start + _LOG_BLOCK] for a in arrays])
            fh.write((_LOG_ROW * len(block)) % tuple(block.ravel().tolist()))


def read_log_csv(path: str) -> TrajectoryLog:
    """Inverse of write_log_csv, in one pass: a `#` line is metadata, the
    first other line the header and each later line a row of comma-split
    cells, each error at its own line."""
    meta: dict = {}
    segments = []
    header = False
    values, row_lines = array("d"), array("q")  # the cells, and each row's line number
    for no, line in _numbered_lines(path):
        if line.startswith("#"):
            key, colon, val = line[1:].partition(":")
            if not colon:
                raise FileFormatError(path, no, "malformed metadata comment")
            key, val = key.strip(), val.strip()
            if key == "segment":
                parts = val.split()
                if len(parts) != 3:
                    raise FileFormatError(path, no, "segment metadata needs: label t0 t1")
                t0, t1 = (_parse_float(path, no, p, "segment time") for p in parts[1:])
                segments.append((parts[0], t0, t1))
            elif key in meta:
                raise FileFormatError(path, no, f"second {key!r} metadata line")
            elif key == "gazestab-log" and val != "1":
                raise FileFormatError(path, no, f"unsupported log version {val!r}")
            else:
                try:
                    meta[key] = LOG_META.get(key, str)(val)
                except ValueError:
                    raise FileFormatError(path, no, f"bad metadata value for {key!r}") from None
                if key == "dt" and not 0.0 < meta[key] < math.inf:  # a segment's rows are ticks of the dt grid
                    raise FileFormatError(path, no, f"bad dt value {val!r}: must be positive and finite")
        elif header:
            cells = line.split(",")
            if len(cells) != len(LOG_HEADER):
                raise FileFormatError(path, no, f"row with {len(cells)} fields, expected {len(LOG_HEADER)}")
            try:
                values.extend([float(x) for x in cells])
            except ValueError:  # name the offending column
                values.extend([_parse_float(path, no, x, col) for col, x in zip(LOG_HEADER, cells)])
            row_lines.append(no)
        elif "gazestab-log" not in meta:  # the metadata before the header says what the file is
            break
        elif tuple(line.split(",")) != LOG_HEADER:
            raise FileFormatError(path, no, "unexpected CSV columns")
        elif "dt" not in meta:
            raise FileFormatError(path, no, "no '# dt:' metadata line before the header")
        else:
            header = True
    if "gazestab-log" not in meta:
        raise FileFormatError(path, 1, "not a gazestab log (missing '# gazestab-log: 1')")
    if not values:
        raise FileFormatError(path, 0, "log contains no data rows")
    table = np.frombuffer(values).reshape(-1, len(LOG_HEADER))
    blocks = np.split(table, np.cumsum([len(cols) for _, cols, _ in LOG_COLUMNS])[:-1], axis=1)
    meta.pop("gazestab-log")
    arrays = {}
    for (name, cols, dtype), block in zip(LOG_COLUMNS, blocks):
        col = block[:, 0] if len(cols) == 1 else block
        rule, test = _CELL_RULES.get(name, (None, None))
        if rule and not (ok := test(col)).all():
            row = int(np.argmin(ok))
            raise FileFormatError(path, row_lines[row], f"bad {name} value {float(col[row])!r}: must be {rule}")
        arrays[name] = col.astype(dtype, copy=False)
    return TrajectoryLog(meta=meta, segments=tuple(segments), **arrays)


def write_summary_json(summary, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(summary), fh, indent=2, sort_keys=False)
        fh.write("\n")
