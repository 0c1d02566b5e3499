"""Line-oriented text formats for models, scripts, and run configs; CSV logs.

All files are human-editable plain text.  Blank lines and `#` comments are
ignored.  Model and script files declare their angle units up front
(`units degrees` or `units radians`); lengths are always meters and times
always seconds.  Internally everything is radians, so a degrees file and
its radians twin parse to identical objects.

Model/script entity lines use `directive key=value ...` tokens; run configs
are flat `key value` pairs.  Parse and validation problems raise
FileFormatError carrying the file path and 1-based line number.

Trajectory logs are CSV with a frozen column set (documented in the README
and in LOG_COLUMNS below), floats serialized with repr-faithful %.17g, and
run metadata in `# key: value` comment lines before the header -- byte
identical across reruns of the same config.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .chain import DHLink, KinematicChain, Pose
from .errors import FileFormatError, InvalidInput
from .models import BASE_CHANNELS, EYE_DOF_NAMES, TRUNK_NAMES, HeadModel
from .simulator import (
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

MODEL_DIR_ENV = "GAZESTAB_MODEL_DIR"
SEGMENT_ORDER = ("torso", "neck", "left-eye", "right-eye")
FLOAT_FMT = "%.17g"


def _fmt(x: float) -> str:
    return FLOAT_FMT % (x,)


# ----------------------------------------------------------------- scanning


def _numbered_lines(path: str):
    """(line_number, text) for every line of a UTF-8 text file, without its
    line break.  An unreadable file or an undecodable line is a
    FileFormatError, never an OSError or UnicodeDecodeError."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise FileFormatError(path, 0, "file not found") from None
    except OSError as err:
        raise FileFormatError(path, 0, err.strerror or str(err)) from None
    out = []
    for no, line in enumerate(raw.splitlines(), start=1):
        try:
            out.append((no, line.decode("utf-8")))
        except UnicodeDecodeError:
            raise FileFormatError(path, no, "not UTF-8 text") from None
    return out


def _content_lines(path: str):
    """(line_number, text) for every non-blank, non-comment line."""
    out = []
    for no, line in _numbered_lines(path):
        text = line.split("#", 1)[0].strip()
        if text:
            out.append((no, text))
    return out


def _parse_float(path: str, no: int, token: str, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise FileFormatError(path, no, f"bad number {token!r} for {what}") from None


def _parse_kv(path: str, no: int, tokens, allowed, flags=()):
    """key=value tokens (plus bare flag words) -> dict."""
    got = {}
    for tok in tokens:
        if tok in flags:
            got[tok] = True
            continue
        if "=" not in tok:
            raise FileFormatError(path, no, f"expected key=value, got {tok!r}")
        key, _, value = tok.partition("=")
        if key not in allowed:
            raise FileFormatError(path, no, f"unknown key {key!r} (allowed: {', '.join(sorted(allowed))})")
        if key in got:
            raise FileFormatError(path, no, f"duplicate key {key!r}")
        got[key] = value
    return got


def _parse_vector(path: str, no: int, text: str, n: int, what: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != n:
        raise FileFormatError(path, no, f"{what} needs {n} comma-separated numbers, got {len(parts)}")
    return np.array([_parse_float(path, no, p, what) for p in parts])


class _Units:
    def __init__(self, path: str, no: int, name: str):
        if name not in ("degrees", "radians"):
            raise FileFormatError(path, no, f"units must be 'degrees' or 'radians', got {name!r}")
        self.name = name

    def to_rad(self, x: float) -> float:
        return math.radians(x) if self.name == "degrees" else x

    def from_rad(self, x: float) -> float:
        return math.degrees(x) if self.name == "degrees" else x


def _rot_zyx(yaw: float, pitch: float, roll: float) -> np.ndarray:
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return rz @ ry @ rx


# -------------------------------------------------------------- model files

_LINK_KEYS = {"a", "d", "alpha", "theta0", "min", "max", "vmax"}
_LINK_ANGLE_KEYS = {"alpha", "theta0", "min", "max", "vmax"}


def parse_model_file(path: str) -> HeadModel:
    """Read a head model description; see data/default_head.model."""
    name = None
    units = None
    base = Pose.identity()
    segment = None
    links: list[DHLink] = []
    segments: list[str] = []
    link_names: list[str] = []
    imu = None
    last_no = 0

    for no, text in _content_lines(path):
        last_no = no
        tokens = text.split()
        head, rest = tokens[0], tokens[1:]
        if head == "model":
            if len(rest) != 1:
                raise FileFormatError(path, no, "model line needs exactly one name")
            name = rest[0]
        elif head == "units":
            if len(rest) != 1:
                raise FileFormatError(path, no, "units line needs exactly one value")
            units = _Units(path, no, rest[0])
        elif head == "base":
            got = _parse_kv(path, no, rest, {"position", "rotation-zyx"})
            if units is None:
                raise FileFormatError(path, no, "units must be declared before base")
            pos = _parse_vector(path, no, got.get("position", "0,0,0"), 3, "base position")
            ang = _parse_vector(path, no, got.get("rotation-zyx", "0,0,0"), 3, "base rotation")
            base = Pose(_rot_zyx(*(units.to_rad(a) for a in ang)), pos)
        elif head == "segment":
            if len(rest) != 1 or rest[0] not in SEGMENT_ORDER:
                raise FileFormatError(path, no, f"segment must be one of {SEGMENT_ORDER}")
            segment = rest[0]
        elif head == "link":
            if segment is None:
                raise FileFormatError(path, no, "link line before any segment line")
            if units is None:
                raise FileFormatError(path, no, "units must be declared before links")
            if not rest:
                raise FileFormatError(path, no, "link line needs a name")
            link_name, kv = rest[0], _parse_kv(path, no, rest[1:], _LINK_KEYS)
            if link_name in link_names:
                raise FileFormatError(path, no, f"duplicate link name {link_name!r}")
            vals = {}
            for key, raw in kv.items():
                v = _parse_float(path, no, raw, key)
                vals[key] = units.to_rad(v) if key in _LINK_ANGLE_KEYS else v
            try:
                links.append(
                    DHLink(
                        a=vals.get("a", 0.0),
                        d=vals.get("d", 0.0),
                        alpha=vals.get("alpha", 0.0),
                        theta_offset=vals.get("theta0", 0.0),
                        q_min=vals.get("min", -math.inf),
                        q_max=vals.get("max", math.inf),
                        v_max=vals.get("vmax", math.inf),
                    )
                )
            except InvalidInput as err:
                raise FileFormatError(path, no, str(err)) from None
            segments.append(segment)
            link_names.append(link_name)
        elif head == "imu":
            got = _parse_kv(path, no, rest, {"link", "offset"})
            if "link" not in got:
                raise FileFormatError(path, no, "imu line needs link=<name>")
            off = _parse_vector(path, no, got.get("offset", "0,0,0"), 3, "imu offset")
            imu = (no, got["link"], off)
        else:
            raise FileFormatError(path, no, f"unknown directive {head!r}")

    if name is None:
        raise FileFormatError(path, last_no, "missing model line")
    if imu is None:
        raise FileFormatError(path, last_no, "missing imu line")
    imu_no, imu_name, imu_off = imu
    if imu_name not in link_names:
        raise FileFormatError(path, imu_no, f"imu link {imu_name!r} is not a declared link")
    try:
        chain = KinematicChain(tuple(links), base_pose=base, segments=tuple(segments))
        trunk = tuple(n for n, s in zip(link_names, segments) if s in ("torso", "neck"))
        return HeadModel(
            chain=chain,
            imu_link=link_names.index(imu_name),
            imu_offset=Pose(np.eye(3), imu_off),
            trunk_names=trunk,
            name=name,
        )
    except InvalidInput as err:
        raise FileFormatError(path, last_no, str(err)) from None


def serialize_model(model: HeadModel, units: str = "degrees") -> str:
    """Inverse of parse_model_file (field-for-field round trip)."""
    u = _Units("<serialize>", 0, units)
    buf = io.StringIO()
    buf.write(f"model {model.name}\nunits {units}\n\n")
    bp = model.chain.base_pose
    if not (np.array_equal(bp.rot, np.eye(3)) and np.array_equal(bp.pos, np.zeros(3))):
        yaw = math.atan2(bp.rot[1, 0], bp.rot[0, 0])
        pitch = math.asin(max(-1.0, min(1.0, -bp.rot[2, 0])))
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
        parts = [f"link {link_name}", f"a={_fmt(link.a)}", f"d={_fmt(link.d)}"]
        parts.append(f"alpha={_fmt(u.from_rad(link.alpha))}")
        parts.append(f"theta0={_fmt(u.from_rad(link.theta_offset))}")
        if math.isfinite(link.q_min):
            parts.append(f"min={_fmt(u.from_rad(link.q_min))}")
        if math.isfinite(link.q_max):
            parts.append(f"max={_fmt(u.from_rad(link.q_max))}")
        if math.isfinite(link.v_max):
            parts.append(f"vmax={_fmt(u.from_rad(link.v_max))}")
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

_MOVE_KEYS = {"channel", "t", "rate"}
_NOISE_KEYS = {"channels", "t", "amplitude", "bandwidth", "seed"}


def _is_base_channel(ch: str) -> bool:
    return ch in BASE_CHANNELS


def parse_script_file(path: str) -> DisturbanceScript:
    """Read a disturbance script; see data/exp_a.script."""
    name = None
    units = None
    moves: list[ScriptSegment] = []
    noises: list[NoiseSegment] = []
    last_no = 0
    for no, text in _content_lines(path):
        last_no = no
        tokens = text.split()
        head, rest = tokens[0], tokens[1:]
        if head == "script":
            if len(rest) != 1:
                raise FileFormatError(path, no, "script line needs exactly one name")
            name = rest[0]
        elif head == "units":
            if len(rest) != 1:
                raise FileFormatError(path, no, "units line needs exactly one value")
            units = _Units(path, no, rest[0])
        elif head in ("move", "noise"):
            if units is None:
                raise FileFormatError(path, no, "units must be declared before motion lines")
            if head == "move":
                got = _parse_kv(path, no, rest, _MOVE_KEYS, flags=("external",))
                for req in _MOVE_KEYS:
                    if req not in got:
                        raise FileFormatError(path, no, f"move line missing {req}=")
                t0, t1 = _parse_vector(path, no, got["t"], 2, "time span")
                rate = _parse_float(path, no, got["rate"], "rate")
                ch = got["channel"]
                if not _is_base_channel(ch):
                    rate = units.to_rad(rate)
                try:
                    moves.append(ScriptSegment(t0, t1, ch, rate, external=bool(got.get("external", False))))
                except InvalidInput as err:
                    raise FileFormatError(path, no, str(err)) from None
            else:
                got = _parse_kv(path, no, rest, _NOISE_KEYS, flags=("commanded",))
                for req in _NOISE_KEYS:
                    if req not in got:
                        raise FileFormatError(path, no, f"noise line missing {req}=")
                t0, t1 = _parse_vector(path, no, got["t"], 2, "time span")
                chans = tuple(got["channels"].split(","))
                kinds = {_is_base_channel(c) for c in chans}
                if len(kinds) > 1:
                    raise FileFormatError(path, no, "noise cannot mix joint and base channels (units differ)")
                amp = _parse_float(path, no, got["amplitude"], "amplitude")
                if not kinds.pop():
                    amp = units.to_rad(amp)
                try:
                    seed = int(got["seed"])
                except ValueError:
                    raise FileFormatError(path, no, f"bad integer {got['seed']!r} for seed") from None
                bw = _parse_float(path, no, got["bandwidth"], "bandwidth")
                try:
                    noises.append(
                        NoiseSegment(t0, t1, chans, amp, bw, seed, external=not got.get("commanded", False))
                    )
                except InvalidInput as err:
                    raise FileFormatError(path, no, str(err)) from None
        else:
            raise FileFormatError(path, no, f"unknown directive {head!r}")
    if name is None:
        raise FileFormatError(path, last_no, "missing script line")
    return DisturbanceScript(name, tuple(moves), tuple(noises))


def serialize_script(script: DisturbanceScript, units: str = "degrees") -> str:
    u = _Units("<serialize>", 0, units)
    buf = io.StringIO()
    buf.write(f"script {script.name}\nunits {units}\n\n")
    for seg in script.segments:
        rate = seg.rate if _is_base_channel(seg.channel) else u.from_rad(seg.rate)
        line = (
            f"move channel={seg.channel} t={_fmt(seg.t_start)},{_fmt(seg.t_end)} rate={_fmt(rate)}"
        )
        if seg.external:
            line += " external"
        buf.write(line + "\n")
    for seg in script.noise:
        amp = seg.amplitude if _is_base_channel(seg.channels[0]) else u.from_rad(seg.amplitude)
        line = (
            f"noise channels={','.join(seg.channels)} t={_fmt(seg.t_start)},{_fmt(seg.t_end)}"
            f" amplitude={_fmt(amp)} bandwidth={_fmt(seg.bandwidth)} seed={seg.seed}"
        )
        if not seg.external:
            line += " commanded"
        buf.write(line + "\n")
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


_CONFIG_KEYS = {
    "config", "units", "model", "script", "out",
    "mode", "dof", "damping", "sequential", "neck-rate-limit", "eye-rate-limit",
    "dt", "duration", "seed", "gyro-noise", "gyro-delay", "fixation-distance",
    "tau-neck", "tau-eye",
    "focal-length", "image-width", "image-height", "image-border",
    "cloud-points", "cloud-radius", "cloud-azimuth", "cloud-elevation", "cloud-seed",
}


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
    """Read a flat `key value` run configuration; see data/exp_a_kff.config."""
    pairs: dict[str, list[str]] = {}
    order: list[tuple[int, str]] = []
    units = _Units(path, 0, "degrees")
    for no, text in _content_lines(path):
        tokens = text.split()
        key, rest = tokens[0], tokens[1:]
        if key not in _CONFIG_KEYS:
            raise FileFormatError(path, no, f"unknown config key {key!r}")
        if key in pairs:
            raise FileFormatError(path, no, f"duplicate config key {key!r}")
        if not rest:
            raise FileFormatError(path, no, f"config key {key!r} needs a value")
        pairs[key] = rest
        order.append((no, key))
        if key == "units":
            units = _Units(path, no, rest[0])
    line_of = dict((k, n) for n, k in order)
    for req in ("config", "model", "script"):
        if req not in pairs:
            raise FileFormatError(path, 0, f"missing required config key {req!r}")

    def config_from(given: dict[str, list[str]]) -> RunConfig:
        def one(key: str, default=None):
            if key not in given:
                return default
            vals = given[key]
            if len(vals) != 1:
                raise FileFormatError(path, line_of[key], f"config key {key!r} takes one value")
            return vals[0]

        def fnum(key: str, default=None, angle=False):
            raw = one(key)
            if raw is None:
                return default
            v = _parse_float(path, line_of[key], raw, key)
            return units.to_rad(v) if angle else v

        def inum(key: str, default=None):
            raw = one(key)
            if raw is None:
                return default
            try:
                return int(raw)
            except ValueError:
                raise FileFormatError(path, line_of[key], f"bad integer {raw!r} for {key}") from None

        seq_raw = one("sequential", "true").lower()
        if seq_raw not in ("true", "false"):
            raise FileFormatError(path, line_of["sequential"], "sequential must be true or false")

        # Unset cloud keys keep the CloudSpec defaults.
        cloud = {
            "n": inum("cloud-points"),
            "azimuth": fnum("cloud-azimuth", angle=True),
            "elevation": fnum("cloud-elevation", angle=True),
            "seed": inum("cloud-seed"),
        }
        if "cloud-radius" in given:
            radii, no = given["cloud-radius"], line_of["cloud-radius"]
            if len(radii) != 2:
                raise FileFormatError(path, no, "cloud-radius takes two values: min max")
            cloud["r_min"] = _parse_float(path, no, radii[0], "cloud-radius")
            cloud["r_max"] = _parse_float(path, no, radii[1], "cloud-radius")

        control = StabilizerConfig(
            mode=one("mode", "kff"),
            dof_set=one("dof", "neck-eyes"),
            damping=fnum("damping", 1e-3),
            sequential=seq_raw == "true",
            neck_rate_limit=fnum("neck-rate-limit", math.radians(40.0), angle=True),
            eye_rate_limit=fnum("eye-rate-limit", math.radians(180.0), angle=True),
        )
        settings = SimSettings(
            control=control,
            plant=PlantParams(tau_neck=fnum("tau-neck", 0.08), tau_eye=fnum("tau-eye", 0.02)),
            cam=CameraModel(
                f=fnum("focal-length", 240.0),
                width=inum("image-width", 320),
                height=inum("image-height", 240),
                border=inum("image-border", 20),
            ),
            cloud=CloudSpec(**{k: v for k, v in cloud.items() if v is not None}),
            dt=fnum("dt", 0.01),
            duration=fnum("duration", None),
            fixation_distance=fnum("fixation-distance", 6.0),
            seed=inum("seed", 0),
            gyro_sigma=fnum("gyro-noise", 0.005),
            gyro_delay_ticks=inum("gyro-delay", 0),
        )
        return RunConfig(
            name=one("config"),
            model_path=one("model"),
            script_path=one("script"),
            settings=settings,
            out=one("out", None),
        )

    try:
        return config_from(pairs)
    except InvalidInput as err:
        # Cite the first line at which the config read so far is rejected
        # with this same error: the offending key, or the later one of two
        # keys checked together.  An earlier prefix may fail for another
        # reason (a default that a later key replaces), which does not count.
        given: dict[str, list[str]] = {}
        for no, key in order:
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

# Each TrajectoryLog array with its CSV columns, in file order (log v1).
_TWIST_AXES = ("vx", "vy", "vz", "wx", "wy", "wz")
LOG_COLUMNS = (
    ("t", ("t",)),
    ("q", tuple(f"q_{n}" for n in TRUNK_NAMES + EYE_DOF_NAMES)),
    ("qdot", tuple(f"qdot_{n}" for n in TRUNK_NAMES + EYE_DOF_NAMES)),
    ("base_offset", tuple(f"base_{c[-1]}" for c in BASE_CHANNELS)),
    ("cmd", tuple(f"cmd_{n}" for n in TRUNK_NAMES[3:] + EYE_DOF_NAMES)),
    ("est_twist", tuple(f"est_{a}" for a in _TWIST_AXES)),
    ("true_twist", tuple(f"true_{a}" for a in _TWIST_AXES)),
    ("fp", ("fp_x", "fp_y", "fp_z")),
    ("optfl", ("optfl",)),
    ("n_valid", ("n_valid",)),
    ("saturated", ("saturated",)),
    ("singular", ("singular",)),
)
LOG_HEADER = tuple(c for _, cols in LOG_COLUMNS for c in cols)
# Columns written as integers and read back with this type; all others are
# %.17g floats.
_LOG_INT_TYPES = {"n_valid": int, "saturated": bool, "singular": bool}


def _fmt_int(x) -> str:
    return str(int(x))


def write_log_csv(log: TrajectoryLog, path: str) -> None:
    """One row per tick; metadata and script segments in leading comments."""
    n = log.n_rows()
    columns = []
    for name, cols in LOG_COLUMNS:
        values = getattr(log, name).reshape(n, len(cols))
        fmt = _fmt_int if name in _LOG_INT_TYPES else _fmt
        columns += [[fmt(x) for x in values[:, j]] for j in range(len(cols))]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# gazestab-log: 1\n")
        for key in ("script", "mode", "dof_set", "model", "dt", "duration", "seed", "gyro_sigma", "fixation_distance"):
            val = log.meta.get(key)
            if isinstance(val, float):
                val = _fmt(val)
            fh.write(f"# {key}: {val}\n")
        for label, t0, t1 in log.segments:
            fh.write(f"# segment: {label} {_fmt(t0)} {_fmt(t1)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LOG_HEADER)
        writer.writerows(zip(*columns))


def read_log_csv(path: str) -> TrajectoryLog:
    """Inverse of write_log_csv."""
    meta: dict = {}
    meta_line: dict = {}
    segments = []
    data_lines = []
    for no, line in _numbered_lines(path):
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" not in body:
                raise FileFormatError(path, no, "malformed metadata comment")
            key, _, val = body.partition(":")
            key, val = key.strip(), val.strip()
            if key == "segment":
                parts = val.split()
                if len(parts) != 3:
                    raise FileFormatError(path, no, "segment metadata needs: label t0 t1")
                t0, t1 = (_parse_float(path, no, p, "segment time") for p in parts[1:])
                segments.append((parts[0], t0, t1))
            elif key == "gazestab-log":
                if val != "1":
                    raise FileFormatError(path, no, f"unsupported log version {val!r}")
                meta["version"] = 1
            else:
                meta[key] = val
                meta_line[key] = no
            continue
        data_lines.append((no, line))
    if "version" not in meta:
        raise FileFormatError(path, 1, "not a gazestab log (missing '# gazestab-log: 1')")
    for cast, key in ((float, "dt"), (float, "duration"), (float, "gyro_sigma"), (float, "fixation_distance"), (int, "seed")):
        if key in meta:
            try:
                meta[key] = cast(meta[key])
            except ValueError:
                raise FileFormatError(path, meta_line[key], f"bad metadata value for {key!r}") from None
    header = None
    rows = []
    reader = csv.reader(line for _, line in data_lines)
    for rec in reader:
        no = data_lines[reader.line_num - 1][0]
        if header is None:
            header = tuple(rec)
            if header != LOG_HEADER:
                raise FileFormatError(path, no, "unexpected CSV columns")
            continue
        if len(rec) != len(LOG_HEADER):
            raise FileFormatError(path, no, f"row with {len(rec)} fields, expected {len(LOG_HEADER)}")
        try:
            rows.append([float(x) for x in rec])
        except ValueError:  # name the offending column
            rows.append([_parse_float(path, no, x, col) for col, x in zip(LOG_HEADER, rec)])
    if header is None or not rows:
        raise FileFormatError(path, 0, "log contains no data rows")
    arr = np.array(rows)
    meta.pop("version", None)
    arrays = {}
    start = 0
    for name, cols in LOG_COLUMNS:
        block = arr[:, start : start + len(cols)]
        start += len(cols)
        if len(cols) == 1:
            block = block[:, 0]
        arrays[name] = block.astype(_LOG_INT_TYPES[name]) if name in _LOG_INT_TYPES else block
    return TrajectoryLog(meta=meta, segments=tuple(segments), **arrays)


def write_summary_json(summary, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(summary), fh, indent=2, sort_keys=False)
        fh.write("\n")
