import contextlib
import io
import itertools
import math
import os
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gazestab.cli as cli
import gazestab.fileio as fileio
from gazestab.cli import main
from gazestab.chain import finite_difference_jacobian
from gazestab.errors import FileFormatError, InvalidInput, JointLimitWarning
from gazestab.fileio import (
    _CONFIG_KEYS,
    _SETTING_KEYS,
    LOG_HEADER,
    SEGMENT_ORDER,
    RunConfig,
    config_overrides,
    default_data_dir,
    parse_model_file,
    parse_run_config,
    parse_script_file,
    read_log_csv,
    resolve_input_path,
    serialize_model,
    serialize_script,
    write_log_csv,
)
from gazestab.models import TRUNK_NAMES, default_head_model
from gazestab.simulator import (
    MAX_CLOUD_POINTS,
    DisturbanceScript,
    ScriptSegment,
    SimSettings,
    TrajectoryLog,
    run_experiment,
)
from gazestab.stabilizer import StabilizerConfig
from gazestab.stereo import HEAD_SEGMENTS, camera_frames, fixation_full_jacobian, fixation_point

DATA = default_data_dir()
MODEL_FILE = os.path.join(DATA, "default_head.model")


def chains_equal(a, b) -> bool:
    if a.segments != b.segments:
        return False
    if not (np.array_equal(a.base_pose.rot, b.base_pose.rot) and np.array_equal(a.base_pose.pos, b.base_pose.pos)):
        return False
    for la, lb in zip(a.links, b.links):
        for f in ("a", "d", "alpha", "theta_offset", "q_min", "q_max", "v_max"):
            if getattr(la, f) != getattr(lb, f):
                return False
    return True


# ------------------------------------------------------------- model files


def test_default_head_model_is_the_packaged_file(tmp_path, monkeypatch):
    # A different default_head.model in $GAZESTAB_MODEL_DIR and in the cwd,
    # where a config's model name would find it, leaves the shipped head as
    # the packaged file defines it; its trunk names are the log header's.
    packaged = parse_model_file(MODEL_FILE)
    other = tmp_path / "default_head.model"
    other.write_text(Path(MODEL_FILE).read_text().replace("default-head", "other-head").replace("a=0.32", "a=0.5"))
    monkeypatch.setenv("GAZESTAB_MODEL_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    assert resolve_input_path("default_head.model") == str(other)
    assert parse_model_file(str(other)).name == "other-head"
    head = default_head_model()
    assert head.name == packaged.name == "default-head" and chains_equal(head.chain, packaged.chain)
    assert head.imu_link == packaged.imu_link and np.array_equal(head.imu_offset.pos, packaged.imu_offset.pos)
    assert head.trunk_names == packaged.trunk_names == TRUNK_NAMES


def test_model_units_equivalence(tmp_path):
    model = parse_model_file(MODEL_FILE)
    for units in ("degrees", "radians"):
        p = tmp_path / f"m_{units}.model"
        p.write_text(serialize_model(model, units))
        again = parse_model_file(str(p))
        assert chains_equal(model.chain, again.chain), units
        assert np.array_equal(again.imu_offset.pos, model.imu_offset.pos)


def test_model_parse_errors_carry_path_and_line(tmp_path):
    p = tmp_path / "bad.model"
    p.write_text("model x\nunits degrees\nsegment torso\nlink j1 a=zebra\n")
    with pytest.raises(FileFormatError) as exc:
        parse_model_file(str(p))
    assert exc.value.line == 4
    assert str(p) in str(exc.value) and ":4:" in str(exc.value)


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("units degrees\nsegment torso\nlink j a=0\nimu link=j\n", "missing model line"),
        ("model x\nsegment torso\nlink j a=0\nimu link=j\n", "units must be declared"),
        ("model x\nunits degrees\nsegment arm\n", "segment must be one of"),
        ("model x\nunits degrees\nlink j a=0\n", "link line before any segment"),
        ("model x\nunits degrees\nsegment torso\nlink j b=1\n", "unknown key"),
        ("model x\nunits degrees\nsegment torso\nlink j a=0\nimu link=ghost\n", "not a declared link"),
        ("model x\nunits furlongs\n", "units must be 'degrees' or 'radians'"),
        ("model x\nunits degrees\nwibble 3\n", "unknown directive"),
    ],
)
def test_model_parse_rejections(tmp_path, body, fragment):
    p = tmp_path / "bad.model"
    p.write_text(body)
    with pytest.raises(FileFormatError, match=fragment):
        parse_model_file(str(p))


def test_model_missing_file_error():
    with pytest.raises(FileFormatError, match="file not found"):
        parse_model_file("/nonexistent/head.model")


MODEL_LINES = Path(MODEL_FILE).read_text().splitlines(keepends=True)


def model_in_block_order(order):
    """The shipped model text with its segment blocks (a `segment` line and
    its `link` lines) in the given order of block indices."""
    starts = [i for i, line in enumerate(MODEL_LINES) if line.startswith("segment ")]
    blocks = []
    for start in starts:
        end = start + 1
        while MODEL_LINES[end].startswith("link "):
            end += 1
        blocks.append("".join(MODEL_LINES[start:end]))
    return "".join(MODEL_LINES[: starts[0]]) + "\n".join(blocks[i] for i in order) + "".join(MODEL_LINES[end:])


def trunk_interleaved_model():
    """The shipped model with the six trunk links tagged torso, neck,
    torso, ... in turn, each under its own `segment` line."""
    lines, tagged = [], 0
    for line in MODEL_LINES:
        if line.startswith(("segment torso", "segment neck")):
            continue
        if line.startswith("link ") and tagged < 6:
            lines.append(f"segment {('torso', 'neck')[tagged % 2]}\n")
            tagged += 1
        lines.append(line)
    return "".join(lines)


def first_segment_out_of_order(text):
    """Line number of the first `segment` line naming an earlier segment
    than the one before it, or None."""
    segments = [(no, SEGMENT_ORDER.index(line.split()[1]))
                for no, line in enumerate(text.splitlines(), start=1) if line.startswith("segment ")]
    return next((no for (no, rank), (_, before) in zip(segments[1:], segments) if rank < before), None)


def moved_imu(line):
    """The shipped model's lines with its imu line replaced by line, on line 6."""
    lines = [text for text in MODEL_LINES if not text.startswith("imu ")]
    return lines[:5] + [f"{line}\n"] + lines[5:]


@pytest.mark.parametrize(
    "lines,at,fragment",
    [
        (MODEL_LINES[:5] + ["base position=inf,0,0\n"] + MODEL_LINES[5:], "base ", "base position must be finite"),
        (MODEL_LINES[:5] + ["base rotation-zyx=0,nan,0\n"] + MODEL_LINES[5:], "base ", "base rotation must be finite"),
        (moved_imu("imu link=neck-yaw offset=inf,0,0"), "imu ", "imu offset must be finite, got inf,0,0"),
        (moved_imu("imu link=torso-roll"), "imu ", "IMU must be attached to a neck link"),
        # the two tilts' limits are checked together: the later line is cited
        ([line.replace("vmax=345", "vmax=300") if line.startswith("link left-eye-tilt") else line
          for line in MODEL_LINES], "link right-eye-tilt", "left tilt v_max 300 differs from the right's 345"),
    ],
    ids=["base-position", "base-rotation", "imu-offset", "imu-link", "left-tilt"],
)
def test_model_fault_is_cited_at_the_line_that_set_it(tmp_path, lines, at, fragment):
    # Each was cited at the file's last content line.
    p = tmp_path / "m.model"
    p.write_text("".join(lines))
    with pytest.raises(FileFormatError, match=re.escape(fragment)) as exc:
        parse_model_file(str(p))
    assert exc.value.line == next(no for no, line in enumerate(lines, start=1) if line.startswith(at))


def test_model_fault_naming_two_links_keeps_its_message_unless_it_is_the_tilt_rule(tmp_path, monkeypatch):
    # The tilt rule names two links and is restated in the file's units; any
    # other two-link rule's message is passed through, at the later link.
    def two_link_rule(*args, **kwargs):
        raise InvalidInput("torso and neck disagree", links=(1, 4))

    monkeypatch.setattr(fileio, "HeadModel", two_link_rule)
    p = tmp_path / "m.model"
    p.write_text("".join(MODEL_LINES))
    with pytest.raises(FileFormatError, match="torso and neck disagree$") as exc:
        parse_model_file(str(p))
    assert exc.value.line == next(no for no, line in enumerate(MODEL_LINES, start=1) if line.startswith("link neck-roll"))


@pytest.mark.parametrize("order", list(itertools.permutations(range(4))))
def test_model_parses_only_in_the_shipped_segment_order(tmp_path, order):
    p = tmp_path / "m.model"
    p.write_text(model_in_block_order(order))
    no = first_segment_out_of_order(p.read_text())
    if order == (0, 1, 2, 3):
        assert no is None and chains_equal(parse_model_file(str(p)).chain, default_head_model().chain)
        return
    with pytest.raises(FileFormatError, match="segments go torso -> neck -> left-eye -> right-eye") as exc:
        parse_model_file(str(p))
    assert exc.value.line == no


def test_model_link_count_is_checked_at_the_end_of_the_file(tmp_path):
    p = tmp_path / "m.model"
    p.write_text("".join(line for line in MODEL_LINES if not line.startswith("link neck-roll")))
    with pytest.raises(FileFormatError, match="got torso:3 neck:2 left-eye:2 right-eye:2") as exc:
        parse_model_file(str(p))
    assert exc.value.line == len(MODEL_LINES) - 1


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_model_parser_fuzz_accepts_only_heads(tmp_path_factory, data):
    # Retag the shipped model's segments and delete or duplicate whole
    # lines: the parser raises FileFormatError or returns a head whose
    # fixation Jacobian agrees with the finite-difference oracle.
    lines = list(MODEL_LINES)
    segment_lines = st.sampled_from([i for i, line in enumerate(lines) if line.startswith("segment ")])
    for i, j in data.draw(st.lists(st.tuples(segment_lines, segment_lines), max_size=2)):
        lines[i], lines[j] = lines[j], lines[i]  # swap two segments' tags
    for i in data.draw(st.lists(segment_lines, max_size=2)):
        lines[i] = f"segment {data.draw(st.sampled_from(SEGMENT_ORDER))}\n"
    edits = st.tuples(st.sampled_from(["delete", "duplicate"]), st.integers(0, len(lines) - 1))
    for edit, i in data.draw(st.lists(edits, max_size=3)):
        i %= len(lines)
        if edit == "delete":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    p = tmp_path_factory.mktemp("fuzz") / "m.model"
    p.write_text("".join(lines))
    try:
        model = parse_model_file(str(p))
    except FileFormatError:
        return
    chain = model.chain
    assert chain.segments == HEAD_SEGMENTS
    q = np.random.default_rng(318).uniform(-0.4, 0.4, 9)
    q[8] = 0.3
    fd = finite_difference_jacobian(lambda qq: fixation_point(camera_frames(chain, qq)).point, q)
    assert np.abs(fixation_full_jacobian(chain, q)[:3] - fd).max() < 1e-5


# ------------------------------------------------------------ script files


def test_shipped_exp_a_script_contents():
    script = parse_script_file(os.path.join(DATA, "exp_a.script"))
    assert script.name == "exp-a"
    assert len(script.segments) == 12 and not script.noise
    first = script.segments[0]
    assert first.channel == "torso-yaw"
    assert first.rate == pytest.approx(math.radians(20.0))
    assert (first.t_start, first.t_end) == (1.0, 2.0)
    assert not first.external
    roll = [s for s in script.segments if s.channel == "torso-roll"]
    assert (roll[0].t_start, roll[1].t_end) == (6.0, 10.0)
    script.validate(default_head_model())


def test_shipped_exp_b_script_is_external_noise():
    script = parse_script_file(os.path.join(DATA, "exp_b.script"))
    assert not script.segments and len(script.noise) == 1
    n = script.noise[0]
    assert n.external and n.seed == 101
    assert n.amplitude == pytest.approx(math.radians(15.0))
    assert set(n.channels) == {"torso-yaw", "torso-pitch", "torso-roll"}


def test_script_round_trip_both_units(tmp_path):
    src = parse_script_file(os.path.join(DATA, "translate.script"))
    for units in ("degrees", "radians"):
        p = tmp_path / f"s_{units}.script"
        p.write_text(serialize_script(src, units))
        again = parse_script_file(str(p))
        assert again == src, units


def test_base_channel_rates_ignore_angle_units(tmp_path):
    p = tmp_path / "t.script"
    p.write_text("script t\nunits degrees\nmove channel=base-y t=0,1 rate=0.25\n")
    script = parse_script_file(str(p))
    assert script.segments[0].rate == 0.25  # meters per second, no conversion


def test_script_parse_rejections(tmp_path):
    cases = [
        ("script s\nunits degrees\nmove channel=torso-yaw rate=5\n", "missing t="),
        ("script s\nunits degrees\nmove channel=torso-yaw t=1 rate=5\n", "needs 2 comma-separated"),
        ("script s\nunits degrees\nnoise channels=torso-yaw,base-x t=0,1 amplitude=1 bandwidth=1 seed=1\n", "cannot mix"),
        ("script s\nmove channel=torso-yaw t=0,1 rate=5\n", "units must be declared"),
        ("script s\nunits degrees\nmove channel=torso-yaw t=0,1 rate=5 loud\n", "expected key=value"),
    ]
    for body, fragment in cases:
        p = tmp_path / "bad.script"
        p.write_text(body)
        with pytest.raises(FileFormatError, match=fragment):
            parse_script_file(str(p))


@pytest.mark.parametrize(
    "channels,fragment",
    [
        ("torso-yaw,torso-yaw", "a repeated channel"),
        ("torso-yaw,neck-yaw,torso-yaw", "a repeated channel"),
        ("", "an empty channel"),
        ("torso-yaw,,neck-yaw", "an empty channel"),
        ("torso-yaw,", "an empty channel"),
    ],
)
def test_script_noise_channel_list_rejected_at_its_line(tmp_path, channels, fragment):
    p = tmp_path / "bad.script"
    p.write_text(f"script s\nunits degrees\nnoise channels={channels} t=0.5,2 amplitude=1 bandwidth=1 seed=1\n")
    with pytest.raises(FileFormatError, match=fragment) as exc:
        parse_script_file(str(p))
    assert exc.value.line == 3 and str(exc.value).startswith(f"{p}:3: ")


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("move channel= t=0,1 rate=1", "channel= has an empty channel name"),
        ("move channel=torso-yaw t=0,1 rate=1 external external", "duplicate key 'external'"),
        ("noise channels=torso-yaw t=0,1 amplitude=1 bandwidth=1 seed=1 commanded commanded", "duplicate key 'commanded'"),
        ("move channel=torso-yaw,neck-yaw t=0.1,0.3 rate=5", "channel=torso-yaw,neck-yaw has more than one channel"),
        ("move channel=torso-yaw t=0,inf rate=5", "time span must be finite, got 0,inf"),
    ],
    ids=["empty-move-channel", "repeated-external", "repeated-commanded", "move-channel-list", "infinite-time-span"],
)
def test_cli_script_motion_line_fault_exits_2_at_its_line(tmp_path, capsys, line, fragment):
    # All were accepted once: the empty channel and the channel list failed
    # later in validate with no line, the repeated flag word ran.
    script = tmp_path / "bad.script"
    script.write_text(f"script bad\nunits degrees\n{line}\n")
    assert main(["run", "--config", write_quick_config(tmp_path, "off", 0.5, script="bad.script")]) == 2
    assert_clean_error(capsys, f"gazestab: error: {script}:3: ", fragment)


SCRIPT_TEXTS = [Path(DATA, f"{name}.script").read_text() for name in ("exp_a", "exp_b", "translate")]
_SEPARATOR = re.compile(r"(\s+)")
# Replacement tokens: the shipped scripts' own words and hostile values.
_TOKENS = sorted({w for text in SCRIPT_TEXTS for w in text.split()}) + [
    "", "=", ",", "nan", "inf", "-inf", "-1", "0", "1e300", "1.7e308", "-1.7e308", "1e-300", "seed=-3",
    "seed=1e3", "t=2,1", "t=0,1e300", "t=nan,1", "rate=inf", "channel=base-x", "channels=base-x,base-x",
    "channels=torso-yaw,,neck-yaw", "channels=eye-tilt,base-z", "amplitude=1.7e308", "bandwidth=1e300",
    "bandwidth=0", "units", "radians", "move", "noise", "external", "commanded", "torso-yawx",
]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_script_parser_fuzz_accepts_only_realizable_scripts(tmp_path_factory, data):
    # Replace, delete or duplicate whitespace-separated tokens of a shipped
    # script: the parser raises FileFormatError or returns a script that the
    # model's validate rejects with InvalidInput or that realizes to finite
    # tables.
    pieces = _SEPARATOR.split(data.draw(st.sampled_from(SCRIPT_TEXTS)))
    words = st.sampled_from(range(0, len(pieces), 2))
    edits = st.tuples(st.sampled_from(["replace", "delete", "duplicate"]), words, st.sampled_from(_TOKENS))
    for edit, i, token in data.draw(st.lists(edits, min_size=1, max_size=4)):
        pieces[i] = {"replace": token, "delete": "", "duplicate": f"{pieces[i]} {pieces[i]}"}[edit]
    p = tmp_path_factory.mktemp("fuzz") / "s.script"
    p.write_text("".join(pieces))
    try:
        script = parse_script_file(str(p))
    except FileFormatError:
        return
    model = default_head_model()
    try:
        script.validate(model)
    except InvalidInput:
        return
    n_ticks = int(min(script.duration() + 0.5, 15.0) / 0.01)
    track = script.realize(model, 0.01, n_ticks)
    for name in ("qdot", "base_vel", "commanded_qdot", "commanded_base"):
        assert np.isfinite(getattr(track, name)).all(), name


# -------------------------------------------------------------- run configs


def test_shipped_config_parses_with_expected_settings():
    cfg = parse_run_config(os.path.join(DATA, "exp_a_kff.config"))
    assert cfg.name == "exp-a-kff"
    assert cfg.model_path == "default_head.model"
    assert cfg.script_path == "exp_a.script"
    s = cfg.settings
    assert s.control.mode == "kff" and s.control.dof_set == "neck-eyes"
    assert s.duration == 13.0 and s.gyro_sigma == 0.0 and s.dt == 0.01
    assert s.cam.f == 240.0 and s.cloud.n == 900
    assert cfg.out == "exp_a_kff.csv"


def test_translate_config_uses_long_lens():
    cfg = parse_run_config(os.path.join(DATA, "translate_kff.config"))
    assert cfg.settings.cam.f == 480.0
    assert cfg.settings.cloud.n == 1600


def test_all_shipped_configs_parse():
    names = [f for f in os.listdir(DATA) if f.endswith(".config")]
    assert len(names) == 10
    for name in names:
        cfg = parse_run_config(os.path.join(DATA, name))
        assert isinstance(cfg, RunConfig)
        assert os.path.exists(resolve_input_path(cfg.model_path, DATA))
        assert os.path.exists(resolve_input_path(cfg.script_path, DATA))


def test_config_rejects_unknown_and_duplicate_keys(tmp_path):
    p = tmp_path / "c.config"
    p.write_text("config c\nmodel m\nscript s\nwarp-drive 9\n")
    with pytest.raises(FileFormatError, match="unknown config key"):
        parse_run_config(str(p))
    p.write_text("config c\nmodel m\nscript s\nmode kff\nmode ifb\n")
    with pytest.raises(FileFormatError, match=r"c.config:5: second mode line \(the first is line 4\)"):
        parse_run_config(str(p))


@pytest.mark.parametrize("missing", ["model", "script"])
def test_config_missing_required_key_cites_the_last_content_line(tmp_path, missing):
    # It was cited with no line; a missing config line is cited at the last content line too.
    p = tmp_path / "c.config"
    p.write_text("".join(f"{key} x\n" for key in ("config", "model", "script") if key != missing) + "mode kff\n# end\n\n")
    with pytest.raises(FileFormatError, match=re.escape(f"c.config:3: missing required config key {missing!r}")):
        parse_run_config(str(p))


def test_config_angle_keys_respect_units(tmp_path):
    p = tmp_path / "c.config"
    p.write_text("config c\nunits degrees\nmodel m\nscript s\nneck-rate-limit 30\ncloud-azimuth 45\n")
    cfg = parse_run_config(str(p))
    assert cfg.settings.control.neck_rate_limit == pytest.approx(math.radians(30.0))
    assert cfg.settings.cloud.azimuth == pytest.approx(math.radians(45.0))
    p.write_text("config c\nmodel m\nscript s\nneck-rate-limit 30\nunits radians\n")  # wherever it sits
    assert parse_run_config(str(p)).settings.control.neck_rate_limit == 30.0


def test_config_overrides_replace_fields():
    cfg = parse_run_config(os.path.join(DATA, "exp_a_kff.config"))
    out = config_overrides(cfg, mode="ifb", dof="eyes", seed=9, out="x.csv")
    assert out.settings.control.mode == "ifb"
    assert out.settings.control.dof_set == "eyes"
    assert out.settings.seed == 9 and out.out == "x.csv"
    # untouched fields survive
    assert out.settings.duration == cfg.settings.duration


def test_resolve_input_path_env_search(tmp_path, monkeypatch):
    target = tmp_path / "alt.model"
    target.write_text("x")
    monkeypatch.setenv("GAZESTAB_MODEL_DIR", str(tmp_path))
    assert resolve_input_path("alt.model") == str(target)
    monkeypatch.delenv("GAZESTAB_MODEL_DIR")
    assert resolve_input_path("default_head.model") == MODEL_FILE


# ----------------------------------------------------------------- CSV logs


def tiny_log():
    model = default_head_model()
    script = DisturbanceScript("tiny", segments=(ScriptSegment(0.05, 0.25, "torso-yaw", 0.3),))
    settings = SimSettings(control=StabilizerConfig(mode="kff"), duration=0.4, gyro_sigma=0.0)
    return run_experiment(model, script, settings)


def test_csv_round_trip_exact(tmp_path):
    log = tiny_log()
    p = tmp_path / "log.csv"
    write_log_csv(log, str(p))
    back = read_log_csv(str(p))
    for f in ("t", "q", "qdot", "base_offset", "cmd", "est_twist", "true_twist", "fp", "optfl"):
        assert np.array_equal(getattr(back, f), getattr(log, f)), f
    assert np.array_equal(back.n_valid, log.n_valid)
    assert np.array_equal(back.saturated, log.saturated)
    assert back.segments == log.segments
    assert back.meta["script"] == "tiny" and back.meta["dt"] == 0.01
    assert back.meta["seed"] == 0


LOG_ARRAYS = ("t", "q", "qdot", "base_offset", "cmd", "est_twist", "true_twist", "fp", "optfl", "n_valid", "saturated", "singular")


def assert_logs_equal(a, b):
    for f in LOG_ARRAYS:
        x, y = getattr(a, f), getattr(b, f)
        assert x.dtype == y.dtype and np.array_equal(x, y), f
    assert a.meta == b.meta and a.segments == b.segments


def synthetic_log(n, seed=0):
    """An n-row log of seeded values; no simulation behind it."""
    rng = np.random.default_rng(seed)
    meta = {"script": "s", "mode": "kff", "dof_set": "neck-eyes", "model": "m", "dt": 0.01, "duration": 0.01 * (n - 1),
            "seed": seed, "gyro_sigma": 0.0, "fixation_distance": 1.0}
    cols = {name: rng.standard_normal((n, w)) for name, w in (("q", 9), ("qdot", 9), ("base_offset", 3), ("cmd", 6),
                                                             ("est_twist", 6), ("true_twist", 6), ("fp", 3))}
    return TrajectoryLog(meta=meta, t=np.arange(n) * 0.01, optfl=rng.exponential(size=n),
                         n_valid=rng.integers(0, 1600, n), saturated=rng.random(n) < 0.3,
                         singular=rng.random(n) < 0.1, segments=(("torso-yaw", 0.0, 1.0),), **cols)


def test_log_io_memory_is_bounded_per_row(tmp_path):
    # Both directions stream: their peaks stay near the 376 bytes of arrays
    # per row, not the kilobytes a table of per-cell strings or Python floats
    # would take.
    n = 10_000
    log, p = synthetic_log(n), str(tmp_path / "big.csv")
    tracemalloc.start()
    try:
        write_log_csv(log, p)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        back = read_log_csv(p)
        read_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert write_peak < 1024 * n and read_peak < 1024 * n, (write_peak / n, read_peak / n)
    assert_logs_equal(back, log)
    with open(p, encoding="utf-8") as fh:
        row = next(line for line in fh if line[:1].isdigit())
    # the integer columns print as integers, through the same %.17g as the rest
    assert row.endswith(f",{log.n_valid[0]},{int(log.saturated[0])},{int(log.singular[0])}\n")


@pytest.mark.parametrize("ending", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_csv_reader_takes_any_line_ending(tmp_path, ending):
    log = tiny_log()
    p = tmp_path / "log.csv"
    write_log_csv(log, str(p))
    lines = p.read_bytes().split(b"\n")[:-1]
    p.write_bytes(ending.join(lines) + ending)
    assert_logs_equal(read_log_csv(str(p)), log)
    no = next(i for i, line in enumerate(lines, start=1) if line[:1].isdigit()) + 5
    lines[no - 1] = b"zebra" + lines[no - 1][lines[no - 1].index(b","):]
    p.write_bytes(ending.join(lines) + ending)
    with pytest.raises(FileFormatError, match="bad number 'zebra' for t") as exc:
        read_log_csv(str(p))
    assert exc.value.line == no


def test_csv_reader_rejects_foreign_files(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(FileFormatError, match="missing '# gazestab-log"):
        read_log_csv(str(p))
    with pytest.raises(FileFormatError, match="file not found"):
        read_log_csv(str(tmp_path / "ghost.csv"))


# ----------------------------------------------------------------- CLI


def write_quick_config(tmp_path, mode, duration=2.5, **lines):
    """A short exp_a config; keyword arguments replace or add `key value`
    lines (underscores in the name become dashes)."""
    p = tmp_path / f"quick_{mode}.config"
    keys = {
        "config": f"quick-{mode}",
        "model": "default_head.model",
        "script": "exp_a.script",
        "mode": mode,
        "duration": duration,
        "gyro-noise": 0,
        "out": f"{tmp_path}/quick_{mode}.csv",
    }
    keys.update({k.replace("_", "-"): v for k, v in lines.items()})
    p.write_text("".join(f"{k} {v}\n" for k, v in keys.items()))
    return str(p)


def test_cli_run_writes_expected_row_count(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_quick_config(tmp_path, "off")
    assert main(["run", "--config", cfg]) == 0
    log = read_log_csv(str(tmp_path / "quick_off.csv"))
    assert log.n_rows() == int(round(2.5 / 0.01)) + 1
    assert (tmp_path / "quick_off.summary.json").exists()


def test_cli_missing_script_exits_2_naming_path(tmp_path, capsys):
    p = tmp_path / "c.config"
    p.write_text("config c\nmodel default_head.model\nscript ghost.script\n")
    assert main(["run", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "ghost.script" in err


@pytest.mark.parametrize(
    "moves,fragment",
    [
        ("move channel=torso-yawx t=0.2,1 rate=5\n", "unknown script channel 'torso-yawx'"),
        ("move channel=torso-yaw t=0.2,1 rate=5\nmove channel=torso-yaw t=0.5,1.5 rate=5\n", "overlapping segments"),
    ],
)
def test_cli_script_channel_error_names_the_script(tmp_path, capsys, moves, fragment):
    # The model decides which channels exist, so these are found after the
    # script is read; the error line still starts with the script's path.
    script = tmp_path / "bad.script"
    script.write_text(f"script bad\nunits degrees\n{moves}")
    assert main(["run", "--config", write_quick_config(tmp_path, "off", 1, script="bad.script")]) == 2
    assert_clean_error(capsys, f"gazestab: error: {script}: ", fragment)


def test_cli_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "none.config")]) == 2
    assert "not found" in capsys.readouterr().err


def test_cli_rerun_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_quick_config(tmp_path, "kff", duration=1.0)
    assert main(["run", "--config", cfg]) == 0
    first = (tmp_path / "quick_kff.csv").read_bytes()
    assert main(["run", "--config", cfg]) == 0
    assert (tmp_path / "quick_kff.csv").read_bytes() == first


def test_cli_flag_overrides_reach_log(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_quick_config(tmp_path, "off", duration=0.3)
    out = str(tmp_path / "ovr.csv")
    assert main(["run", "--config", cfg, "--mode", "ifb", "--dof", "eyes", "--seed", "5", "--out", out]) == 0
    log = read_log_csv(out)
    assert log.meta["mode"] == "ifb" and log.meta["dof_set"] == "eyes"
    assert log.meta["seed"] == 5


def test_cli_compare_orders_and_self_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for mode in ("off", "kff", "ifb"):
        assert main(["run", "--config", write_quick_config(tmp_path, mode)]) == 0
    base = str(tmp_path / "quick_off.csv")
    assert main(["compare", "--baseline", base, str(tmp_path / "quick_ifb.csv"), str(tmp_path / "quick_kff.csv"), base]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if ".csv [" in l and "baseline" not in l]
    order = [l.split()[0] for l in lines]
    assert order == ["quick_kff.csv", "quick_ifb.csv", "quick_off.csv"]
    off_row = [l for l in lines if l.startswith("quick_off")][0]
    assert "0.0%" in off_row.replace(" ", "")


def test_cli_compare_mismatch_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    a = write_quick_config(tmp_path, "off", duration=0.3)
    b = write_quick_config(tmp_path, "kff", duration=0.5)
    assert main(["run", "--config", a]) == 0
    assert main(["run", "--config", b]) == 0
    code = main(["compare", "--baseline", str(tmp_path / "quick_off.csv"), str(tmp_path / "quick_kff.csv")])
    assert code == 1
    assert "differ" in capsys.readouterr().err


def test_cli_compare_empty_logs_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--baseline", "x.csv"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "line",
    [
        "cloud-points abc",
        "cloud-seed 1.5",
        "cloud-seed -1",
        "fixation-distance nan",
        "duration inf",
        "duration nan",
        "dt -1",
        "gyro-delay -2",
        "damping -1",
        "mode sideways",
        "tau-eye inf",
        "focal-length 0",
        "image-border 200",
        "cloud-radius 7 6",
        "cloud-points 10",
        f"cloud-points {MAX_CLOUD_POINTS + 1}",
        "cloud-points 1000000000",  # rejected before any allocation
        "cloud-radius 5 inf",
        "cloud-azimuth nan",
        "cloud-azimuth -5",  # a negative half-width once reached numpy as a traceback
        "cloud-azimuth 181",
        "cloud-elevation -1",
        "cloud-elevation 720",
        "gyro-noise nan",
        "gyro-noise inf",
        "image-border -5",
        "units radians degrees",  # the second word was ignored
    ],
)
def test_cli_bad_config_value_exits_2_with_line(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)  # a value that slips through writes its log (c.csv) here
    p = tmp_path / "c.config"
    p.write_text(f"config c\nmodel default_head.model\nscript exp_a.script\n{line}\nseed 3\n")
    assert main(["run", "--config", str(p)]) == 2
    assert_clean_error(capsys, f"{p}:4: ")


@pytest.mark.parametrize(
    "name,find,old,new",
    [
        ("default_head.model", "link neck-roll", "min=-52", "min=nan"),
        ("exp_b.script", "noise ", "amplitude=15", "amplitude=inf"),
        ("exp_b.script", "noise ", "seed=101", "seed=-1"),
    ],
)
def test_cli_hostile_input_file_value_exits_2_at_its_line(tmp_path, capsys, name, find, old, new):
    lines = Path(DATA, name).read_text().splitlines(keepends=True)
    no = next(i for i, line in enumerate(lines, start=1) if line.startswith(find))
    lines[no - 1] = lines[no - 1].replace(old, new)
    bad = tmp_path / f"bad_{name}"
    bad.write_text("".join(lines))
    kind = name.rsplit(".", 1)[1]
    assert main(["run", "--config", write_quick_config(tmp_path, "kff", 0.3, **{kind: bad.name})]) == 2
    assert_clean_error(capsys, f"{bad}:{no}: ")


@pytest.mark.parametrize(
    "name,after,added",
    [
        ("default_head.model", "units ", ["model other-head"]),
        # the neck-yaw line after it would read alpha=-90 as -90 rad
        ("default_head.model", "link neck-roll", ["units radians"]),
        ("default_head.model", "units ", ["base position=0,0,0", "base rotation-zyx=0,0,90"]),
        ("default_head.model", "imu ", ["imu link=neck-pitch offset=0,0,0"]),
        ("exp_a.script", "units ", ["script other"]),
        ("exp_a.script", "move ", ["units radians"]),
    ],
    ids=["model", "units-mid-model", "base", "imu", "script", "units-mid-script"],
)
def test_cli_second_once_per_file_line_exits_2_at_its_line(tmp_path, capsys, name, after, added):
    lines = Path(DATA, name).read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines, start=1) if line.startswith(after))
    lines[at:at] = [f"{line}\n" for line in added]
    directive = added[-1].split()[0]
    first = next(i for i, line in enumerate(lines, start=1) if line.startswith(f"{directive} "))
    bad = tmp_path / f"bad_{name}"
    bad.write_text("".join(lines))
    kind = name.rsplit(".", 1)[1]
    assert main(["run", "--config", write_quick_config(tmp_path, "kff", 0.3, **{kind: bad.name})]) == 2
    assert_clean_error(capsys, f"{bad}:{at + len(added)}: ", f"second {directive} line (the first is line {first})")


@pytest.mark.parametrize("name", ["eyes-swapped", "trunk-interleaved"])
def test_cli_model_of_another_shape_exits_2_at_its_segment_line(tmp_path, capsys, name):
    text = model_in_block_order((0, 1, 3, 2)) if name == "eyes-swapped" else trunk_interleaved_model()
    bad = tmp_path / f"{name}.model"
    bad.write_text(text)
    assert main(["run", "--config", write_quick_config(tmp_path, "kff", 0.3, model=bad.name)]) == 2
    assert_clean_error(capsys, f"{bad}:{first_segment_out_of_order(text)}: ", "segments go")


def test_cli_negative_config_seed_exits_2_at_its_line(tmp_path, capsys):
    config = write_quick_config(tmp_path, "ifb", 0.3, seed=-5)
    no = Path(config).read_text().splitlines().index("seed -5") + 1
    assert main(["run", "--config", config]) == 2
    assert_clean_error(capsys, f"{config}:{no}: ", "non-negative integer")


def test_cli_negative_seed_flag_exits_2(tmp_path, capsys):
    config = write_quick_config(tmp_path, "ifb", 0.3)
    assert main(["run", "--config", config, "--seed", "-3"]) == 2
    assert_clean_error(capsys, "--seed: ", "non-negative integer")
    assert not (tmp_path / "quick_ifb.csv").exists()


def test_config_pair_check_cites_either_key(tmp_path):
    # Neither value is bad alone; together the border eats the image.
    p = tmp_path / "c.config"
    p.write_text("config c\nmodel m\nscript s\nimage-width 50\nimage-border 30\nseed 3\n")
    with pytest.raises(FileFormatError, match="twice the border") as exc:
        parse_run_config(str(p))
    assert exc.value.line in (4, 5)


def test_config_error_cites_the_line_of_its_own_check(tmp_path):
    # The config read up to line 4 fails too (width 40 against the default
    # border of 20), but the whole config's error is the dt on line 6.
    p = tmp_path / "c.config"
    p.write_text("config c\nmodel m\nscript s\nimage-width 40\nimage-border 10\ndt -1\n")
    with pytest.raises(FileFormatError, match="dt must be positive") as exc:
        parse_run_config(str(p))
    assert exc.value.line == 6


CONFIG_TEXTS = [Path(DATA, name).read_text() for name in sorted(os.listdir(DATA)) if name.endswith(".config")]
# Replacement tokens: the shipped configs' own words (keys included, so a
# replaced key can repeat another) and hostile values.
_CONFIG_TOKENS = sorted({w for text in CONFIG_TEXTS for w in text.split()}) + [
    "", "nan", "inf", "-inf", "-1", "0", "1.5", "1e300", "-1e300", "1e-300", "true", "false", "True", "radians",
    "degrees", "units", "seed", "dt", "cloud-radius", "cloud-points", "image-border", "sequential", "damping",
    "gyro-delay", "cloud-azimuth", "cloud-elevation", "\nunits radians\n", "\nmode off\n",
]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_config_parser_fuzz_accepts_only_valid_settings(tmp_path_factory, data):
    # Replace, delete or duplicate whitespace-separated tokens of a shipped
    # config: the parser raises FileFormatError or returns settings that
    # every part's constructor accepts again unchanged.
    pieces = _SEPARATOR.split(data.draw(st.sampled_from(CONFIG_TEXTS)))
    words = st.sampled_from(range(0, len(pieces), 2))
    edits = st.tuples(st.sampled_from(["replace", "delete", "duplicate"]), words, st.sampled_from(_CONFIG_TOKENS))
    for edit, i, token in data.draw(st.lists(edits, min_size=1, max_size=4)):
        pieces[i] = {"replace": token, "delete": "", "duplicate": f"{pieces[i]} {pieces[i]}"}[edit]
    p = tmp_path_factory.mktemp("fuzz") / "c.config"
    p.write_text("".join(pieces))
    try:
        cfg = parse_run_config(str(p))
    except FileFormatError:
        return
    s = cfg.settings
    parts = dict(control=replace(s.control), plant=replace(s.plant), cam=replace(s.cam), cloud=replace(s.cloud))
    assert isinstance(s, SimSettings) and replace(s, **parts) == s


# Line soups: a name line or none, then config keys, model and motion lines
# and stray words, each at most once and followed by a value, good or hostile.
_SOUP_START = st.sampled_from(
    ["", "config c\nmodel m\nscript s\n", "script s\nunits degrees\n", "model m\nunits degrees\nsegment torso\n"]
)
_SOUP_HEADS = sorted(_CONFIG_KEYS) + [
    "move channel=torso-yaw t=0,1 rate=20", "noise channels=base-x,base-y t=0,1 amplitude=0.1 bandwidth=2 seed=3",
    "move channel=base-z", "link j a=0", "imu link=j", "base position=1,0,0", "segment", "#", "=",
]
_SOUP_VALUES = [
    "kff", "neck-eyes", "radians", "true", "0", "1", "2", "-1", "0.5", "1e300", "nan", "inf", "0.3 1e308", "1 2",
    "t=1,inf", "external", "x=1=2", "#",
]
_SOUPS = st.builds(
    lambda start, lines: (start + "".join(f"{head} {value}\n" for head, value in lines)).encode(),
    _SOUP_START,
    st.lists(st.tuples(st.sampled_from(_SOUP_HEADS), st.sampled_from(_SOUP_VALUES)), max_size=8,
             unique_by=lambda line: line[0]),
)


@settings(max_examples=120, deadline=None)
@given(
    raw=st.one_of(st.binary(max_size=200), _SOUPS),
    parse=st.sampled_from([parse_run_config, parse_script_file, parse_model_file]),
)
def test_text_readers_fail_only_at_a_line(tmp_path_factory, raw, parse):
    # Arbitrary bytes or a soup of key lines: the config, script or model
    # reader returns, or raises FileFormatError at path:line:, with no line
    # only for a missing key.
    p = tmp_path_factory.mktemp("soup") / "in.txt"
    p.write_bytes(raw)
    try:
        parse(str(p))
    except FileFormatError as err:
        assert err.path == str(p) and err.line <= len(raw.splitlines())
        assert str(err).startswith(f"{p}:{err.line}: ") if err.line else str(err).startswith(f"{p}: missing ")


def rewrite_log_line(tmp_path, find, new_text):
    """Write a tiny log, replace its first line for which find(line) holds
    by new_text(line), and return (path, 1-based number of that line)."""
    p = tmp_path / "log.csv"
    write_log_csv(tiny_log(), str(p))
    lines = p.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if find(line))
    lines[i] = new_text(lines[i])
    p.write_text("".join(lines))
    return str(p), i + 1


def first_data_row(line):
    return line[:1].isdigit()


def with_cell(column, value):
    """new_text for rewrite_log_line: the data row with column's cell replaced by value."""
    i = LOG_HEADER.index(column)

    def new_text(line):
        cells = line.rstrip("\n").split(",")
        cells[i] = value
        return ",".join(cells) + "\n"

    return new_text


@pytest.mark.parametrize(
    "find,new_text,fragment",
    [
        (lambda line: line.startswith("# segment:"), lambda line: "# segment: base-y zero 2\n", "bad number 'zero'"),
        (first_data_row, lambda line: "zebra" + line[line.index(","):], "bad number 'zebra' for t"),
        (first_data_row, lambda line: line.rstrip("\n") + ",0\n", "row with 48 fields"),
        (first_data_row, lambda line: "1" * 200_000 + line[line.index(","):], "field larger than field limit"),
        # typed cells hold only what the writer writes: a count int64 holds, a 0/1 flag
        (first_data_row, with_cell("n_valid", "nan"), "bad n_valid value nan: must be a whole number >= 0"),
        (first_data_row, with_cell("n_valid", "1e300"), "bad n_valid value 1e[+]300: must be a whole number"),
        (first_data_row, with_cell("n_valid", "1.5"), "bad n_valid value 1.5: must be a whole number"),
        (first_data_row, with_cell("n_valid", "-7"), "bad n_valid value -7.0: must be a whole number"),
        (first_data_row, with_cell("saturated", "2"), "bad saturated value 2.0: must be 0 or 1"),
        (first_data_row, with_cell("saturated", "0.5"), "bad saturated value 0.5: must be 0 or 1"),
        (first_data_row, with_cell("singular", "nan"), "bad singular value nan: must be 0 or 1"),
        (first_data_row, with_cell("t", "nan"), "bad t value nan: must be finite"),
        # each metadata key comes once: a second dt, inserted before the duration line
        (lambda line: line.startswith("# duration:"), lambda line: "# dt: 0.5\n" + line, "second 'dt' metadata line"),
    ],
    ids=[
        "segment-time", "non-numeric-field", "extra-field", "huge-field", "n_valid-nan", "n_valid-huge",
        "n_valid-fraction", "n_valid-negative", "saturated-2", "saturated-half", "singular-nan", "t-nan",
        "repeated-metadata",
    ],
)
def test_csv_reader_reports_bad_line(tmp_path, capsys, find, new_text, fragment):
    path, no = rewrite_log_line(tmp_path, find, new_text)
    with pytest.raises(FileFormatError, match=fragment) as exc:
        read_log_csv(path)
    assert exc.value.line == no
    assert main(["compare", "--baseline", path, path]) == 2
    assert f"{path}:{no}: " in capsys.readouterr().err


def test_csv_reader_cites_bad_metadata_line(tmp_path, capsys):
    path, no = rewrite_log_line(tmp_path, lambda line: line.startswith("# dt:"), lambda line: "# dt: fast\n")
    assert no == 6
    with pytest.raises(FileFormatError, match="bad metadata value for 'dt'") as exc:
        read_log_csv(path)
    assert f"{path}:6: " in str(exc.value)
    assert main(["compare", "--baseline", path, path]) == 2
    assert f"{path}:6: " in capsys.readouterr().err


# Hostile replacements for one cell of a written log.
LOG_CELL_POOL = ["nan", "inf", "-1", "1.5", "2", "1e300", "", "x"]


@pytest.fixture(scope="module")
def short_log(tmp_path_factory):
    """(a path to overwrite, the lines of a written 4-row log)."""
    p = tmp_path_factory.mktemp("fuzz") / "log.csv"
    write_log_csv(synthetic_log(4), str(p))
    return p, p.read_bytes().splitlines(keepends=True)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_log_reader_fuzz_accepts_only_writable_logs(short_log, data):
    # A short written log with cells replaced from the pool and lines
    # dropped, duplicated or truncated, with or without arbitrary bytes
    # spliced in (or arbitrary bytes alone): the reader raises
    # FileFormatError or returns typed columns holding values the writer
    # writes, equal to the file's cells.
    p, lines = short_log[0], list(short_log[1])
    rows = st.sampled_from([i for i, line in enumerate(lines) if line[:1].isdigit()])
    cells = st.tuples(rows, st.integers(0, len(LOG_HEADER) - 1), st.sampled_from(LOG_CELL_POOL))
    for i, col, value in data.draw(st.lists(cells, max_size=2)):
        fields = lines[i].rstrip(b"\n").split(b",")
        fields[col] = value.encode()
        lines[i] = b",".join(fields) + b"\n"
    edit_kinds = st.sampled_from(["drop", "duplicate", "truncate"])
    edits = st.tuples(edit_kinds, st.integers(0, len(lines) - 1), st.integers(0, 999))
    for edit, i, cut in data.draw(st.lists(edits, max_size=2)):
        i %= len(lines)
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = lines[i][: cut % len(lines[i])] + b"\n"
    text = b"".join(lines)
    blob = data.draw(st.sampled_from(["none", "splice", "alone"]))
    if blob != "none":
        extra = data.draw(st.binary(max_size=64))
        at = data.draw(st.integers(0, len(text)))
        text = extra if blob == "alone" else text[:at] + extra + text[at:]
    p.write_bytes(text)
    try:
        log = read_log_csv(str(p))
    except FileFormatError:
        return
    assert log.n_valid.dtype == np.int64 and log.saturated.dtype == log.singular.dtype == np.bool_
    assert np.all(log.n_valid >= 0)
    if blob == "none":  # no quote in the file: one CSV row per data line
        table = [line.split(b",") for line in text.splitlines() if not line.startswith(b"#")][1:]
        typed = np.array([[float(cell) for cell in row[-3:]] for row in table])
        assert np.array_equal(typed, np.column_stack([log.n_valid, log.saturated, log.singular]))


def assert_clean_error(capsys, *fragments):
    """stderr is one `gazestab: error:` line containing every fragment."""
    err = capsys.readouterr().err
    assert err.startswith("gazestab: error: ") and err.count("\n") == 1
    for fragment in fragments:
        assert fragment in err


def test_cli_directory_as_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path)]) == 2
    assert_clean_error(capsys, f"{tmp_path}: ")


def test_cli_directory_as_baseline_exits_2(tmp_path, capsys):
    assert main(["compare", "--baseline", str(tmp_path), str(tmp_path)]) == 2
    assert_clean_error(capsys, f"{tmp_path}: ")


def test_cli_directory_as_model_exits_2(tmp_path, capsys):
    (tmp_path / "head.model").mkdir()
    assert main(["run", "--config", write_quick_config(tmp_path, "off", 0.3, model="head.model")]) == 2
    assert_clean_error(capsys, f"{tmp_path / 'head.model'}: ")


@pytest.mark.parametrize("target", ["config", "model"])
def test_cli_non_utf8_input_exits_2_with_line(tmp_path, capsys, target):
    model = tmp_path / "head.model"
    model.write_bytes(Path(MODEL_FILE).read_bytes())
    cfg = write_quick_config(tmp_path, "off", 0.3, model="head.model")
    path = cfg if target == "config" else str(model)
    Path(path).write_bytes(Path(path).read_bytes() + b"# caf\xe9\n")
    n_lines = Path(path).read_bytes().count(b"\n")
    assert main(["run", "--config", cfg]) == 2
    assert_clean_error(capsys, f"{path}:{n_lines}: not UTF-8 text")


def test_cli_out_in_missing_directory_exits_1(tmp_path, capsys):
    out = str(tmp_path / "nowhere" / "run.csv")
    assert main(["run", "--config", write_quick_config(tmp_path, "off", 0.3), "--out", out]) == 1
    assert_clean_error(capsys, f"cannot write {out}: ")


@pytest.mark.parametrize(
    "parent,reason", [("nowhere", "No such file or directory"), ("a-file", "Not a directory")]
)
def test_cli_out_directory_checked_before_the_run(tmp_path, capsys, monkeypatch, parent, reason):
    def run_experiment(*args, **kw):
        raise AssertionError("the simulation ran")

    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    (tmp_path / "a-file").write_text("")
    out = str(tmp_path / parent / "run.csv")
    assert main(["run", "--config", write_quick_config(tmp_path, "kff"), "--out", out]) == 1
    assert_clean_error(capsys, f"cannot write {out}: {reason}")


def test_cli_joint_limit_clamps_print_one_warning(tmp_path, capsys):
    # kff chasing a 10 m/s lift drives the eye tilts into their stops on
    # many ticks before the cloud leaves the view.
    script = tmp_path / "lift.script"
    script.write_text("script lift\nunits degrees\nmove channel=base-z t=0.2,3 rate=10\n")
    cfg = write_quick_config(tmp_path, "kff", 3, script="lift.script")
    assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    warned = [line for line in err.splitlines() if "warning" in line.lower()]
    assert len(warned) == 1 and "Traceback" not in err
    assert re.fullmatch(
        r"gazestab: warning: joint position limits clamped \d+ ticks, first at t=[\d.]+s \(mechanical joints \[[\d, ]+\]\)",
        warned[0],
    )
    assert err.splitlines()[-1].startswith("gazestab: error: ")


def test_joint_limit_summary_folds_warnings_as_they_arrive(capsys):
    # A run clamping every tick keeps a count, not one record per tick;
    # other warnings pass through.
    ticks = 5_000
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning, match="unrelated"), cli._joint_limit_summary():
            for k in range(ticks):
                warnings.warn(JointLimitWarning(0.01 * (k + 1), [k % 3, 7]))
            warnings.warn("unrelated")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * ticks, peak / ticks
    assert capsys.readouterr().err == (
        f"gazestab: warning: joint position limits clamped {ticks} ticks, first at t=0.010s (mechanical joints [0, 1, 2, 7])\n"
    )


@pytest.mark.parametrize(
    "duration,lines,line,fragment",
    [
        pytest.param(0.3, {"dt": "1e-300"}, 8, "over the cap of 200000", id="1e-300-over the cap of 200000"),
        pytest.param(0.3, {"dt": "1"}, 8, "duration shorter than one tick", id="1-duration shorter than one tick"),
        pytest.param(1e9, {}, 5, "1e+11 ticks, over the cap of 200000", id="duration-over the cap"),
        pytest.param(0.001, {}, 5, "duration shorter than one tick", id="duration-shorter than one tick"),
    ],
)
def test_cli_tick_count_out_of_range_exits_2(tmp_path, capsys, duration, lines, line, fragment):
    # the later of the duration line (5) and the dt line (8) is cited
    cfg = write_quick_config(tmp_path, "off", duration, **lines)
    assert main(["run", "--config", cfg]) == 2
    assert_clean_error(capsys, f"{cfg}:{line}: ", fragment)


def test_cli_coverage_loss_writes_partial_log(tmp_path, capsys):
    # Lifting the head 10 m/s soon leaves too few cloud points in view.
    script = tmp_path / "lift.script"
    script.write_text("script lift\nunits degrees\nmove channel=base-z t=0.2,3 rate=10\n")
    cfg = write_quick_config(tmp_path, "off", 3, script="lift.script")
    assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    failed = re.search(r"gazestab: error: only \d+ cloud points remained valid at t=([\d.]+)s", err)
    assert failed and "Traceback" not in err
    log = read_log_csv(str(tmp_path / "quick_off.csv"))
    assert log.n_rows() == round(float(failed.group(1)) / 0.01)  # rows before the failing tick
    assert np.all(log.n_valid[1:] >= 10)


def test_cli_compare_of_a_log_with_no_completed_tick_exits_1(tmp_path, capsys):
    # A 1000 m/s lift loses the cloud on the first tick: the partial log holds
    # the initial row only, which has no flow to average.  compare used to
    # print numpy warnings and a nan table with a 0.0% reduction, and exit 0.
    script = tmp_path / "lift.script"
    script.write_text("script lift\nunits degrees\nmove channel=base-z t=0,1 rate=1000\n")
    cfg = write_quick_config(tmp_path, "off", 1, script="lift.script")
    assert main(["run", "--config", cfg]) == 1
    assert "partial log (1 rows)" in capsys.readouterr().err
    log = str(tmp_path / "quick_off.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compare", "--baseline", log, log]) == 1
    assert_clean_error(capsys, f"gazestab: error: {log}: ", "no completed tick")


def test_cli_unequal_tilt_limits_exit_2_at_the_model(tmp_path, capsys):
    # The tilts are one axis: a right tilt limited to +-1 degree used to be
    # clamped apart from the left mid-run, and the error named the config.
    model = tmp_path / "head.model"
    model.write_text("".join(
        line.replace("min=-42 max=42", "min=-1 max=1") if line.startswith("link right-eye-tilt") else line
        for line in MODEL_LINES
    ))
    cfg = write_quick_config(tmp_path, "kff", 0.3, model="head.model", dof="eyes")
    assert main(["run", "--config", cfg]) == 2
    no = next(i for i, line in enumerate(MODEL_LINES, start=1) if line.startswith("link right-eye-tilt"))
    # both values in the file's degrees, not radians
    assert_clean_error(capsys, f"{model}:{no}: ", "eye tilts are one axis: left tilt q_min -42 differs from the right's -1")
    assert not (tmp_path / "quick_kff.csv").exists()


@pytest.mark.parametrize(
    "key,value", [("gyro-noise", "1e308"), ("focal-length", "1e308"), ("cloud-radius", "0.3 1e308")]
)
def test_cli_scale_past_its_cap_exits_2_at_its_line(tmp_path, capsys, key, value):
    # Each used to overflow mid-run (numpy warnings, then a late error or none).
    cfg = write_quick_config(tmp_path, "ifb", 0.3, **{key.replace("-", "_"): value})
    no = Path(cfg).read_text().splitlines().index(f"{key} {value}") + 1
    assert main(["run", "--config", cfg]) == 2
    assert_clean_error(capsys, f"{cfg}:{no}: ", "1e+100")


# Hostile values for the settings keys of a run config.
HOSTILE_VALUES = ["nan", "inf", "-inf", "-0", "-1", "0", "1e-300", "4.9e-324", "1e300", "1e308"]
# Hostile magnitudes for script rates and amplitudes, link lengths and the IMU offset.
HOSTILE_MAGNITUDES = ["0", "-0", "1e-300", "1e10", "-1e10", "1e100", "1e300", "-1e300"]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_run_fuzz_fails_cleanly_on_hostile_values(tmp_path_factory, data):
    # A shipped config cut to 0.3 s, with up to 3 settings keys set to
    # hostile values and, on its own copies of the model and script, any of:
    # script rates and noise amplitudes, one link's a or d and the IMU offset
    # up to 1e300, and every joint unlimited.  The run ends in exit 0, 1 or
    # 2, a failure in exactly one `gazestab: error:` line, with no traceback
    # and no numpy warning.
    edits = data.draw(st.sets(st.sampled_from(["rates", "link", "imu", "unlimited"])))
    settable = sorted(_SETTING_KEYS) + ["cloud-radius"]
    keys = data.draw(st.lists(st.sampled_from(settable), min_size=0 if edits else 1, max_size=3, unique=True))
    values, magnitudes = st.sampled_from(HOSTILE_VALUES), st.sampled_from(HOSTILE_MAGNITUDES)
    given_lines = [f"{k} {data.draw(values)}" + (f" {data.draw(values)}" if k == "cloud-radius" else "") for k in keys]
    config = data.draw(st.sampled_from(CONFIG_TEXTS))
    script = Path(DATA, re.search(r"^script (\S+)", config, re.M).group(1)).read_text()
    model = "".join(MODEL_LINES)
    if "rates" in edits:
        script = re.sub(r"\b(rate|amplitude)=\S+", lambda m: f"{m.group(1)}={data.draw(magnitudes)}", script)
    if "link" in edits:
        link = data.draw(st.sampled_from([line.split()[1] for line in MODEL_LINES if line.startswith("link ")]))
        key = data.draw(st.sampled_from(["a", "d"]))
        model = re.sub(rf"^(link {link}\b.*? {key}=)\S+", lambda m: m.group(1) + data.draw(magnitudes), model, flags=re.M)
    if "imu" in edits:
        model = re.sub(r"offset=\S+", "offset=" + ",".join(data.draw(magnitudes) for _ in range(3)), model)
    if "unlimited" in edits:
        model = re.sub(r" (min|max|vmax)=\S+", "", model)
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "m.model").write_text(model)
    (tmp / "s.script").write_text(script)
    kept = [line for line in config.splitlines()
            if line.split()[:1] and line.split()[0] not in {*keys, "duration", "out", "model", "script"}]
    lines = kept + ["model m.model", "script s.script", f"out {tmp / 'run.csv'}"] + given_lines
    lines += [] if "duration" in keys else ["duration 0.3"]
    (tmp / "c.config").write_text("\n".join(lines) + "\n")
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error", RuntimeWarning)  # joint-limit warnings are folded inside the run
        code = main(["run", "--config", str(tmp / "c.config")])
    err = err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in err
    assert err.count("gazestab: error: ") == (code != 0)


def test_cli_unknown_mode_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", "c", "--mode", "sideways"])
    assert exc.value.code == 2
