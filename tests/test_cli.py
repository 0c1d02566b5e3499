import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

import gazestab.cli as cli
from gazestab.cli import main
from gazestab.errors import FileFormatError, InvalidInput
from gazestab.fileio import (
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
from gazestab.models import default_head_model
from gazestab.simulator import (
    MAX_CLOUD_POINTS,
    DisturbanceScript,
    ScriptSegment,
    SimSettings,
    run_experiment,
)
from gazestab.stabilizer import StabilizerConfig

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


def test_shipped_model_file_matches_code_model():
    parsed = parse_model_file(MODEL_FILE)
    built = default_head_model()
    assert chains_equal(parsed.chain, built.chain)
    assert parsed.imu_link == built.imu_link
    assert np.array_equal(parsed.imu_offset.pos, built.imu_offset.pos)
    assert parsed.trunk_names == built.trunk_names
    assert parsed.name == built.name


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
    with pytest.raises(FileFormatError, match="duplicate config key"):
        parse_run_config(str(p))
    p.write_text("config c\nmodel m\n")
    with pytest.raises(FileFormatError, match="missing required config key"):
        parse_run_config(str(p))


def test_config_angle_keys_respect_units(tmp_path):
    p = tmp_path / "c.config"
    p.write_text("config c\nunits degrees\nmodel m\nscript s\nneck-rate-limit 30\ncloud-azimuth 45\n")
    cfg = parse_run_config(str(p))
    assert cfg.settings.control.neck_rate_limit == pytest.approx(math.radians(30.0))
    assert cfg.settings.cloud.azimuth == pytest.approx(math.radians(45.0))


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
    ],
)
def test_cli_bad_config_value_exits_2_with_line(tmp_path, capsys, line):
    p = tmp_path / "c.config"
    p.write_text(f"config c\nmodel default_head.model\nscript exp_a.script\n{line}\nseed 3\n")
    assert main(["run", "--config", str(p)]) == 2
    assert_clean_error(capsys, f"{p}:4: ")


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


@pytest.mark.parametrize(
    "find,new_text,fragment",
    [
        (lambda line: line.startswith("# segment:"), lambda line: "# segment: base-y zero 2\n", "bad number 'zero'"),
        (first_data_row, lambda line: "zebra" + line[line.index(","):], "bad number 'zebra' for t"),
        (first_data_row, lambda line: line.rstrip("\n") + ",0\n", "row with 48 fields"),
    ],
    ids=["segment-time", "non-numeric-field", "extra-field"],
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


@pytest.mark.parametrize(
    "dt,fragment",
    [("1e-300", "over the cap of 200000"), ("1", "duration shorter than one tick")],
)
def test_cli_tick_count_out_of_range_exits_2(tmp_path, capsys, dt, fragment):
    cfg = write_quick_config(tmp_path, "off", 0.3, dt=dt)
    assert main(["run", "--config", cfg]) == 2
    assert_clean_error(capsys, f"{cfg}: ", fragment)


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


def test_cli_unknown_mode_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", "c", "--mode", "sideways"])
    assert exc.value.code == 2
