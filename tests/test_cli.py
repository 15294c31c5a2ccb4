import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from pswa.cli import main
from pswa.config import RunConfig
from pswa.numerics import load_tensor, dump_tensor, ops


@pytest.fixture
def tiny_config(tmp_path):
    cfg = {
        "seed": 0,
        "model": {
            "image_h": 8,
            "image_w": 8,
            "patch": 4,
            "d_model": 8,
            "depth": 2,
            "num_heads": 2,
            "mlp_ratio": 1.0,
        },
        "schedule": {"timesteps": 10},
        "training": {
            "steps": 3,
            "lr": 1e-3,
            "batch_size": 4,
            "dataset_size": 8,
            "log_every": 0,
        },
        "diagnostics": {"survey_samples": 6, "sample_count": 2},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------------------
# gradcheck command
# ---------------------------------------------------------------------------

def test_gradcheck_numerics_passes(capsys):
    assert main(["gradcheck", "--module", "numerics"]) == 0
    out = capsys.readouterr().out
    assert "gradient checks passed" in out
    assert "FAIL" not in out
    assert out.count("ok ") >= 5


def test_gradcheck_detects_corrupted_backward(capsys, monkeypatch):
    # sabotage one op's recorded gradient; the checker must notice
    orig = ops.gelu

    def corrupted(x):
        y = orig(x)
        if y.node is not None:
            inner = y.node.backward
            y.node.backward = lambda g: tuple(1.05 * c for c in inner(g))
        return y

    monkeypatch.setattr(ops, "gelu", corrupted)
    assert main(["gradcheck", "--module", "numerics"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_unknown_module_is_usage_error(capsys):
    assert main(["gradcheck", "--module", "nosuch"]) == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train / sample
# ---------------------------------------------------------------------------

def test_train_writes_artifacts(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", str(tiny_config), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "trained 3 steps" in stdout

    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["seed"] == 0
    assert resolved["model"]["d_model"] == 8
    assert resolved["training"]["steps"] == 3
    # the README's defaults block must not drift from the code's defaults
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0]) == RunConfig().resolved()

    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "loss", "lr", "elapsed_ms"]
    assert len(rows) == 4
    assert (out / "ckpt-final" / "manifest.json").exists()


def test_seed_and_precision_overrides_are_echoed(tiny_config, tmp_path):
    out = tmp_path / "run"
    code = main([
        "train", "--config", str(tiny_config), "--out", str(out),
        "--seed", "7", "--precision", "f32",
    ])
    assert code == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["seed"] == 7
    assert resolved["precision"] == "f32"


def test_sample_fresh_and_from_checkpoint(tiny_config, tmp_path):
    train_out = tmp_path / "train"
    assert main(["train", "--config", str(tiny_config), "--out", str(train_out)]) == 0

    fresh = tmp_path / "fresh"
    assert main(["sample", "--config", str(tiny_config), "--out", str(fresh), "--count", "2"]) == 0
    samples = load_tensor(fresh / "samples.pswt").data
    assert samples.shape == (2, 1, 8, 8)
    assert np.isfinite(samples).all()

    from_ckpt = tmp_path / "from_ckpt"
    code = main([
        "sample", "--config", str(tiny_config), "--out", str(from_ckpt),
        "--ckpt", str(train_out / "ckpt-final"), "--count", "2",
    ])
    assert code == 0
    trained = load_tensor(from_ckpt / "samples.pswt").data
    assert trained.shape == (2, 1, 8, 8)
    # training moved the parameters, so the draws must differ
    assert (trained != samples).any()


def test_sample_checkpoint_precision_must_match(tiny_config, tmp_path, capsys):
    train_out = tmp_path / "train"
    assert main(["train", "--config", str(tiny_config), "--out", str(train_out), "--precision", "f32"]) == 0
    ckpt = str(train_out / "ckpt-final")

    f32 = tmp_path / "f32"
    assert main(["sample", "--config", str(tiny_config), "--out", str(f32), "--ckpt", ckpt, "--precision", "f32"]) == 0
    assert load_tensor(f32 / "samples.pswt").data.dtype == np.float32

    # without the flag the run computes in float64, which the f32 dumps do not hold
    f64 = tmp_path / "f64"
    capsys.readouterr()
    assert main(["sample", "--config", str(tiny_config), "--out", str(f64), "--ckpt", ckpt]) == 2
    err = capsys.readouterr().err
    assert re.search(r"holds \d+ float32, but this run's model takes \d+ float64", err)
    assert not (f64 / "samples.pswt").exists()

    # a checkpoint without its parameter dump is a usage fault too, not a traceback
    (train_out / "ckpt-final" / "params.pswt").unlink()
    f32_again = tmp_path / "f32-again"
    assert main(["sample", "--config", str(tiny_config), "--out", str(f32_again), "--ckpt", ckpt, "--precision", "f32"]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (f32_again / "samples.pswt").exists()


@pytest.mark.parametrize("command, artifact", [
    pytest.param("sample", "samples.pswt", id="sample"),
    pytest.param("diag-distance", "distance_hist.csv", id="diag_distance"),
    pytest.param("diag-spectrum", "spectrum.csv", id="diag_spectrum"),
])
def test_checkpoint_without_config_brings_its_run_config(tiny_config, tmp_path, command, artifact):
    # tiny_config is 8x8 with a 10-step schedule, where the defaults are 16x16 and 100 steps
    trained = tmp_path / "train"
    assert main(["train", "--config", str(tiny_config), "--out", str(trained)]) == 0
    ckpt = trained / "ckpt-final"
    out = tmp_path / "recorded"
    assert main([command, "--ckpt", str(ckpt), "--out", str(out)]) == 0
    assert (out / artifact).exists()
    assert (out / "resolved_config.json").read_bytes() == (trained / "resolved_config.json").read_bytes()

    # a checkpoint that records no run config (save_checkpoint without extra) is fitted to its model
    manifest = json.loads((ckpt / "manifest.json").read_text())
    del manifest["extra"]
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "fitted"
    assert main([command, "--ckpt", str(ckpt), "--out", str(out)]) == 0
    assert (out / artifact).exists()
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert (resolved["model"]["image_h"], resolved["model"]["image_w"], resolved["schedule"]["timesteps"]) == (8, 8, 10)


# ---------------------------------------------------------------------------
# diagnostics commands
# ---------------------------------------------------------------------------

def test_diag_distance_writes_histogram(tiny_config, tmp_path, capsys):
    out = tmp_path / "dist"
    assert main(["diag-distance", "--config", str(tiny_config), "--out", str(out)]) == 0
    assert "mean row distance" in capsys.readouterr().out
    with open(out / "distance_hist.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["bucket_lo", "bucket_hi", "count"]
    assert len(rows) == 17  # 16 buckets by default
    assert sum(int(r[2]) for r in rows[1:]) == 2 * 6  # row+col per record


def test_diag_spectrum_from_tensor_file(tmp_path, capsys):
    blob = tmp_path / "flat.pswt"
    dump_tensor(np.full((8, 8), 2.5), blob)
    out = tmp_path / "spec"
    assert main(["diag-spectrum", "--input", str(blob), "--out", str(out)]) == 0
    assert "band fraction (outer half of bins): 0.0000" in capsys.readouterr().out
    with open(out / "spectrum.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["radius", "log_magnitude"]
    assert len(rows) == 17
    profile = np.array([float(r[1]) for r in rows[1:]])
    assert profile[0] > 0 and (profile[1:] == 0).all()


@pytest.mark.parametrize("features, code", [
    pytest.param(np.zeros((0, 8, 8, 2)), 2, id="empty_stack"),
    pytest.param(np.where(np.arange(64).reshape(8, 8) == 27, np.nan, 1.0), 1, id="one_nan"),
    pytest.param(np.zeros((8, 8)), 1, id="all_zero"),
])
def test_diag_spectrum_refuses_bad_tensor(tmp_path, capsys, features, code):
    blob = tmp_path / "bad.pswt"
    dump_tensor(features, blob)
    out = tmp_path / "spec"
    assert main(["diag-spectrum", "--input", str(blob), "--out", str(out)]) == code
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_diag_spectrum_from_model(tiny_config, tmp_path):
    out = tmp_path / "spec"
    assert main(["diag-spectrum", "--config", str(tiny_config), "--out", str(out)]) == 0
    assert (out / "spectrum.csv").exists()


def test_flops_report_and_measured_cross_check(tiny_config, tmp_path, capsys):
    out = tmp_path / "flops"
    code = main(["flops", "--config", str(tiny_config), "--out", str(out), "--measured"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "instrumented forward" in stdout
    assert "MISMATCH" not in stdout
    text = (out / "flops.csv").read_text().splitlines()
    assert text[0].startswith("# ")
    assert text[1] == "component,flops,params"
    assert text[-1].startswith("total,")


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------

def _patched(tiny_config, tmp_path, patch):
    raw = json.loads(tiny_config.read_text())
    for section, values in patch.items():
        raw.setdefault(section, {}).update(values)
    path = tmp_path / "patched.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("argv, patch, key", [
    pytest.param(["train"], {"model": {"f_strat": 0.5}}, "f_strat", id="unknown_key"),
    pytest.param(["train"], {"model": {"depth": "4"}}, "depth", id="depth_str"),
    pytest.param(["train"], {"model": {"depth": True}}, "depth", id="depth_bool"),
    pytest.param(["train"], {"model": {"window": [2]}}, "window", id="window_short"),
    pytest.param(["train"], {"model": {"window": "ab"}}, "window", id="window_str"),
    pytest.param(["train"], {"pcca": {"fractions": [0.5, "x", 1, 1]}}, "fractions", id="fractions_item"),
    # every pcca key is checked, also when fractions override the generated schedule or depth is 0
    pytest.param(["train"], {"model": {"depth": 4}, "pcca": {"f_start": 5.0, "fractions": [1, 1, 1, 1]}},
                 "f_start", id="f_start_5_with_fractions"),
    pytest.param(["train"], {"model": {"depth": 4}, "pcca": {"mode": "bogus", "fractions": [1, 1, 1, 1]}},
                 "mode", id="mode_bogus_with_fractions"),
    pytest.param(["train"], {"model": {"depth": 4}, "pcca": {"f_start": 0.9, "f_end": 0.1, "fractions": [1, 1, 1, 1]}},
                 "f_start", id="shrinking_with_fractions"),
    pytest.param(["train"], {"model": {"depth": 0}, "pcca": {"f_start": -3.0, "mode": "zzz"}},
                 "f_start", id="bad_pcca_at_depth_0"),
    pytest.param(["train"], {"model": {"image_h": 1, "patch": 1, "window": [1, 1]}}, "image_h", id="image_h_1"),
    pytest.param(["train"], {"training": {"lr": "0.1"}}, "lr", id="lr_str"),
    pytest.param(["train"], {"training": {"lr": 0}}, "lr", id="lr_0"),
    pytest.param(["train"], {"training": {"lr": -1e-4}}, "lr", id="lr_negative"),
    pytest.param(["train"], {"schedule": {"beta_start": 0}}, "beta_start", id="beta_start_0"),
    pytest.param(["train"], {"schedule": {"beta_end": 1.5}}, "beta_end", id="beta_end_1_5"),
    pytest.param(["train"], {"training": {"steps": 1.5}}, "steps", id="steps_float"),
    pytest.param(["train"], {"training": {"batch_size": 0}}, "batch_size", id="batch_size_0"),
    pytest.param(["train"], {"training": {"log_every": -1}}, "log_every", id="log_every_negative"),
    pytest.param(["train"], {"training": {"checkpoint_every": -2}}, "checkpoint_every", id="checkpoint_every_negative"),
    pytest.param(["sample"], {"diagnostics": {"sample_count": 0}}, "sample_count", id="sample_count_0"),
    pytest.param(["train", "--seed", "-3"], {}, "seed", id="seed_override_negative"),
    pytest.param(["sample", "--count", "-1"], {}, "count", id="count_override_negative"),
    pytest.param(["sample", "--count", "0"], {}, "count", id="count_override_0"),
    # a model the diagnostic cannot inspect is refused before resolved_config.json is written
    pytest.param(["diag-spectrum"], {"model": {"depth": 0}}, "no blocks to inspect", id="spectrum_depth_0"),
    pytest.param(["diag-distance"], {"pcca": {"fractions": [0, 0]}}, "no layer has a window branch",
                 id="distance_no_window"),
])
def test_unknown_config_key_is_exit_2(tiny_config, tmp_path, capsys, argv, patch, key):
    out = tmp_path / "o"
    assert main([*argv, "--config", str(_patched(tiny_config, tmp_path, patch)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err
    assert not out.exists()  # every check runs before the output directory is made


@pytest.mark.parametrize("command, patch, torn, message", [
    pytest.param("diag-spectrum", {"model": {"depth": 0}}, False, "no blocks to inspect", id="spectrum_depth_0"),
    pytest.param("diag-distance", {"pcca": {"fractions": [0, 0]}}, False, "no layer has a window branch",
                 id="distance_no_window"),
    pytest.param("sample", {}, True, "torn or mixed checkpoint", id="sample_torn"),
    pytest.param("sample", {"schedule": {"timesteps": 5}}, False, "schedule has 10", id="sample_short_schedule"),
    pytest.param("sample", None, False, "manifest.json", id="sample_missing"),
])
def test_refused_checkpoint_creates_no_out(tiny_config, tmp_path, capsys, command, patch, torn, message):
    ckpt = tmp_path / "nonexistent"
    if patch is not None:
        trained = tmp_path / "train"
        assert main(["train", "--config", str(_patched(tiny_config, tmp_path, patch)), "--out", str(trained)]) == 0
        ckpt = trained / "ckpt-final"
    if torn:
        dump = ckpt / "params.pswt"
        raw = bytearray(dump.read_bytes())
        raw[-1] ^= 0xFF  # same length, other values, old digest
        dump.write_bytes(bytes(raw))
    out = tmp_path / "o"
    capsys.readouterr()
    assert main([command, "--config", str(tiny_config), "--ckpt", str(ckpt), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()  # resolved_config.json is written only once the inputs are read


@pytest.mark.parametrize("argv", [
    pytest.param(["sample"], id="sample"),
    pytest.param(["diag-distance"], id="diag_distance"),
    pytest.param(["diag-spectrum"], id="diag_spectrum"),
    pytest.param(["flops"], id="flops"),
])
def test_successful_run_echoes_resolved_config(tiny_config, tmp_path, argv):
    out = tmp_path / "o"
    assert main([*argv, "--config", str(tiny_config), "--out", str(out)]) == 0
    expected = RunConfig.load(tiny_config).write_resolved(tmp_path / "expected")
    assert (out / "resolved_config.json").read_bytes() == expected.read_bytes()


def test_malformed_json_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["train", "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_config_file_is_exit_2(tmp_path):
    assert main(["train", "--config", str(tmp_path / "absent.json")]) == 2


def test_bad_flag_and_missing_command_exit_2(capsys):
    assert main(["train", "--nonsense"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "gradcheck" in capsys.readouterr().out