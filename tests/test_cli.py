import json
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from virtlprm.cli import READING_FORMAT, main
from virtlprm.coredata import DetectorId, default_geometry, load_archive, save_archive
from virtlprm.evaluation import LprmNetPredictor, SetSurrogatePredictor, VirtualSensor
from virtlprm.models import LprmNet, LprmNetSpec, load_checkpoint, save_checkpoint

ARCHIVE_FILES = ("manifest.json", "np.bin", "rv.bin", "rp.bin", "nbd.bin",
                 "scalars.bin", "readings.bin")
SMALL_LPRMNET = {"conv_channels": 2, "trunk_hidden": 8, "trunk_out": 4,
                 "scalar_hidden": 4, "scalar_out": 4, "regression_hidden": 4}


def train_config(path, archive, model, model_config=None):
    """Write a one-epoch experiment config for ``model`` and return its path."""
    config = {"archive": str(archive), "model": model, "split": "surrogate", "seed": 3,
              "out_dir": str(path.parent / "run"), "model_config": model_config or {},
              "train": {"epochs": 1, "batch_size": 16}}
    path.write_text(json.dumps(config))
    return path


def fail_on_archive_read(monkeypatch):
    def refuse(path):
        pytest.fail(f"the archive {path} was read")
    monkeypatch.setattr("virtlprm.cli.load_archive", refuse)


def write_gen_config(path, cycles):
    config = {"geometry": "default", "cycles": cycles}
    path.write_text(json.dumps(config))
    return path


@pytest.fixture(scope="module")
def small_archive(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    cfg = write_gen_config(root / "gen.json", [
        {"cycle_id": 1, "frame_count": 40, "seed": 11},
        {"cycle_id": 2, "frame_count": 30, "seed": 11},
    ])
    out = root / "archive"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def trained_run(small_archive, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-train")
    config = {
        "geometry": "default",
        "archive": str(small_archive),
        "model": "surrogate-ab",
        "split": "surrogate",
        "seed": 3,
        "out_dir": str(root / "run"),
        "model_config": {"hidden": 16},
        "train": {"max_lr": 0.005, "epochs": 3, "batch_size": 16},
    }
    cfg_path = root / "exp.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path)]) == 0
    return {"root": root, "config": config, "config_path": cfg_path,
            "out_dir": root / "run"}


@pytest.fixture(scope="module")
def trained_ba(small_archive, tmp_path_factory):
    """A set-B-to-set-A checkpoint, so that set-A detectors can be served."""
    root = tmp_path_factory.mktemp("cli-train-ba")
    config = {"archive": str(small_archive), "model": "surrogate-ba", "split": "surrogate",
              "seed": 4, "out_dir": str(root / "run"), "model_config": {"hidden": 16},
              "train": {"max_lr": 0.005, "epochs": 2, "batch_size": 16}}
    cfg_path = root / "exp.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path)]) == 0
    return root / "run" / "checkpoint"


class TestGen:
    def test_round_trip_bitwise(self, small_archive, tmp_path):
        frames = load_archive(small_archive)
        assert len(frames) == 70
        from virtlprm.coredata import save_archive
        save_archive(frames, tmp_path / "again")
        for name in ARCHIVE_FILES:
            assert (small_archive / name).read_bytes() == \
                   (tmp_path / "again" / name).read_bytes()

    def test_same_seed_byte_identical_archive(self, tmp_path):
        cfg = write_gen_config(tmp_path / "g.json",
                               [{"cycle_id": 5, "frame_count": 12, "seed": 9}])
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "a1")]) == 0
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "a2")]) == 0
        for name in ARCHIVE_FILES:
            assert (tmp_path / "a1" / name).read_bytes() == \
                   (tmp_path / "a2" / name).read_bytes()

    def test_prints_per_cycle_summary(self, tmp_path, capsys):
        cfg = write_gen_config(tmp_path / "g.json",
                               [{"cycle_id": 7, "frame_count": 5, "seed": 1}])
        main(["gen", "--config", str(cfg), "--out", str(tmp_path / "a")])
        out = capsys.readouterr().out
        assert "wrote 5 frames" in out
        assert "cycle 7: 5 frames" in out

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["gen", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "a")]) == 2

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "g.json"
        cfg.write_bytes(b"\xff\xfe{")
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = write_gen_config(tmp_path / "g.json",
                               [{"cycle_id": 1, "frame_count": 4, "seed": 1}])
        main(["gen", "--config", str(cfg), "--out", str(tmp_path / "base")])
        monkeypatch.setenv("VIRTLPRM_SEED", "99")
        main(["gen", "--config", str(cfg), "--out", str(tmp_path / "override")])
        assert (tmp_path / "base" / "readings.bin").read_bytes() != \
               (tmp_path / "override" / "readings.bin").read_bytes()

    def test_bad_env_seed_is_config_error(self, tmp_path, monkeypatch):
        cfg = write_gen_config(tmp_path / "g.json",
                               [{"cycle_id": 1, "frame_count": 4, "seed": 1}])
        monkeypatch.setenv("VIRTLPRM_SEED", "not-a-number")
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 2


@pytest.mark.parametrize("command, key, value", [
    ("gen", "seed", "x"), ("train", "seed", "abc"), ("train", "rated_power", "high")])
def test_non_numeric_config_value_is_config_error(small_archive, tmp_path, monkeypatch,
                                                  capsys, command, key, value):
    fail_on_archive_read(monkeypatch)
    if command == "gen":
        cfg = write_gen_config(tmp_path / "g.json",
                               [{"cycle_id": 1, "frame_count": 4, key: value}])
        argv = ["gen", "--config", str(cfg), "--out", str(tmp_path / "run")]
    else:
        cfg = train_config(tmp_path / "exp.json", small_archive, "surrogate-ab")
        config = json.loads(cfg.read_text())
        config[key] = value
        cfg.write_text(json.dumps(config))
        argv = ["train", "--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err and key in captured.err
    assert repr(value) in captured.err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, key, value", [
    ("gen", "cycles", [5]), ("gen", "cycles", "ab"), ("train", "split", 5),
    ("train", "geometry", 5)], ids=["gen cycles [5]", "gen cycles 'ab'", "train split 5",
                                    "train geometry 5"])
def test_config_value_of_wrong_type_is_config_error(small_archive, tmp_path, monkeypatch,
                                                    capsys, command, key, value):
    fail_on_archive_read(monkeypatch)
    if command == "gen":
        cfg = tmp_path / "g.json"
        cfg.write_text(json.dumps({"geometry": "default", key: value}))
        argv = ["gen", "--config", str(cfg), "--out", str(tmp_path / "run")]
    else:
        cfg = train_config(tmp_path / "exp.json", small_archive, "surrogate-ab")
        config = json.loads(cfg.read_text())
        config[key] = value
        cfg.write_text(json.dumps(config))
        argv = ["train", "--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error") and key in captured.err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("drift", ["ab", "3A", 5, {"3A": 1}, [5]])
def test_drift_detectors_not_a_list_of_codes_is_config_error(tmp_path, capsys, drift):
    cfg = write_gen_config(tmp_path / "g.json", [{"cycle_id": 1, "frame_count": 4, "seed": 1,
                                                  "drift_detectors": drift}])
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error") and "drift_detectors" in captured.err
    assert not (tmp_path / "run").exists()


class TestTrain:
    def test_writes_checkpoint_and_history(self, trained_run):
        out = trained_run["out_dir"]
        assert (out / "checkpoint" / "manifest.json").exists()
        assert (out / "checkpoint" / "params.bin").exists()
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_loss,lr"
        assert len(history) == 4  # header + 3 epochs

    def test_rerun_byte_identical_history(self, trained_run, tmp_path):
        config = dict(trained_run["config"])
        config["out_dir"] = str(tmp_path / "rerun")
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "rerun" / "history.csv").read_bytes() == \
               (trained_run["out_dir"] / "history.csv").read_bytes()
        assert (tmp_path / "rerun" / "checkpoint" / "params.bin").read_bytes() == \
               (trained_run["out_dir"] / "checkpoint" / "params.bin").read_bytes()

    def test_holdout_split_reports_zero_leakage(self, small_archive, tmp_path, capsys):
        config = {
            "archive": str(small_archive),
            "model": "surrogate-ba",
            "split": "holdout:2",
            "seed": 5,
            "out_dir": str(tmp_path / "run"),
            "model_config": {"hidden": 8},
            "train": {"max_lr": 0.005, "epochs": 1, "batch_size": 16},
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "frames from holdout cycle 2 in train: 0" in out

    def test_holdout_cycle_too_small_to_split_is_data_error(self, tmp_path, capsys):
        gen = write_gen_config(tmp_path / "gen.json", [
            {"cycle_id": 1, "frame_count": 30, "seed": 11},
            {"cycle_id": 2, "frame_count": 1, "seed": 11},
        ])
        assert main(["gen", "--config", str(gen), "--out", str(tmp_path / "a")]) == 0
        cfg = train_config(tmp_path / "exp.json", tmp_path / "a", "surrogate-ab")
        config = json.loads(cfg.read_text())
        config["split"] = "holdout:2"
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg)]) == 3
        assert "holdout cycle 2 has 1 frame(s)" in capsys.readouterr().err

    def test_one_frame_training_split_is_data_error(self, tmp_path, capsys):
        gen = write_gen_config(tmp_path / "gen.json", [
            {"cycle_id": 1, "frame_count": 1, "seed": 11},
            {"cycle_id": 2, "frame_count": 10, "seed": 11},
        ])
        assert main(["gen", "--config", str(gen), "--out", str(tmp_path / "a")]) == 0
        cfg = train_config(tmp_path / "exp.json", tmp_path / "a", "surrogate-ab")
        config = json.loads(cfg.read_text())
        config["split"] = "holdout:2"
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "training split has 1 sample(s)" in captured.err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, value", [("bypass_mode", "per-sample"), ("beta1", 0.8),
                                            ("seed", 9)])
    def test_fixed_recipe_key_is_config_error_before_reading(self, small_archive, tmp_path,
                                                             monkeypatch, capsys, key, value):
        fail_on_archive_read(monkeypatch)
        cfg = train_config(tmp_path / "exp.json", small_archive, "surrogate-ab")
        config = json.loads(cfg.read_text())
        config["train"][key] = value
        cfg.write_text(json.dumps(config))
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "bad train config" in err and key in err
        assert not (tmp_path / "run").exists()

    def test_missing_field_is_config_error(self, small_archive, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"archive": str(small_archive)}))
        assert main(["train", "--config", str(cfg_path)]) == 2

    def test_missing_archive_is_config_error(self, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({
            "archive": str(tmp_path / "missing"), "model": "surrogate-ab",
            "split": "surrogate", "seed": 1, "out_dir": str(tmp_path / "o"),
        }))
        assert main(["train", "--config", str(cfg_path)]) == 2

    def test_corrupt_archive_is_data_error(self, small_archive, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text((small_archive / "manifest.json").read_text())
        for name in ARCHIVE_FILES[1:]:
            (bad / name).write_bytes(b"\x00" * 8)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({
            "archive": str(bad), "model": "surrogate-ab", "split": "surrogate",
            "seed": 1, "out_dir": str(tmp_path / "o"),
            "train": {"max_lr": 0.005, "epochs": 1},
        }))
        assert main(["train", "--config", str(cfg_path)]) == 3

    @pytest.mark.parametrize("fault", ["missing rp.bin", "truncated manifest", "no frame_count",
                                       "no shapes", "no frames"])
    @pytest.mark.parametrize("command", ["train", "infer", "report"])
    def test_unreadable_archive_is_data_error(self, small_archive, trained_run, tmp_path,
                                              capsys, fault, command):
        bad = tmp_path / "bad"
        shutil.copytree(small_archive, bad)
        if fault == "missing rp.bin":
            (bad / "rp.bin").unlink()
        elif fault == "truncated manifest":
            truncate_manifest(bad)
        else:
            drop_manifest_key(bad, fault.removeprefix("no "))
        argv = {
            "train": ["train", "--config",
                      str(train_config(tmp_path / "exp.json", bad, "surrogate-ab"))],
            "infer": ["infer", "--checkpoint", str(trained_run["out_dir"] / "checkpoint"),
                      "--archive", str(bad)],
            "report": ["report", "--checkpoint", "oracle", "--archive", str(bad),
                       "--out", str(tmp_path / "rep")],
        }[command]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "data error" in captured.err

    @pytest.mark.parametrize("selector", ["cset:99Z", "cset:1A", "lprmnet:1Q"])
    def test_bad_selector_is_config_error_before_reading(self, small_archive, tmp_path,
                                                         monkeypatch, capsys, selector):
        fail_on_archive_read(monkeypatch)
        cfg = train_config(tmp_path / "exp.json", small_archive, selector)
        assert main(["train", "--config", str(cfg)]) == 2
        assert selector in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("selector, model_config", [
        ("lprmnet:1A", {"conv_chanels": 4}),
        ("surrogate-ab", {"hiden": 8}),
        ("cset:7A", {"hidden": 8, "depth": 3}),
    ], ids=["lprmnet:1A", "surrogate-ab", "cset:7A"])
    def test_unknown_model_config_key_is_config_error(self, small_archive, tmp_path,
                                                      monkeypatch, capsys, selector,
                                                      model_config):
        fail_on_archive_read(monkeypatch)
        cfg = train_config(tmp_path / "exp.json", small_archive, selector, model_config)
        assert main(["train", "--config", str(cfg)]) == 2
        assert "model_config" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_divergence_exit_code(self, small_archive, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({
            "archive": str(small_archive), "model": "surrogate-ab",
            "split": "surrogate", "seed": 1, "out_dir": str(tmp_path / "o"),
            "model_config": {"hidden": 8},
            "train": {"max_lr": 1e30, "epochs": 4, "batch_size": 16},
        }))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--config", str(cfg_path)]) == 4


class TestEval:
    def test_oracle_on_clean_data_gives_zero_report(self, small_archive, tmp_path, capsys):
        code = main(["eval", "--checkpoint", "oracle", "--archive", str(small_archive),
                     "--out", str(tmp_path / "rep"), "--split", "none"])
        assert code == 0
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert report["groups"]["overall"]["mean_rmse"] == 0.0
        out = capsys.readouterr().out
        assert "overall" in out

    def test_report_has_five_rows(self, small_archive, tmp_path):
        main(["eval", "--checkpoint", "oracle", "--archive", str(small_archive),
              "--out", str(tmp_path / "rep"), "--split", "none"])
        lines = (tmp_path / "rep" / "report.csv").read_text().splitlines()
        assert len(lines) == 6
        assert [ln.split(",")[0] for ln in lines[1:]] == ["overall", "A", "B", "C", "D"]

    def test_eval_twice_identical_files(self, trained_run, small_archive, tmp_path):
        ckpt = str(trained_run["out_dir"] / "checkpoint")
        for name in ("r1", "r2"):
            assert main(["eval", "--checkpoint", ckpt, "--archive", str(small_archive),
                         "--out", str(tmp_path / name), "--seed", "3"]) == 0
        for f in ("report.csv", "report.json"):
            assert (tmp_path / "r1" / f).read_bytes() == (tmp_path / "r2" / f).read_bytes()

    @pytest.mark.parametrize("selector, model_config, covers", [
        ("surrogate-ab", {"hidden": 16}, "B"),
        ("surrogate-ba", {"hidden": 16}, "A"),
        ("cset:7A", {"hidden": 16}, {"7A"}),
        ("lprmnet:1A", SMALL_LPRMNET, {"1A"}),
    ], ids=["surrogate-ab", "surrogate-ba", "cset:7A", "lprmnet:1A"])
    def test_trained_checkpoint_covers_one_set(self, small_archive, tmp_path, selector,
                                               model_config, covers):
        cfg = train_config(tmp_path / "exp.json", small_archive, selector, model_config)
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "checkpoint"
        training = json.loads((ckpt / "manifest.json").read_text())["training"]
        assert training["selector"] == selector
        assert "input_set" not in training and "target" not in training
        assert main(["eval", "--checkpoint", str(ckpt), "--archive", str(small_archive),
                     "--out", str(tmp_path / "rep"), "--seed", "3"]) == 0
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        if isinstance(covers, str):
            covers = {d.code for d in default_geometry().detectors_in_set(covers)}
            assert len(covers) == 76
        assert set(report["per_detector"]) == covers
        assert report["groups"]["overall"]["detector_count"] == len(covers)


def checkpoint_copy(source, dest, edit):
    """Copy of a checkpoint directory with ``edit(dest)`` applied to it."""
    shutil.copytree(source, dest)
    edit(dest)
    return dest


def drop_selector(ckpt):
    manifest = json.loads((ckpt / "manifest.json").read_text())
    del manifest["training"]["selector"]
    manifest["training"]["input_set"] = "A"  # only the selector may name the role
    (ckpt / "manifest.json").write_text(json.dumps(manifest))


def truncate_manifest(directory):
    text = (directory / "manifest.json").read_text()
    (directory / "manifest.json").write_text(text[:len(text) // 2])


def drop_manifest_key(directory, key):
    manifest = json.loads((directory / "manifest.json").read_text())
    del manifest[key]
    (directory / "manifest.json").write_text(json.dumps(manifest))


def edit_entry(ckpt, edit, index=3):
    """Replace the checkpoint's ``entries`` item ``index`` with ``edit(item)``."""
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["entries"][index] = edit(manifest["entries"][index])
    (ckpt / "manifest.json").write_text(json.dumps(manifest))


def nan_entry(ckpt, key="fc2.weight"):
    """Write a NaN over the first value of checkpoint entry ``key``."""
    manifest = json.loads((ckpt / "manifest.json").read_text())
    offset = next(e["offset"] for e in manifest["entries"] if e["key"] == key)
    with open(ckpt / "params.bin", "r+b") as fh:
        fh.seek(4 * offset)
        fh.write(np.array([np.nan], dtype="<f4").tobytes())


class TestUnreadableCheckpoint:
    """Every faulty checkpoint ends in a classified exit, not a traceback."""

    FAULTS = {
        "missing directory": (lambda ckpt: shutil.rmtree(ckpt), 2, "checkpoint not found"),
        "no selector": (drop_selector, 2, "selector"),
        "missing params.bin": (lambda ckpt: (ckpt / "params.bin").unlink(), 3, "params.bin"),
        "truncated manifest": (truncate_manifest, 3, "manifest.json"),
        "non-JSON manifest": (lambda ckpt: (ckpt / "manifest.json").write_bytes(b"\x00\xff"),
                              3, "manifest.json"),
        "NaN entry": (nan_entry, 3, "fc2.weight"),
        **{f"no {key}": (lambda ckpt, key=key: drop_manifest_key(ckpt, key), 3, key)
           for key in ("model_type", "spec", "seed", "entries")},
        **{f"entry without {field}": (
            lambda ckpt, field=field: edit_entry(
                ckpt, lambda e: {k: v for k, v in e.items() if k != field}),
            3, repr(field)) for field in ("key", "shape", "offset")},
        "entry not an object": (
            lambda ckpt: edit_entry(ckpt, lambda e: [e["key"], e["shape"], e["offset"]]),
            3, "bad entries item"),
        "entry with negative offset": (
            lambda ckpt: edit_entry(ckpt, lambda e: {**e, "offset": -4}), 3, "negative"),
    }

    @pytest.mark.parametrize("fault", list(FAULTS))
    @pytest.mark.parametrize("command", ["eval", "infer"])
    def test_classified_exit(self, trained_run, small_archive, tmp_path, capsys, fault,
                             command):
        edit, code, words = self.FAULTS[fault]
        ckpt = checkpoint_copy(trained_run["out_dir"] / "checkpoint", tmp_path / "ckpt", edit)
        argv = [command, "--checkpoint", str(ckpt), "--archive", str(small_archive)]
        if command == "eval":
            argv += ["--out", str(tmp_path / "rep")]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert words in captured.err


class TestInfer:
    def test_empty_bypass_echoes_readings(self, trained_run, small_archive, capsys):
        ckpt = str(trained_run["out_dir"] / "checkpoint")
        code = main(["infer", "--checkpoint", ckpt, "--archive", str(small_archive),
                     "--bypass", ""])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        frames = load_archive(small_archive)
        assert len(lines) == len(frames)
        first = json.loads(lines[0])
        assert first["virtual"] == []
        np.testing.assert_allclose(np.array(first["readings"], dtype=np.float32),
                                   frames.readings[0])

    def test_virtual_flags_exactly_match_bypass_list(self, trained_run, small_archive,
                                                     capsys):
        ckpt = str(trained_run["out_dir"] / "checkpoint")
        code = main(["infer", "--checkpoint", ckpt, "--archive", str(small_archive),
                     "--bypass", "6A,12B"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines:
            record = json.loads(line)
            assert sorted(record["virtual"]) == ["12B", "6A"]

    def test_uncovered_bypass_exits_before_streaming(self, trained_run, small_archive,
                                                     capsys):
        ckpt = str(trained_run["out_dir"] / "checkpoint")
        code = main(["infer", "--checkpoint", ckpt, "--archive", str(small_archive),
                     "--bypass", "7C"])
        assert code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("code", ["xyz", "99A", "0A", "1E"])
    def test_bad_bypass_code_is_config_error(self, trained_run, small_archive, capsys,
                                             monkeypatch, code):
        # a code that does not parse, or names no detector of the layout, is
        # configuration: rejected before any checkpoint or archive is read
        fail_on_archive_read(monkeypatch)
        monkeypatch.setattr("virtlprm.cli.load_checkpoint",
                            lambda path: pytest.fail(f"the checkpoint {path} was read"))
        exit_code = main(["infer", "--checkpoint", str(trained_run["out_dir"] / "checkpoint"),
                          "--archive", str(small_archive), "--bypass", f"6A,{code}"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.out == ""
        assert code.upper() in captured.err


def write_edited_archive(source, dest, edit):
    """Copy of an archive with ``edit(frames)`` applied to its frame table."""
    frames = load_archive(source).take(slice(None))  # readings and bypass sets of its own
    edit(frames)
    save_archive(frames, dest)
    return dest


class TestBatchedInfer:
    """``infer`` predicts the whole archive at once; the contract is measured
    entries bit-identical, virtual entries within 1e-6 + 1e-4 |x| of the
    one-frame path, and byte-identical output run to run."""

    BYPASS = "6A,12B"

    def run_infer(self, capsys, checkpoint, archive, bypass):
        code = main(["infer", "--checkpoint", str(checkpoint), "--archive", str(archive),
                     "--bypass", bypass])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_two_runs_byte_identical(self, trained_run, small_archive, capsys):
        ckpt = trained_run["out_dir"] / "checkpoint"
        first = self.run_infer(capsys, ckpt, small_archive, self.BYPASS)
        second = self.run_infer(capsys, ckpt, small_archive, self.BYPASS)
        assert first[0] == 0
        assert first[1] and first[1] == second[1]

    def test_agrees_with_per_frame_sensor(self, trained_run, small_archive, capsys):
        ckpt = trained_run["out_dir"] / "checkpoint"
        code, out, _ = self.run_infer(capsys, ckpt, small_archive, self.BYPASS)
        assert code == 0
        geom = default_geometry()
        sensor = VirtualSensor(geom, [SetSurrogatePredictor(load_checkpoint(ckpt), "A")])
        bypassed = [DetectorId.parse(c) for c in self.BYPASS.split(",")]
        virtual = [geom.detector_index(d) for d in bypassed]
        measured = np.setdiff1d(np.arange(geom.detector_count), virtual)
        frames = load_archive(small_archive)
        lines = out.splitlines()
        assert len(lines) == len(frames)
        for row, line in enumerate(lines):
            record = json.loads(line)
            got = np.array(record["readings"], dtype=np.float32)
            want, mask = sensor.infer(frames.take([row]), bypassed)  # the one-row path
            assert record["timestamp"] == frames.timestamps[row]
            assert record["virtual"] == list(sensor.virtual_codes(mask[0]))
            assert np.array_equal(got[measured].view(np.uint32),
                                  frames.readings[row, measured].view(np.uint32))
            ref = want[0, virtual].astype(np.float64)
            assert np.all(np.abs(got[virtual] - ref) <= 1e-6 + 1e-4 * np.abs(ref))

    def test_per_frame_bypass_sets(self, trained_run, small_archive, tmp_path, capsys):
        geom = default_geometry()
        b_set = geom.detectors_in_set("B")
        extra = [frozenset(), frozenset({b_set[1]}), frozenset({b_set[2], b_set[9]})]

        def mark(frames):
            for i in range(len(frames)):
                frames.bypassed[i] = extra[i % 3]
                frames.readings[i, [geom.detector_index(d) for d in extra[i % 3]]] = 0.0

        archive = write_edited_archive(small_archive, tmp_path / "marked", mark)
        ckpt = trained_run["out_dir"] / "checkpoint"
        code, out, _ = self.run_infer(capsys, ckpt, archive, "6A")
        assert code == 0
        sensor = VirtualSensor(geom, [SetSurrogatePredictor(load_checkpoint(ckpt), "A")])
        frames = load_archive(archive)
        for i, line in enumerate(out.splitlines()):
            record = json.loads(line)
            union = {DetectorId.parse("6A")} | extra[i % 3]
            assert record["virtual"] == [d.code for d in sorted(union)]
            got = np.array(record["readings"], dtype=np.float32)
            filled = np.zeros(geom.detector_count, dtype=bool)
            filled[[geom.detector_index(d) for d in union]] = True
            assert np.array_equal(got[~filled].view(np.uint32),
                                  frames.readings[i, ~filled].view(np.uint32))
            ref = sensor.infer(frames.take([i]), [DetectorId.parse("6A")])[0][0, filled]
            assert np.all(np.abs(got[filled] - ref) <= 1e-6 + 1e-4 * np.abs(ref))
            assert np.all(got[filled] != 0.0)

    def test_same_role_twice_is_overlap(self, trained_run, small_archive, tmp_path, capsys):
        # two surrogate-ab checkpoints cover the same detectors; the one overlap
        # check rejects them in every command that composes checkpoints
        ckpt = trained_run["out_dir"] / "checkpoint"
        shutil.copytree(ckpt, tmp_path / "again")
        twice = ["--checkpoint", str(ckpt), "--checkpoint", str(tmp_path / "again"),
                 "--archive", str(small_archive)]
        argvs = {"eval": ["eval", *twice, "--out", str(tmp_path / "rep")],
                 "report": ["report", *twice, "--out", str(tmp_path / "drift")],
                 "infer": ["infer", *twice, "--bypass", "6A"]}
        for command, argv in argvs.items():
            assert main(argv) == 3, command
            captured = capsys.readouterr()
            assert captured.out == "", command
            assert "overlap" in captured.err, command

    def test_serves_lprmnet_checkpoint(self, trained_run, small_archive, tmp_path, capsys,
                                       blob_reads):
        # an LprmNet part is served from the archive's core state, bit for bit
        # what its predictor's ``predict`` gives
        geom = default_geometry()
        frames = load_archive(small_archive)
        _, height, width, depth = frames.column("np").shape
        net = LprmNet(LprmNetSpec(grid=(height, width), power_channels=depth,
                                  rod_channels=frames.column("rv").shape[3],
                                  **SMALL_LPRMNET), seed=1)
        save_checkpoint(net, tmp_path / "lprmnet",
                        training_meta={"selector": "lprmnet:7C", "target": "7C"})
        del blob_reads[:]
        code, out, _ = self.run_infer(capsys, tmp_path / "lprmnet", small_archive, "7C")
        assert code == 0
        assert blob_reads[0] == "readings.bin"
        assert {"np.bin", "rv.bin", "scalars.bin"} <= set(blob_reads)
        target = geom.detector_index(DetectorId.parse("7C"))
        want = LprmNetPredictor(load_checkpoint(tmp_path / "lprmnet"),
                                DetectorId.parse("7C")).predict(frames, geom)[:, target]
        records = [json.loads(line) for line in out.splitlines()]
        got = np.array([r["readings"][target] for r in records], dtype=np.float32)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        assert all(r["virtual"] == ["7C"] for r in records)

    def test_non_finite_reading_is_data_error(self, trained_run, small_archive, tmp_path,
                                              capsys):
        geom = default_geometry()
        target = geom.detector_index(DetectorId.parse("11A"))

        def poison(frames):
            frames.readings[2, target] = np.nan

        archive = write_edited_archive(small_archive, tmp_path / "nan", poison)
        stamp = load_archive(archive).timestamps[2]
        code, out, err = self.run_infer(capsys, trained_run["out_dir"] / "checkpoint",
                                        archive, self.BYPASS)
        assert code == 3
        assert out == ""
        assert "11A" in err and str(stamp) in err

    def test_non_finite_virtual_reading_is_data_error(self, trained_run, small_archive,
                                                      tmp_path, capsys):
        # finite inputs pass the input check, but overflow the model fed by set A
        geom = default_geometry()

        def flood(frames):
            frames.readings[3, geom.indices_for_set("A")] = 3e38

        archive = write_edited_archive(small_archive, tmp_path / "huge", flood)
        stamp = load_archive(archive).timestamps[3]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = self.run_infer(capsys, trained_run["out_dir"] / "checkpoint",
                                            archive, "12B")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert code == 3
        assert out == ""
        assert err.startswith("data error: non-finite virtual reading")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert "12B" in err and str(stamp) in err

    def test_non_finite_bypassed_reading_is_zeroed(self, trained_run, trained_ba,
                                                   small_archive, tmp_path, capsys):
        # 11A is an input of the set-A model: bypassed, its NaN or inf must
        # reach no model, so the output equals that of a zero reading.
        geom = default_geometry()
        target = geom.detector_index(DetectorId.parse("11A"))

        def poison(frames):
            frames.readings[0::2, target] = np.nan
            frames.readings[1::2, target] = np.inf

        def zero(frames):
            frames.readings[:, target] = 0.0

        outputs = []
        for name, edit in (("nan", poison), ("zero", zero)):
            archive = write_edited_archive(small_archive, tmp_path / name, edit)
            code = main(["infer", "--archive", str(archive), "--bypass", "11A,12B",
                         "--checkpoint", str(trained_run["out_dir"] / "checkpoint"),
                         "--checkpoint", str(trained_ba)])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        rows = np.array([json.loads(line)["readings"] for line in outputs[0].splitlines()])
        assert rows.shape == (70, geom.detector_count)
        assert np.all(np.isfinite(rows))


class TestInferLines:
    """Each ``infer`` line is ``json.dumps(record, sort_keys=True)``'s layout,
    with every reading printed at 9 significant digits, exactly its float32."""

    def test_keys_and_reencoding(self, trained_run, small_archive, capsys):
        ckpt = trained_run["out_dir"] / "checkpoint"
        assert main(["infer", "--checkpoint", str(ckpt), "--archive", str(small_archive),
                     "--bypass", "6A,12B"]) == 0
        lines = capsys.readouterr().out.splitlines()
        geom = default_geometry()
        sensor = VirtualSensor(geom, [SetSurrogatePredictor(load_checkpoint(ckpt), "A")])
        frames = load_archive(small_archive)
        want, mask = sensor.infer(frames, [DetectorId.parse("6A"), DetectorId.parse("12B")])
        assert len(lines) == len(frames)
        for row, line in enumerate(lines):
            record = json.loads(line)
            assert list(record) == ["readings", "timestamp", "virtual"]
            record["readings"] = [float(np.float32(v)) for v in record["readings"]]
            # the line the float64-repr encoder writes for the same values
            reference = {"timestamp": int(frames.timestamps[row]),
                         "readings": want[row].tolist(),
                         "virtual": list(sensor.virtual_codes(mask[row]))}
            assert json.dumps(record, sort_keys=True) == json.dumps(reference, sort_keys=True)

    def test_reading_format_round_trips_float32(self):
        rng = np.random.default_rng(13)
        bits = rng.integers(0, 2 ** 32, size=200_000, dtype=np.uint32)
        finfo = np.finfo(np.float32)
        edges = np.array([0.0, -0.0, 1e-45, finfo.smallest_normal, finfo.max, -finfo.max],
                         dtype=np.float32)
        largest_subnormal = np.array([0x007FFFFF], dtype=np.uint32).view(np.float32)
        values = np.concatenate([bits.view(np.float32), edges, largest_subnormal])
        values = values[np.isfinite(values)]
        parsed = np.array([float(READING_FORMAT % v) for v in values.tolist()])
        assert np.array_equal(parsed.astype(np.float32).view(np.uint32),
                              values.view(np.uint32))
        wide = values.astype(np.float64)
        assert np.all(np.abs(parsed - wide) <= 5e-9 * np.abs(wide))


def poison_blob(archive, name, offset=0):
    """Write a NaN over value ``offset`` of the archive's ``<name>.bin``."""
    with open(archive / f"{name}.bin", "r+b") as fh:
        fh.seek(4 * offset)
        fh.write(np.array([np.nan], dtype="<f4").tobytes())


class TestInferReadsOnlyReadings:
    """``infer`` serves from the readings column; the core-state blobs are
    checked at open for size only, and read by the commands that use them."""

    def infer(self, capsys, trained_run, archive):
        code = main(["infer", "--checkpoint", str(trained_run["out_dir"] / "checkpoint"),
                     "--archive", str(archive), "--bypass", "6A,12B"])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_reads_no_blob_but_readings(self, trained_run, small_archive, capsys,
                                        blob_reads):
        code, out, _ = self.infer(capsys, trained_run, small_archive)
        assert code == 0
        assert len(out.splitlines()) == 70
        assert blob_reads == ["readings.bin"]

    def test_short_core_state_blob_is_data_error(self, trained_run, small_archive, tmp_path,
                                                 capsys):
        bad = tmp_path / "short"
        shutil.copytree(small_archive, bad)
        (bad / "np.bin").write_bytes((bad / "np.bin").read_bytes()[:-8])
        code, out, err = self.infer(capsys, trained_run, bad)
        assert code == 3
        assert out == ""
        assert "np.bin" in err

    def test_nan_nodal_power_served_by_infer_only(self, trained_run, small_archive, tmp_path,
                                                  capsys):
        self.check_served_by_infer_only(capsys, trained_run, small_archive, tmp_path,
                                        "np", "non-finite")

    @pytest.mark.parametrize("blob,message", [("rp", "rod pattern must lie in [0, 1]"),
                                              ("nbd", "nodal blade depletion must lie in [0, 1]")])
    def test_nan_rod_input_served_by_infer_only(self, trained_run, small_archive, tmp_path,
                                                capsys, blob, message):
        self.check_served_by_infer_only(capsys, trained_run, small_archive, tmp_path,
                                        blob, message)

    def check_served_by_infer_only(self, capsys, trained_run, small_archive, tmp_path,
                                   blob, message):
        """A NaN in core-state blob ``blob``: ``infer`` serves as from the clean
        archive, and ``train``, ``eval`` and ``report`` exit 3 naming ``message``."""
        bad = tmp_path / "nan"
        shutil.copytree(small_archive, bad)
        poison_blob(bad, blob, offset=123)
        clean = self.infer(capsys, trained_run, small_archive)
        served = self.infer(capsys, trained_run, bad)
        assert served[0] == 0
        assert served[1] == clean[1]

        argvs = {
            "train": ["train", "--config",
                      str(train_config(tmp_path / "exp.json", bad, "surrogate-ab"))],
            "eval": ["eval", "--checkpoint", str(trained_run["out_dir"] / "checkpoint"),
                     "--archive", str(bad), "--out", str(tmp_path / "rep")],
            "report": ["report", "--checkpoint", "oracle", "--archive", str(bad),
                       "--out", str(tmp_path / "drift")],
        }
        for command, argv in argvs.items():
            assert main(argv) == 3, command
            captured = capsys.readouterr()
            assert captured.out == "", command
            assert message in captured.err, command


class TestReport:
    def test_drift_report_flags_injected_drift(self, tmp_path, capsys):
        cfg = write_gen_config(tmp_path / "g.json", [{
            "cycle_id": 1, "frame_count": 300, "seed": 4, "drift_rate": 0.002,
            "noise_sigma": 0.003, "drift_detectors": ["3A", "20D"],
        }])
        main(["gen", "--config", str(cfg), "--out", str(tmp_path / "arch")])
        capsys.readouterr()
        code = main(["report", "--checkpoint", "oracle", "--archive",
                     str(tmp_path / "arch"), "--out", str(tmp_path / "rep"),
                     "--threshold", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 of 172 detectors flagged" in out
        drift = json.loads((tmp_path / "rep" / "drift.json").read_text())
        flagged = [k for k, v in drift["detectors"].items() if v["flagged"]]
        assert sorted(flagged) == ["20D", "3A"]


class TestEntryPoint:
    def test_module_invocation_help(self):
        proc = subprocess.run([sys.executable, "-m", "virtlprm", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for sub in ("gen", "train", "eval", "infer", "report"):
            assert sub in proc.stdout
