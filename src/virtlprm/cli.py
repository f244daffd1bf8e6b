"""Command-line entry point: reproducible generate/train/eval/infer/report
experiments over frame archives.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
divergence. The ``VIRTLPRM_SEED`` environment variable overrides the seed
of any loaded configuration (for CI sweeps).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .coredata import (
    DataError,
    DetectorId,
    default_geometry,
    filter_transients,
    load_archive,
    load_geometry,
    save_archive,
    split_holdout_cycle,
    split_surrogate,
)
from .evaluation import (
    AxisDetectorPredictor,
    CompositePredictor,
    CoverageError,
    LprmNetPredictor,
    OraclePredictor,
    SetSurrogatePredictor,
    VirtualSensor,
    drift_report,
    rmse_report,
)
from .models import (
    LprmNet,
    LprmNetSpec,
    SurrogateNet,
    axis_detector_arrays,
    axis_surrogate_spec,
    center_output_bias,
    load_checkpoint,
    lprmnet_arrays,
    paired_surrogate_spec,
    save_checkpoint,
    surrogate_arrays,
)
from .synthplant import PlantScenario, generate_plant
from .training import (
    DataSplit,
    DivergenceError,
    TrainConfig,
    history_to_csv,
    train,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4


class ConfigError(ValueError):
    """Invalid command-line or experiment configuration."""


def _load_json(path, what: str) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{what} file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{what} file {path} is not valid JSON: {err}") from None


def _resolve_geometry(spec):
    if spec in (None, "default"):
        return default_geometry()
    if not Path(spec).exists():
        raise ConfigError(f"geometry layout not found: {spec}")
    return load_geometry(spec)


def _env_seed(seed):
    override = os.environ.get("VIRTLPRM_SEED")
    if override is None:
        return seed
    try:
        return int(override)
    except ValueError:
        raise ConfigError(f"VIRTLPRM_SEED must be an integer, got {override!r}") from None


def _parse_bypass_list(text: str):
    if not text:
        return []
    return [DetectorId.parse(tok) for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# gen


def _scenarios_from_config(config: dict):
    cycles = config.get("cycles")
    if not cycles:
        raise ConfigError("generation config needs a non-empty 'cycles' list")
    scenarios = []
    for entry in cycles:
        try:
            drift = entry.get("drift_detectors")
            scenarios.append(PlantScenario(
                cycle_id=int(entry["cycle_id"]),
                frame_count=int(entry["frame_count"]),
                seed=_env_seed(int(entry["seed"])),
                symmetry_fidelity=float(entry.get("symmetry_fidelity", 1.0)),
                noise_sigma=float(entry.get("noise_sigma", 0.0)),
                drift_rate=float(entry.get("drift_rate", 0.0)),
                drift_detectors=None if drift is None else
                frozenset(DetectorId.parse(c) for c in drift),
            ))
        except KeyError as missing:
            raise ConfigError(f"cycle entry missing field {missing}") from None
    return scenarios


def cmd_gen(args) -> int:
    config = _load_json(args.config, "scenario config")
    geom = _resolve_geometry(config.get("geometry", "default"))
    scenarios = _scenarios_from_config(config)
    frames = generate_plant(scenarios, geom)
    save_archive(frames, args.out)
    print(f"wrote {len(frames)} frames to {args.out}")
    for s in scenarios:
        cycle_frames = [f for f in frames if f.cycle_id == s.cycle_id]
        below = sum(1 for f in cycle_frames if f.state.thermal_power < 0.9)
        print(f"  cycle {s.cycle_id}: {len(cycle_frames)} frames, "
              f"{below} below 90% rated power")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def _split_frames(frames, split_spec: str, seed: int):
    if split_spec == "surrogate":
        return split_surrogate(frames, seed=seed)
    if split_spec.startswith("holdout:"):
        try:
            cycle = int(split_spec.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad holdout split spec {split_spec!r}") from None
        return split_holdout_cycle(frames, holdout_cycle=cycle, seed=seed)
    raise ConfigError(f"unknown split spec {split_spec!r}")


def _build_model_and_arrays(selector: str, geom, train_f, val_f, seed: int,
                            model_config: dict):
    if selector in ("surrogate-ab", "surrogate-ba"):
        input_set = "A" if selector == "surrogate-ab" else "B"
        hidden = int(model_config.get("hidden", 256))
        model = SurrogateNet(paired_surrogate_spec(hidden), seed=seed)
        x_tr, y_tr = surrogate_arrays(train_f, geom, input_set)
        x_va, y_va = surrogate_arrays(val_f, geom, input_set)
        data = DataSplit({"x": x_tr}, y_tr, {"x": x_va}, y_va)
        return model, data, {"input_set": input_set}
    if selector.startswith("cset:"):
        target = DetectorId.parse(selector.split(":", 1)[1])
        hidden = int(model_config.get("hidden", 512))
        model = SurrogateNet(axis_surrogate_spec(hidden, geom.detector_count), seed=seed)
        x_tr, y_tr = axis_detector_arrays(train_f, geom, target)
        x_va, y_va = axis_detector_arrays(val_f, geom, target)
        data = DataSplit({"x": x_tr}, y_tr, {"x": x_va}, y_va)
        return model, data, {"target": target.code}
    if selector.startswith("lprmnet:"):
        target = DetectorId.parse(selector.split(":", 1)[1])
        spec_kwargs = dict(model_config)
        if "grid" in spec_kwargs:
            spec_kwargs["grid"] = tuple(spec_kwargs["grid"])
        model = LprmNet(LprmNetSpec(**spec_kwargs), seed=seed)
        in_tr, y_tr = lprmnet_arrays(train_f, geom, target)
        in_va, y_va = lprmnet_arrays(val_f, geom, target)
        center_output_bias(model, y_tr)
        data = DataSplit(in_tr, y_tr, in_va, y_va)
        return model, data, {"target": target.code}
    raise ConfigError(f"unknown model selector {selector!r}")


def _train_config_from(config: dict, selector: str, seed: int) -> TrainConfig:
    train_cfg = dict(config.get("train", {}))
    if "max_lr" not in train_cfg:
        train_cfg["max_lr"] = 0.08 if selector.startswith("lprmnet") else 0.005
    if "bypass_p" not in train_cfg:
        train_cfg["bypass_p"] = 0.0 if selector.startswith("lprmnet") else 0.2
    train_cfg["seed"] = seed
    try:
        return TrainConfig.from_dict(train_cfg)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad train config: {err}") from None


def cmd_train(args) -> int:
    config = _load_json(args.config, "experiment config")
    for required in ("archive", "model", "split", "seed", "out_dir"):
        if required not in config:
            raise ConfigError(f"experiment config missing required field {required!r}")
    seed = _env_seed(int(config["seed"]))
    geom = _resolve_geometry(config.get("geometry", "default"))
    if not Path(config["archive"]).exists():
        raise ConfigError(f"archive not found: {config['archive']}")

    frames = load_archive(config["archive"])
    kept = filter_transients(frames, rated_power=float(config.get("rated_power", 1.0)))
    print(f"loaded {len(frames)} frames, {len(kept)} after transient filtering")

    selector = config["model"]
    split_spec = config["split"]
    train_f, val_f, test_f = _split_frames(kept, split_spec, seed)
    print(f"split '{split_spec}': {len(train_f)} train / {len(val_f)} val / "
          f"{len(test_f)} test frames")
    if split_spec.startswith("holdout:"):
        cycle = int(split_spec.split(":", 1)[1])
        in_train = sum(1 for f in train_f if f.cycle_id == cycle)
        print(f"frames from holdout cycle {cycle} in train: {in_train}")

    model, data, extra_meta = _build_model_and_arrays(
        selector, geom, train_f, val_f, seed, config.get("model_config", {}))
    cfg = _train_config_from(config, selector, seed)
    result = train(model, data, cfg)

    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {
        "selector": selector,
        "split": split_spec,
        "seed": seed,
        "epochs": cfg.epochs,
        "best_epoch": result.best_epoch,
        "best_val_loss": result.best_val_loss,
        **extra_meta,
    }
    save_checkpoint(model, out_dir / "checkpoint", training_meta=meta)
    history_to_csv(result.history, out_dir / "history.csv")
    print(f"best val loss {result.best_val_loss:.6g} at epoch {result.best_epoch}")
    print(f"checkpoint written to {out_dir / 'checkpoint'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval / infer / report


def _predictor_for_checkpoint(path, geom):
    model = load_checkpoint(path)
    meta = getattr(model, "training_meta", {}) or {}
    selector = meta.get("selector", "")
    if isinstance(model, LprmNet):
        target = meta.get("target")
        if target is None:
            raise ConfigError(f"checkpoint {path} lacks a target detector in its metadata")
        return LprmNetPredictor({DetectorId.parse(target): model})
    if selector.startswith("cset:") or "target" in meta:
        return AxisDetectorPredictor({DetectorId.parse(meta["target"]): model})
    input_set = meta.get("input_set")
    if input_set not in ("A", "B"):
        raise ConfigError(f"checkpoint {path} lacks an input set in its metadata")
    return SetSurrogatePredictor(model, input_set)


def _combined_predictor(checkpoints, geom):
    if len(checkpoints) == 1 and checkpoints[0] == "oracle":
        return OraclePredictor()
    if "oracle" in checkpoints:
        raise ConfigError("'oracle' cannot be combined with checkpoint paths")
    parts = [_predictor_for_checkpoint(p, geom) for p in checkpoints]
    if len(parts) == 1:
        return parts[0]
    return CompositePredictor(parts)


def _frames_for_eval(args) -> list:
    if not Path(args.archive).exists():
        raise ConfigError(f"archive not found: {args.archive}")
    frames = load_archive(args.archive)
    kept = filter_transients(frames, rated_power=args.rated_power)
    if args.split == "none":
        return kept
    train_f, val_f, test_f = _split_frames(kept, args.split, args.seed)
    return {"train": train_f, "val": val_f, "test": test_f}[args.part]


def cmd_eval(args) -> int:
    geom = _resolve_geometry(args.geometry)
    predictor = _combined_predictor(args.checkpoint, geom)
    frames = _frames_for_eval(args)
    reference = OraclePredictor() if args.reference_oracle else None
    report = rmse_report(predictor, frames, geom, reference=reference)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.to_csv(out_dir / "report.csv")
    report.to_json(out_dir / "report.json")
    print(report.rows_text())
    print(f"percent error: {report.percent_error:.3f}%")
    print(f"report written to {out_dir}")
    return EXIT_OK


def cmd_infer(args) -> int:
    geom = _resolve_geometry(args.geometry)
    bypassed = _parse_bypass_list(args.bypass)
    parts = []
    for path in args.checkpoint:
        part = _predictor_for_checkpoint(path, geom)
        if not isinstance(part, (SetSurrogatePredictor, AxisDetectorPredictor)):
            raise ConfigError(f"checkpoint {path} cannot serve virtual readings")
        parts.append(part)
    sensor = VirtualSensor(geom, parts=parts)
    try:
        sensor.check_coverage(bypassed)  # validate before any output is emitted
    except CoverageError as err:
        raise ConfigError(str(err)) from None

    if not Path(args.archive).exists():
        raise ConfigError(f"archive not found: {args.archive}")
    frames = load_archive(args.archive)
    readings, mask = sensor.infer_frames(frames, bypassed)
    for frame, row, marked in zip(frames, readings.tolist(), mask):
        line = {"timestamp": frame.timestamp, "readings": row,
                "virtual": list(sensor.virtual_codes(marked))}
        sys.stdout.write(json.dumps(line, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_report(args) -> int:
    geom = _resolve_geometry(args.geometry)
    predictor = _combined_predictor(args.checkpoint, geom)
    if not Path(args.archive).exists():
        raise ConfigError(f"archive not found: {args.archive}")
    frames = load_archive(args.archive)
    report = drift_report(predictor, frames, geom, threshold=args.threshold)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.to_csv(out_dir / "drift.csv")
    report.to_json(out_dir / "drift.json")
    flagged = report.flagged
    print(f"{len(flagged)} of {len(report.detectors)} detectors flagged "
          f"(|offset| > {args.threshold})")
    if flagged:
        print("flagged:", ",".join(flagged))
    print(f"drift report written to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="virtlprm",
        description="Virtual sensing for in-core power range detectors: "
                    "synthetic data generation, model training, evaluation, "
                    "virtual readings, and drift reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic frame archive")
    p_gen.add_argument("--config", required=True, help="scenario config JSON")
    p_gen.add_argument("--out", required=True, help="output archive directory")
    p_gen.set_defaults(func=cmd_gen)

    p_train = sub.add_parser("train", help="train one model from an experiment config")
    p_train.add_argument("--config", required=True, help="experiment config JSON")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="RMSE report of checkpoints on an archive")
    p_eval.add_argument("--checkpoint", action="append", required=True,
                        help="checkpoint directory ('oracle' for the analytic model); "
                             "repeatable")
    p_eval.add_argument("--archive", required=True)
    p_eval.add_argument("--out", required=True, help="report output directory")
    p_eval.add_argument("--geometry", default="default")
    p_eval.add_argument("--split", default="surrogate",
                        help="'surrogate', 'holdout:<cycle>', or 'none'")
    p_eval.add_argument("--part", default="test", choices=["train", "val", "test"])
    p_eval.add_argument("--seed", type=int, default=0, help="split seed")
    p_eval.add_argument("--rated-power", dest="rated_power", type=float, default=1.0)
    p_eval.add_argument("--reference-oracle", action="store_true",
                        help="add the analytic model as a reference column")
    p_eval.set_defaults(func=cmd_eval)

    p_infer = sub.add_parser("infer", help="stream virtual readings as JSON lines")
    p_infer.add_argument("--checkpoint", action="append", required=True,
                         help="surrogate/axis checkpoint directory; repeatable")
    p_infer.add_argument("--archive", required=True, help="frame source archive")
    p_infer.add_argument("--bypass", default="",
                         help="comma-separated detector codes, e.g. '1A,6B'")
    p_infer.add_argument("--geometry", default="default")
    p_infer.set_defaults(func=cmd_infer)

    p_rep = sub.add_parser("report", help="drift/calibration report over an archive")
    p_rep.add_argument("--checkpoint", action="append", required=True,
                       help="checkpoint directory or 'oracle'; repeatable")
    p_rep.add_argument("--archive", required=True)
    p_rep.add_argument("--out", required=True)
    p_rep.add_argument("--threshold", type=float, default=0.05)
    p_rep.add_argument("--geometry", default="default")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as err:
        print(f"numerical divergence: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
