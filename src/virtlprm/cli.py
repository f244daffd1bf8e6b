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
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

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
    axis_surrogate_spec,
    center_output_bias,
    load_checkpoint,
    paired_surrogate_spec,
    save_checkpoint,
)
from .synthplant import PlantScenario, generate_plant
from .training import (
    PREDICT_CHUNK,
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


def _existing(path, what: str):
    """``path`` itself; a path that does not exist is a ``ConfigError``."""
    if not Path(path).exists():
        raise ConfigError(f"{what} not found: {path}")
    return path


def _load_json(path, what: str) -> dict:
    try:
        with open(_existing(path, f"{what} file"), "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as err:  # not JSON, or not UTF-8 text
        raise ConfigError(f"{what} file {path} is not valid JSON: {err}") from None


def _resolve_geometry(spec):
    if spec in (None, "default"):
        return default_geometry()
    if not isinstance(spec, str):
        raise ConfigError(f"geometry must be 'default' or a layout path, got {spec!r}")
    return load_geometry(_existing(spec, "geometry layout"))


def _env_seed(seed):
    override = os.environ.get("VIRTLPRM_SEED")
    if override is None:
        return seed
    try:
        return int(override)
    except ValueError:
        raise ConfigError(f"VIRTLPRM_SEED must be an integer, got {override!r}") from None


def _parse_bypass_list(text: str, geom):
    """The detectors of a comma-separated code list; a code that does not
    parse, or names no detector of ``geom``, is a ``ConfigError``."""
    codes = [tok.strip() for tok in text.split(",") if tok.strip()]
    try:
        return [_detector(code, geom) for code in codes]
    except DataError as err:
        raise ConfigError(f"--bypass {','.join(codes)}: {err}") from None


# ---------------------------------------------------------------------------
# gen


def _scenarios_from_config(config: dict):
    cycles = config.get("cycles")
    if not cycles or not isinstance(cycles, list):
        raise ConfigError(f"generation config needs a non-empty 'cycles' list, got {cycles!r}")
    scenarios = []
    for entry in cycles:
        if not isinstance(entry, dict):
            raise ConfigError(f"'cycles' entry {entry!r} is not an object")
        try:
            drift = entry.get("drift_detectors")
            if drift is not None and not (isinstance(drift, list)
                                          and all(isinstance(c, str) for c in drift)):
                raise ConfigError(f"'drift_detectors' must be a list of detector codes, "
                                  f"got {drift!r}")
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
        except (ConfigError, DataError):  # a value out of range stays a data error
            raise
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad cycle entry {entry}: {err}") from None
    return scenarios


def cmd_gen(args) -> int:
    config = _load_json(args.config, "scenario config")
    geom = _resolve_geometry(config.get("geometry", "default"))
    scenarios = _scenarios_from_config(config)
    frames = generate_plant(scenarios, geom)
    save_archive(frames, args.out)
    print(f"wrote {len(frames)} frames to {args.out}")
    below = frames.thermal_power < 0.9  # at the column's float32 precision
    for s in scenarios:
        in_cycle = frames.cycles == s.cycle_id
        print(f"  cycle {s.cycle_id}: {in_cycle.sum()} frames, "
              f"{(in_cycle & below).sum()} below 90% rated power")
    return EXIT_OK


# ---------------------------------------------------------------------------
# model roles: the one place a ``model`` selector is read


def _detector(code: str, geom, axis: bool = False) -> DetectorId:
    target = DetectorId.parse(code)
    # a detector outside the layout, or off the axis for an axis model, is a DataError
    (geom.axis_detector_index if axis else geom.detector_index)(target)
    return target


def _input_set(pair: str, geom) -> str:
    if pair not in ("ab", "ba"):
        raise DataError("the mirror-set models are surrogate-ab and surrogate-ba")
    return pair[0].upper()


@dataclass(frozen=True)
class _Role:
    """What a selector's kind decides; its target is what follows the prefix."""

    network: type
    target: Callable      # (text after the prefix, geom) -> target
    spec: Callable        # (geom, **model_config) -> spec
    predictor: type       # (model, target) -> predictor, which builds its training arrays
    train_defaults: dict  # ``max_lr`` and ``bypass_p`` unless the config sets them
    center_output: bool   # start the readout at the training-target mean


_ROLES = {
    "surrogate-": _Role(
        SurrogateNet, _input_set, lambda geom, **cfg: paired_surrogate_spec(**cfg),
        SetSurrogatePredictor, train_defaults={"max_lr": 0.005, "bypass_p": 0.2},
        center_output=False),
    "cset:": _Role(
        SurrogateNet, lambda code, geom: _detector(code, geom, axis=True),
        lambda geom, **cfg: axis_surrogate_spec(detector_count=geom.detector_count, **cfg),
        AxisDetectorPredictor, train_defaults={"max_lr": 0.005, "bypass_p": 0.2},
        center_output=False),
    "lprmnet:": _Role(
        LprmNet, _detector, lambda geom, **cfg: LprmNetSpec(**cfg), LprmNetPredictor,
        train_defaults={"max_lr": 0.08, "bypass_p": 0.0},
        center_output=True),
}


def _parse_selector(selector, geom) -> tuple[_Role, object]:
    """The role a ``model`` selector names and its target; a bad one is a ``ConfigError``."""
    for prefix, role in _ROLES.items():
        if str(selector).startswith(prefix):
            try:
                return role, role.target(selector[len(prefix):], geom)
            except DataError as err:
                raise ConfigError(f"model selector {selector!r}: {err}") from None
    raise ConfigError(f"unknown model selector {selector!r}; expected surrogate-ab, "
                      f"surrogate-ba, cset:<detector> or lprmnet:<detector>")


# ---------------------------------------------------------------------------
# train


def _holdout_cycle(split_spec):
    """The held-out cycle of a ``holdout:<cycle>`` split spec, None for
    ``surrogate``; any other spec is a ``ConfigError``."""
    if split_spec == "surrogate":
        return None
    if isinstance(split_spec, str) and split_spec.startswith("holdout:"):
        try:
            return int(split_spec.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad holdout split spec {split_spec!r}") from None
    raise ConfigError(f"unknown split spec {split_spec!r}")


def _split_frames(frames, cycle, seed: int):
    """The (train, val, test) frames: held-out ``cycle``, or shuffled if it is None."""
    if cycle is None:
        return split_surrogate(frames, seed=seed)
    return split_holdout_cycle(frames, holdout_cycle=cycle, seed=seed)


def _train_config_from(config: dict, role: _Role, seed: int) -> TrainConfig:
    block = config.get("train", {})
    try:
        if "seed" in block:
            raise ValueError("'seed' belongs at the top level of the experiment config")
        return TrainConfig(**{**role.train_defaults, **block}, seed=seed)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad train config: {err}") from None


def cmd_train(args) -> int:
    config = _load_json(args.config, "experiment config")
    for required in ("archive", "model", "split", "seed", "out_dir"):
        if required not in config:
            raise ConfigError(f"experiment config missing required field {required!r}")
    try:
        seed, rated_power = int(config["seed"]), float(config.get("rated_power", 1.0))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad seed or rated_power: {err}") from None
    seed = _env_seed(seed)
    geom = _resolve_geometry(config.get("geometry", "default"))
    selector = config["model"]
    role, target = _parse_selector(selector, geom)
    try:
        model = role.network(role.spec(geom, **config.get("model_config", {})), seed=seed)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad model_config for {selector!r}: {err}") from None
    predictor = role.predictor(model, target)
    cfg = _train_config_from(config, role, seed)
    split_spec = config["split"]
    cycle = _holdout_cycle(split_spec)

    frames = load_archive(_existing(config["archive"], "archive"))
    kept = filter_transients(frames, rated_power=rated_power)
    train_f, val_f, test_f = _split_frames(kept, cycle, seed)
    x_tr, y_tr = predictor.training_arrays(train_f, geom)
    x_va, y_va = predictor.training_arrays(val_f, geom)
    data = DataSplit(x_tr, y_tr, x_va, y_va)  # checked before any print: a data error prints none

    print(f"loaded {len(frames)} frames, {len(kept)} after transient filtering")
    print(f"split '{split_spec}': {len(train_f)} train / {len(val_f)} val / "
          f"{len(test_f)} test frames")
    if cycle is not None:
        print(f"frames from holdout cycle {cycle} in train: {(train_f.cycles == cycle).sum()}")
    if role.center_output:
        center_output_bias(model, y_tr)
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
    }
    save_checkpoint(model, out_dir / "checkpoint", training_meta=meta)
    history_to_csv(result.history, out_dir / "history.csv")
    print(f"best val loss {result.best_val_loss:.6g} at epoch {result.best_epoch}")
    print(f"checkpoint written to {out_dir / 'checkpoint'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval / infer / report


def _predictor_for_checkpoint(path, geom):
    """A checkpoint's predictor, in the role its ``training.selector`` names."""
    model = load_checkpoint(_existing(path, "checkpoint"))
    selector = model.training_meta.get("selector")
    if selector is None:
        raise ConfigError(f"checkpoint {path} names no model selector in its training block")
    role, target = _parse_selector(selector, geom)
    return role.predictor(model, target)


def _combined_predictor(checkpoints, geom):
    if len(checkpoints) == 1 and checkpoints[0] == "oracle":
        return OraclePredictor()
    if "oracle" in checkpoints:
        raise ConfigError("'oracle' cannot be combined with checkpoint paths")
    return CompositePredictor([_predictor_for_checkpoint(p, geom) for p in checkpoints])


def _frames_for_eval(args):
    cycle = None if args.split == "none" else _holdout_cycle(args.split)
    frames = load_archive(_existing(args.archive, "archive"))
    kept = filter_transients(frames, rated_power=args.rated_power)
    if args.split == "none":
        return kept
    train_f, val_f, test_f = _split_frames(kept, cycle, args.seed)
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


# ``infer``'s format of one reading: 9 significant digits identify any float32
# exactly (FLT_DECIMAL_DIG), where a float64 repr prints up to 17
READING_FORMAT = "%.9g"


def cmd_infer(args) -> int:
    geom = _resolve_geometry(args.geometry)
    bypassed = _parse_bypass_list(args.bypass, geom)
    sensor = VirtualSensor(geom, [_predictor_for_checkpoint(p, geom) for p in args.checkpoint])
    try:
        sensor.check_coverage(bypassed)  # validate before any output is emitted
    except CoverageError as err:
        raise ConfigError(str(err)) from None

    # the readings, timestamps and bypass sets; the core state only for an LprmNet part
    archive = load_archive(_existing(args.archive, "archive"))
    readings, mask = sensor.infer(archive, bypassed)
    # keys and separators as json.dumps(record, sort_keys=True) writes them
    line = ('{"readings": [' + ", ".join([READING_FORMAT] * readings.shape[1])
            + '], "timestamp": %d, "virtual": %s}\n')
    codes = {}  # one encoded code list per distinct mask row
    for lo in range(0, len(readings), PREDICT_CHUNK):  # Python floats for one chunk at a time
        rows = slice(lo, lo + PREDICT_CHUNK)
        for stamp, row, marked in zip(archive.timestamps[rows].tolist(),
                                      readings[rows].tolist(), mask[rows]):
            key = marked.tobytes()
            if key not in codes:
                codes[key] = json.dumps(list(sensor.virtual_codes(marked)))
            sys.stdout.write(line % (*row, stamp, codes[key]))
    return EXIT_OK


def cmd_report(args) -> int:
    geom = _resolve_geometry(args.geometry)
    predictor = _combined_predictor(args.checkpoint, geom)
    frames = load_archive(_existing(args.archive, "archive"))
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
                         help="checkpoint directory (surrogate, axis or LprmNet); "
                              "repeatable")
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
