"""Experiment driver: configuration, subcommands, and report emission.

Subcommands
-----------
train     fit a denoising network, write checkpoint + per-epoch RMSE log
eval      quality reports for noisy / denoised / baseline-filtered images
sweep     quality grids over device levels, variation, dropout, pruning
cost      hardware cost table for a design point
classify  downstream accuracy for clean / noisy / denoised inputs
fuse      assemble and train the fusion stage from member checkpoints

Exit codes: 0 success, 2 validation error, 3 training divergence.

train's bank members and sweep's variants run in one fork pool
(_fork_map), one worker per available CPU; outputs are byte-identical
to running them one after another.

Configuration is a JSON document merged with command-line flags (flags
win).  All keys are optional except `seed`.  Schema, with defaults:

    {
      "dataset":   "mnist",            # or "cifar10"
      "data_path": null,               # default: $MEMDENOISE_DATA
      "noises":    ["gaussian:0.1"],   # list of corruption specs
      "net":       "dense",            # dense | cnn | fusion
      "device":    {"levels": null, "variation_sigma": 0.0},
      "dropout":   0.0,                # input-row masking fraction
      "prune":     0.0,                # device-pair masking fraction
      "train":     {"learning_rate": null, "epochs": null, "batch": null,
                    "limit": null, "init": "zero", "clean_fraction": 0.5,
                    "device_in_loop": false},
      "eval_limit": 1000,              # test images scored per row
      "checkpoint": null,              # network checkpoint to evaluate
      "filters":   [],                 # baseline filter specs for eval
      "members":   null,               # member checkpoint dir (fusion)
      "classifier": null,              # classifier checkpoint to reuse
      "mode":      "sequential",       # cost: sequential | parallel
      "phase":     "inference",        # cost: inference | training
      "budget":    null,               # cost: JSON of constant overrides
      "sweep":     {"levels": [], "sigma": [], "dropout": [], "prune": []},
      "seed":      null,               # REQUIRED, int
      "outdir":    "out",
      "json":      false,              # emit JSON next to each CSV
      "dump":      0                   # PGM dumps per eval condition
    }

Null training fields resolve to the per-network defaults recorded in
TRAIN_RECIPES.  Every emitted report row carries the hash of the
effective configuration and the seed, and a re-run with the same
configuration reproduces every output file byte for byte.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import multiprocessing as mp
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from . import baselines, ckpt, hwcost, metrics
from .classify import ACCURACY_CSV_HEADER, Classifier, evaluate, train_classifier
from .device import DeviceModel
from .imagecore import DatasetError, load_cifar10, load_mnist, write_image
from .nets.cnn import CnnDenoiser, cnn_train
from .nets.common import TrainConfig, TrainingDivergence
from .nets.dense import DenseDenoiser, dense_train
from .nets.fusion import FusionDenoiser, fusion_train
from .noise import STANDARD_NOISES, corrupt_dataset, parse_spec


class CliError(ValueError):
    """Configuration or input problem; maps to exit code 2."""


DEFAULT_CONFIG = {
    "dataset": "mnist",
    "data_path": None,
    "noises": ["gaussian:0.1"],
    "net": "dense",
    "device": {"levels": None, "variation_sigma": 0.0},
    "dropout": 0.0,
    "prune": 0.0,
    "train": {"learning_rate": None, "epochs": None, "batch": None,
              "limit": None, "init": "zero", "clean_fraction": 0.5,
              "device_in_loop": False},
    "eval_limit": 1000,
    "checkpoint": None,
    "filters": [],
    "members": None,
    "classifier": None,
    "mode": "sequential",
    "phase": "inference",
    "budget": None,
    "sweep": {"levels": [], "sigma": [], "dropout": [], "prune": []},
    "seed": None,
    "outdir": "out",
    "json": False,
    "dump": 0,
}

# Training settings that reproduce the reported quality numbers when a
# field is left null.  Dense learning rate is per noise: the lightest
# Gaussian setting trains stably at twice the shared rate.
TRAIN_RECIPES = {
    "dense": {"learning_rate": 0.01, "epochs": 4, "batch": 64, "limit": 20000},
    "cnn": {"learning_rate": 0.1, "epochs": 4, "batch": 8, "limit": 10000},
    "fusion": {"learning_rate": 0.05, "epochs": 3, "batch": 8, "limit": 10000},
}
DENSE_RATE_OVERRIDES = {"gaussian:0.01": 0.02}


def merge_config(args) -> dict:
    """Effective configuration: defaults <- config file <- flags."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if args.config is not None:
        try:
            with open(args.config) as f:
                loaded = json.load(f)
        except OSError as e:
            raise CliError(f"cannot read config: {e}")
        except json.JSONDecodeError as e:
            raise CliError(f"config is not valid JSON: {e}")
        if not isinstance(loaded, dict):
            raise CliError("config root must be a JSON object")
        unknown = sorted(set(loaded) - set(config))
        if unknown:
            raise CliError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in loaded.items():
            if isinstance(config[key], dict):
                if not isinstance(value, dict):
                    raise CliError(f"config key {key!r} must be an object")
                bad = sorted(set(value) - set(config[key]))
                if bad:
                    raise CliError(f"unknown config keys under {key!r}: "
                                   f"{', '.join(bad)}")
                config[key].update(value)
            else:
                config[key] = value
    flag_map = {
        "data": "data_path", "dataset": "dataset", "noise": "noises",
        "net": "net", "seed": "seed", "outdir": "outdir",
        "eval_limit": "eval_limit",
        "checkpoint": "checkpoint", "filter": "filters",
        "members": "members", "classifier": "classifier", "mode": "mode",
        "phase": "phase", "budget": "budget", "dropout": "dropout",
        "prune": "prune", "dump": "dump",
    }
    for attr, key in flag_map.items():
        value = getattr(args, attr, None)
        if value is not None:
            config[key] = value
    if getattr(args, "emit_json", False):
        config["json"] = True
    if getattr(args, "levels", None) is not None:
        config["device"]["levels"] = _parse_number(args.levels, "levels")
    if getattr(args, "sigma", None) is not None:
        config["device"]["variation_sigma"] = args.sigma
    train_flags = {"lr": "learning_rate", "epochs": "epochs", "batch": "batch",
                   "limit": "limit", "init": "init",
                   "clean_fraction": "clean_fraction"}
    for attr, key in train_flags.items():
        value = getattr(args, attr, None)
        if value is not None:
            config["train"][key] = value
    if getattr(args, "device_in_loop", False):
        config["train"]["device_in_loop"] = True
    for attr, key in {"levels_grid": "levels", "sigma_grid": "sigma",
                      "dropout_grid": "dropout", "prune_grid": "prune"}.items():
        value = getattr(args, attr, None)
        if value is not None:
            config["sweep"][key] = [_parse_number(t, key)
                                    for t in value.split(",")]
    if config["data_path"] is None:
        config["data_path"] = os.environ.get("MEMDENOISE_DATA")
    if config["seed"] is None:
        raise CliError("seed is required (--seed or config key 'seed')")
    config["seed"] = int(config["seed"])
    _check_devices(config)
    return config


def _parse_number(text, key):
    """A levels value (integer or 'ideal') or another grid value (float)."""
    try:
        if key == "levels":
            return None if text == "ideal" else int(text)
        return float(text)
    except ValueError:
        raise CliError(f"bad {key} value {text!r}")


def _check_devices(config):
    """Reject device settings no DeviceModel accepts (NaN, inf, 2.5 levels)."""
    grids = config["sweep"]
    settings = ([config["device"]] + [{"levels": L} for L in grids["levels"]]
                + [{"variation_sigma": s} for s in grids["sigma"]])
    try:
        for setting in settings:
            DeviceModel(**setting)
    except (TypeError, ValueError) as e:
        raise CliError(f"bad device setting: {e}")
    if not all(0.0 <= f < 1.0 for f in grids["dropout"] + grids["prune"]):
        raise CliError("dropout/prune fractions must lie in [0, 1)")


# Plumbing keys that cannot influence report values; everything else
# participates in the provenance hash stamped on each row.
_UNHASHED = {"data_path", "outdir", "json", "dump"}


def config_hash(config) -> str:
    hashed = {k: v for k, v in config.items() if k not in _UNHASHED}
    text = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_dataset(config, split):
    path = config["data_path"]
    if path is None:
        raise CliError("no dataset path: set --data or MEMDENOISE_DATA")
    if not os.path.isdir(path):
        raise CliError(f"dataset path {path!r} is not a directory")
    loader = {"mnist": load_mnist, "cifar10": load_cifar10}.get(config["dataset"])
    if loader is None:
        raise CliError(f"unknown dataset {config['dataset']!r}")
    try:
        return loader(path, split)
    except DatasetError as e:
        raise CliError(f"cannot load {config['dataset']} {split}: {e}")


def parse_noises(config):
    try:
        return [None if text == "none" else parse_spec(text)
                for text in config["noises"]]
    except ValueError as e:
        raise CliError(str(e))


_NET_KINDS = {"dense": DenseDenoiser.from_state,
              "cnn": CnnDenoiser.from_state,
              "fusion": FusionDenoiser.from_state}


def _read_checkpoint(load, path, *args):
    """load(path, *args), I/O and format faults as CliErrors naming path once."""
    try:
        return load(path, *args)
    except OSError as e:
        raise CliError(f"cannot read checkpoint: {e}")
    except ValueError as e:
        raise CliError(str(e))


def load_net(path):
    """(kind, net) of any denoiser checkpoint, dispatching on its kind."""
    return _read_checkpoint(ckpt.load, path, _NET_KINDS)


def resolved_train_config(config, noise_text=None) -> TrainConfig:
    net = config["net"]
    if net not in TRAIN_RECIPES:
        raise CliError(f"unknown net {config['net']!r}")
    recipe = dict(TRAIN_RECIPES[net])
    if net == "dense" and noise_text in DENSE_RATE_OVERRIDES:
        recipe["learning_rate"] = DENSE_RATE_OVERRIDES[noise_text]
    tr = config["train"]
    try:
        device = DeviceModel(**config["device"])
        return TrainConfig(
            train_noise=None if noise_text is None else parse_spec(noise_text),
            learning_rate=(recipe["learning_rate"]
                           if tr["learning_rate"] is None else tr["learning_rate"]),
            epochs=recipe["epochs"] if tr["epochs"] is None else tr["epochs"],
            batch=recipe["batch"] if tr["batch"] is None else tr["batch"],
            seed=config["seed"],
            limit=recipe["limit"] if tr["limit"] is None else tr["limit"],
            init=tr["init"],
            clean_fraction=tr["clean_fraction"],
            device=device,
            device_in_loop=tr["device_in_loop"])
    except ValueError as e:
        raise CliError(str(e))


def _safe(noise_text):
    return noise_text.replace(":", "_")


def _write(path, text, written):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        f.write(text)
    written.append(path)


def _quality_csv(rows, stamp):
    lines = [metrics.CSV_HEADER + ",config,seed"]
    lines += [row.csv_row() + "," + stamp for row in rows]
    return "\n".join(lines) + "\n"


def _rows_json(config, rows):
    return json.dumps({"config": config_hash(config), "seed": config["seed"],
                       "rows": rows}, indent=2) + "\n"


_TRAINERS = {"dense": dense_train, "cnn": cnn_train}


def _member_path(config, noise_text):
    return os.path.join(config["outdir"],
                        f"{config['net']}_{_safe(noise_text)}.bin")


def _train_member(config, cfg, data):
    """Train and save one member of a bank; its RMSE log."""
    text = cfg.train_noise.text()
    try:
        net = _TRAINERS[config["net"]](cfg, data)
    except TrainingDivergence as e:
        raise TrainingDivergence(e.epoch, e.rmse, e.initial_rmse, e.rmse_log,
                                 member=f"{config['net']} {text}") from None
    net.save(_member_path(config, text))
    return net.rmse_log


def _cpus():
    if not hasattr(os, "sched_getaffinity"):  # no fork-safe pool off Linux
        return 1
    return len(os.sched_getaffinity(0))


# The (fn, items) of the open _fork_map pool; its forked workers inherit
# it, so neither is ever pickled.
_task = None


def _run_task(index):
    fn, items = _task
    return fn(items[index])


def _fork_map(fn, items, name):
    """[fn(item) for item in items], run by up to one worker per CPU.

    Workers are forked, so fn and what it closes over (a 376 MB MNIST
    train split, say) reach them unpickled; callers start no threads
    first. With one worker the items run in this process. The first item
    to fail, in input order, raises its own error here, and a dead worker
    a CliError naming name(item); pending items are then cancelled.
    """
    global _task
    workers = min(len(items), _cpus())
    if workers <= 1:
        return [fn(item) for item in items]
    _task, results = (fn, items), []
    pool = ProcessPoolExecutor(workers, mp_context=mp.get_context("fork"))
    try:
        futures = [pool.submit(_run_task, i) for i in range(len(items))]
        for future in futures:
            results.append(future.result())
        return results
    except BrokenProcessPool:
        raise CliError(f"{name(items[len(results)])}: a worker process "
                       "died") from None
    finally:
        pool.shutdown(cancel_futures=True)
        _task = None


def member_bank(config):
    """The eight per-noise dense members backing a fusion network."""
    directory = config["members"]
    if directory is None:
        raise CliError("fusion requires --members, a directory holding the "
                       "8 trained dense checkpoints (one per standard noise)")
    paths = [os.path.join(directory, f"dense_{_safe(s.text())}.bin")
             for s in STANDARD_NOISES]
    missing = [p for p in paths if not os.path.isfile(p)]
    if missing:
        raise CliError("missing member checkpoints:\n  " + "\n  ".join(missing))
    members = []
    for path in paths:
        kind, net = load_net(path)
        if kind != "dense":
            raise CliError(f"{path}: fusion members must be dense checkpoints")
        members.append(net)
    return members


def _train_fusion(config, data, written):
    members = member_bank(config)
    cfg = resolved_train_config(config, None)
    net = fusion_train(cfg, members, data,
                       noises=[s.text() for s in STANDARD_NOISES])
    path = os.path.join(config["outdir"], "fusion.bin")
    os.makedirs(config["outdir"], exist_ok=True)
    net.save(path)
    written.append(path)
    return net


def cmd_train(config):
    data = load_dataset(config, "train")
    written = []
    stamp = f"{config_hash(config)},{config['seed']}"
    log = ["net,noise,epoch,rmse,config,seed"]
    if config["net"] == "fusion":
        net = _train_fusion(config, data, written)
        for epoch, rmse in enumerate(net.rmse_log, 1):
            log.append(f"fusion,,{epoch},{rmse:.8g},{stamp}")
    else:
        specs = parse_noises(config)
        if not specs or any(s is None for s in specs):
            raise CliError("train requires at least one real noise spec")
        texts = [spec.text() for spec in specs]
        cfgs = [resolved_train_config(config, text) for text in texts]
        os.makedirs(config["outdir"], exist_ok=True)
        logs = _fork_map(
            lambda cfg: _train_member(config, cfg, data), cfgs,
            lambda cfg: f"training {config['net']} {cfg.train_noise.text()}")
        for text, rmse_log in zip(texts, logs):
            written.append(_member_path(config, text))
            for epoch, rmse in enumerate(rmse_log, 1):
                log.append(f"{config['net']},{text},{epoch},"
                           f"{rmse:.8g},{stamp}")
    _write(os.path.join(config["outdir"], "train_log.csv"),
           "\n".join(log) + "\n", written)
    return written


def _eval_pipelines(config):
    """(method label, callable stack -> stack) pairs selected by config."""
    pipelines = []
    if config["checkpoint"] is not None:
        kind, net = load_net(config["checkpoint"])
        pipelines.append((kind, net.forward_stack))
    for text in config["filters"]:
        try:
            spec = baselines.parse_filter(text)
        except ValueError as e:
            raise CliError(str(e))
        pipelines.append((spec.text(),
                          lambda stack, s=spec: baselines.filter_stack(stack, s)))
    return pipelines


def cmd_eval(config):
    data = load_dataset(config, "test").subset(config["eval_limit"])
    pipelines = _eval_pipelines(config)
    written, rows = [], []
    dump_root = os.path.join(config["outdir"], "images")
    for spec in parse_noises(config):
        # Noisy rows score the corruption exactly as the noise operator
        # emits it; analog pipelines clamp at their own input stage.
        if spec is None:
            noisy, text = data.images.copy(), "none"
        else:
            noisy = corrupt_dataset(data.images, spec, config["seed"])
            text = spec.text()
        rows.append(metrics.evaluate_pairs(data.images, noisy, text, "noisy"))
        outputs = [("noisy", noisy)]
        for method, forward in pipelines:
            denoised = forward(noisy)
            rows.append(metrics.evaluate_pairs(data.images, denoised, text,
                                               method))
            outputs.append((method, denoised))
        for i in range(min(config["dump"], len(data.images))):
            base = os.path.join(dump_root, _safe(text))
            os.makedirs(base, exist_ok=True)
            for name, stack in [("clean", data.images)] + outputs:
                path = os.path.join(base, f"{_safe(name)}_{i}.pgm")
                write_image(stack[i], path)
                written.append(path)
    stamp = f"{config_hash(config)},{config['seed']}"
    _write(os.path.join(config["outdir"], "eval.csv"),
           _quality_csv(rows, stamp), written)
    if config["json"]:
        _write(os.path.join(config["outdir"], "eval.json"),
               _rows_json(config, [json.loads(r.to_json()) for r in rows]),
               written)
    return written


def _sweep_variant(net, param, value, seed):
    """net at one sweep point, built from net and seed alone."""
    if param == "levels":
        return net.reprogram(DeviceModel(levels=value), seed=seed)
    if param == "sigma":
        return net.reprogram(DeviceModel(variation_sigma=value), seed=seed)
    if param == "dropout":
        return net.with_sparsity(value, 0.0, seed=seed)
    if param == "prune":
        return net.with_sparsity(0.0, value, seed=seed)
    return net


def cmd_sweep(config):
    if config["checkpoint"] is None:
        raise CliError("sweep requires --checkpoint (a dense net)")
    kind, net = load_net(config["checkpoint"])
    if kind != "dense":
        raise CliError("sweep operates on dense checkpoints")
    specs = [s for s in parse_noises(config) if s is not None]
    if not specs:
        raise CliError("sweep requires a real noise spec")
    data = load_dataset(config, "test").subset(config["eval_limit"])
    noisy = [(spec.text(), np.clip(
        corrupt_dataset(data.images, spec, config["seed"]), 0.0, 1.0))
        for spec in specs]
    points = [("ideal", "")] + [(p, v) for p in ("levels", "sigma", "dropout",
                                                 "prune")
                                for v in config["sweep"][p]]

    def score(point):
        # Each task programs its own variant and scores it on every noise.
        variant = _sweep_variant(net, *point, config["seed"])
        return [metrics.evaluate_pairs(data.images, variant.forward_stack(stack),
                                       text, "dense") for text, stack in noisy]

    reports = _fork_map(score, points,
                        lambda point: f"sweep {point[0]} {point[1]}".rstrip())
    stamp = f"{config_hash(config)},{config['seed']}"
    lines = ["param,value," + metrics.CSV_HEADER + ",config,seed"]
    rows = []
    for per_noise in zip(*reports):  # rows are emitted noise-major
        for (param, value), report in zip(points, per_noise):
            rows.append({"param": param, "value": value,
                         "row": json.loads(report.to_json())})
            lines.append(f"{param},{value},{report.csv_row()},{stamp}")
    written = []
    _write(os.path.join(config["outdir"], "sweep.csv"),
           "\n".join(lines) + "\n", written)
    if config["json"]:
        _write(os.path.join(config["outdir"], "sweep.json"),
               _rows_json(config, rows), written)
    return written


def cmd_cost(config):
    budget = None
    if config["budget"] is not None:
        try:
            with open(config["budget"]) as f:
                overrides = json.load(f)
            budget = hwcost.ComponentBudget.from_mapping(overrides)
        except (OSError, json.JSONDecodeError, TypeError, ValueError) as e:
            raise CliError(f"bad budget file: {e}")
    if config["net"] == "dense":
        point = hwcost.DesignPoint.for_dense(
            mode=config["mode"], phase=config["phase"])
    elif config["net"] == "cnn":
        point = hwcost.DesignPoint.for_cnn(
            mode=config["mode"], phase=config["phase"])
    else:
        raise CliError("cost covers dense and cnn design points")
    try:
        if config["phase"] == "training":
            report = hwcost.estimate_training(point, budget)
        else:
            report = hwcost.estimate(point, budget)
    except (ValueError, hwcost.FabricExceededError) as e:
        raise CliError(str(e))
    print(hwcost.format_report_table([report]))
    written = []
    if config["json"]:
        rows = json.loads(hwcost.reports_to_json([report]))
        _write(os.path.join(config["outdir"], "cost.json"),
               _rows_json(config, rows), written)
    return written


def cmd_classify(config):
    train_split = None
    if config["classifier"] is not None:
        clf = _read_checkpoint(Classifier.load, config["classifier"])
    else:
        train_split = load_dataset(config, "train")
        clf = train_classifier(
            train_split, TrainConfig(train_noise=None, learning_rate=0.1,
                                     epochs=5, batch=64, seed=config["seed"]))
    data = load_dataset(config, "test").subset(config["eval_limit"])
    denoiser = None
    if config["checkpoint"] is not None:
        _, denoiser = load_net(config["checkpoint"])
    rows = [evaluate(clf, data)]
    for spec in parse_noises(config):
        if spec is None:
            continue
        rows.append(evaluate(clf, data, noise=spec, seed=config["seed"]))
        if denoiser is not None:
            rows.append(evaluate(clf, data, denoiser=denoiser, noise=spec,
                                 seed=config["seed"]))
    stamp = f"{config_hash(config)},{config['seed']}"
    lines = [ACCURACY_CSV_HEADER + ",config,seed"]
    lines += [row.csv_row() + "," + stamp for row in rows]
    written = []
    os.makedirs(config["outdir"], exist_ok=True)
    if config["classifier"] is None:
        path = os.path.join(config["outdir"], "classifier.bin")
        clf.save(path)
        written.append(path)
    _write(os.path.join(config["outdir"], "classify.csv"),
           "\n".join(lines) + "\n", written)
    if config["json"]:
        _write(os.path.join(config["outdir"], "classify.json"),
               _rows_json(config, [row.to_json() for row in rows]), written)
    return written


def cmd_fuse(config):
    return cmd_train(dict(config, net="fusion"))


_COMMANDS = {"train": cmd_train, "eval": cmd_eval, "sweep": cmd_sweep,
             "cost": cmd_cost, "classify": cmd_classify, "fuse": cmd_fuse}


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument("--data", help="dataset root (default $MEMDENOISE_DATA)")
    common.add_argument("--dataset", choices=["mnist", "cifar10"])
    common.add_argument("--noise", action="append",
                        help="corruption spec, repeatable (e.g. gaussian:0.1)")
    common.add_argument("--seed", type=int)
    common.add_argument("--outdir")
    common.add_argument("--eval-limit", dest="eval_limit", type=int)
    common.add_argument("--json", dest="emit_json", action="store_true",
                        help="emit JSON reports next to CSV")
    common.add_argument("--levels", help="device levels, integer or 'ideal'")
    common.add_argument("--sigma", type=float, help="device variation sigma")

    trainish = argparse.ArgumentParser(add_help=False)
    trainish.add_argument("--lr", type=float)
    trainish.add_argument("--epochs", type=int)
    trainish.add_argument("--batch", type=int)
    trainish.add_argument("--limit", type=int)
    trainish.add_argument("--init", choices=["zero", "identity"])
    trainish.add_argument("--clean-fraction", dest="clean_fraction", type=float)
    trainish.add_argument("--device-in-loop", dest="device_in_loop",
                          action="store_true")
    trainish.add_argument("--members",
                          help="directory of the 8 dense member checkpoints")

    parser = argparse.ArgumentParser(
        prog="memdenoise",
        description="Crossbar denoising experiments: training, evaluation, "
                    "non-ideality sweeps, hardware cost, classification.")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("train", parents=[common, trainish],
                       help="train a network per noise, write checkpoints")
    p.add_argument("--net", choices=["dense", "cnn", "fusion"])
    p = sub.add_parser("eval", parents=[common],
                       help="quality reports for noisy/denoised/baselines")
    p.add_argument("--checkpoint", help="denoiser checkpoint to score")
    p.add_argument("--filter", action="append",
                   help="baseline filter spec, repeatable (e.g. median:3)")
    p.add_argument("--dump", type=int, help="PGM dumps per condition")
    p = sub.add_parser("sweep", parents=[common],
                       help="non-ideality grids on a dense checkpoint")
    p.add_argument("--checkpoint")
    p.add_argument("--levels-grid", dest="levels_grid",
                   help="comma list, e.g. 256,128,64,16,2")
    p.add_argument("--sigma-grid", dest="sigma_grid")
    p.add_argument("--dropout-grid", dest="dropout_grid")
    p.add_argument("--prune-grid", dest="prune_grid")
    p = sub.add_parser("cost", parents=[common],
                       help="hardware cost table for a design point")
    p.add_argument("--net", choices=["dense", "cnn"])
    p.add_argument("--mode", choices=["sequential", "parallel"])
    p.add_argument("--phase", choices=["inference", "training"])
    p.add_argument("--budget", help="JSON file of cost-constant overrides")
    p = sub.add_parser("classify", parents=[common],
                       help="accuracy for clean/noisy/denoised inputs")
    p.add_argument("--checkpoint", help="denoiser applied before classifying")
    p.add_argument("--classifier", help="classifier checkpoint to reuse")
    p = sub.add_parser("fuse", parents=[common, trainish],
                       help="train the fusion stage from member checkpoints")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = merge_config(args)
        written = _COMMANDS[args.command](config)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TrainingDivergence as e:
        print(f"diverged: {e}", file=sys.stderr)
        return 3
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
