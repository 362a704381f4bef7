"""Experiment driver: configuration, subcommands, and report emission.

_COMMANDS maps each subcommand (train, eval, sweep, cost, classify) to
its function and help line.  Exit codes: 0 success, 2 validation,
write or worker-process error, 3 training divergence.  train's nets,
sweep's variants and eval's (noise, image slice) tasks run in one fork
pool (procs.fork_map), in which this process works the front of the
list and forked workers the back.

The configuration is DEFAULT_CONFIG, overlaid by a JSON document
(--config), overlaid by command-line flags.  OPTIONS lists every key
with its default, the flag that sets it and its readers; `seed` is
required, and a key off its default that the command does not read is
refused.  Null training fields resolve to the per-network defaults
recorded in TRAIN_RECIPES.  Every emitted report row carries the hash
of the effective configuration and the seed, and a re-run with the same
configuration reproduces every output file byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import hashlib
import json
import operator
import os
import sys

import numpy as np

from . import baselines, ckpt, hwcost, metrics, procs
from .classify import ACCURACY_CSV_HEADER, Classifier, evaluate, train_classifier
from .device import DeviceModel
from .imagecore import (DatasetError, ImageShapeError, check_count,
                        image_suffix, load_cifar10, load_mnist, plane_chunks,
                        write_image)
from .nets.cnn import CnnDenoiser, cnn_train
from .nets.common import TrainConfig, TrainingDivergence
from .nets.dense import DenseDenoiser, dense_train
from .nets.fusion import FusionDenoiser, fusion_train
from .noise import STANDARD_NOISES, corrupt_dataset, parse_spec


class CliError(ValueError):
    """Configuration or input problem; maps to exit code 2."""


@contextlib.contextmanager
def _naming(key):
    """Turn a TypeError or ValueError raised while using config[key] into
    a CliError naming key."""
    try:
        yield
    except (TypeError, ValueError) as e:
        raise CliError(f"{key}: {e}") from None


def _levels(text):
    """A --levels value: None for 'ideal', else an int, else a float (a
    non-integer count, which DeviceModel then rejects by name)."""
    if text == "ideal":
        return None
    try:
        return int(text)
    except ValueError:
        return float(text)


_levels.__name__ = "levels"  # argparse names a type in its error messages


def _grid(convert):
    """argparse type of a comma list of convert(item) values."""
    def grid(text):
        return [convert(item) for item in text.split(",")]
    grid.__name__ = f"{convert.__name__} list"
    return grid


_FLOATS = _grid(float)
# What a number-typed flag gives; a JSON boolean is none of them, though
# int() and float() would read it as 0 or 1.
_NUMBERS = {int: "an integer", float: "a number",
            _FLOATS: "a list of numbers"}

_ALL = ("train", "eval", "sweep", "cost", "classify")
_DATA = ("train", "eval", "sweep", "classify")  # the commands reading images
_SCORED = ("eval", "sweep", "classify")

# One row per configuration key: its path (dotted inside a section), its
# default, the flag that sets it with that flag's argparse keywords, and
# its readers. A reader is a subcommand, or train:<net> when only that
# net's trainer reads the key; a subcommand offers the flags it reads.
OPTIONS = [
    ("dataset", "mnist", "--dataset", {"choices": ["mnist", "cifar10"]}, _DATA),
    ("data_path", None, "--data",
     {"help": "dataset root (default $MEMDENOISE_DATA)"}, _DATA),
    ("noises", ["gaussian:0.1"], "--noise",
     {"action": "append",
      "help": "corruption spec, repeatable (e.g. gaussian:0.1)"},
     ("train:dense", "train:cnn") + _SCORED),
    ("net", "dense", "--net", {"choices": ["dense", "cnn", "fusion"]},
     ("train", "cost")),
    ("device.levels", None, "--levels",
     {"type": _levels, "help": "device levels, integer or 'ideal'"},
     ("train",)),
    ("device.variation_sigma", 0.0, "--sigma", {"type": float}, ("train",)),
    # Input-row and device-pair masking fractions. No flag sets them and
    # no command reads them (sweep has its own grids), so every command
    # refuses them off their defaults; but every report's config hash
    # covers them, so dropping them would change all hashes.
    ("dropout", 0.0, None, {}, ()),
    ("prune", 0.0, None, {}, ()),
    ("train.learning_rate", None, "--lr", {"type": float}, ("train",)),
    ("train.epochs", None, "--epochs", {"type": int}, ("train",)),
    ("train.batch", None, "--batch", {"type": int}, ("train",)),
    ("train.limit", None, "--limit", {"type": int}, ("train",)),
    ("train.init", "zero", "--init", {"choices": ["zero", "identity"]},
     ("train:dense", "train:fusion")),
    ("train.clean_fraction", 0.5, "--clean-fraction", {"type": float},
     ("train:fusion",)),
    ("train.device_in_loop", False, "--device-in-loop",
     {"action": "store_true"}, ("train:dense", "train:fusion")),
    ("eval_limit", 1000, "--eval-limit", {"type": int}, _SCORED),
    ("checkpoint", None, "--checkpoint", {}, _SCORED),
    ("filters", [], "--filter",
     {"action": "append",
      "help": "baseline filter spec, repeatable (e.g. median:3)"}, ("eval",)),
    ("members", None, "--members",
     {"help": "directory of the 8 dense member checkpoints"},
     ("train:fusion",)),
    ("classifier", None, "--classifier",
     {"help": "classifier checkpoint to reuse"}, ("classify",)),
    ("mode", "sequential", "--mode",
     {"choices": ["sequential", "parallel"]}, ("cost",)),
    ("phase", "inference", "--phase",
     {"choices": ["inference", "training"]}, ("cost",)),
    ("budget", None, "--budget",
     {"help": "JSON file of cost-constant overrides"}, ("cost",)),
    ("sweep.levels", [], "--levels-grid",
     {"type": _grid(_levels), "help": "comma list, e.g. 256,128,64,16,2"},
     ("sweep",)),
    ("sweep.sigma", [], "--sigma-grid", {"type": _FLOATS}, ("sweep",)),
    ("sweep.dropout", [], "--dropout-grid", {"type": _FLOATS}, ("sweep",)),
    ("sweep.prune", [], "--prune-grid", {"type": _FLOATS}, ("sweep",)),
    ("seed", None, "--seed", {"type": int, "help": "required"}, _ALL),
    ("outdir", "out", "--outdir", {}, _ALL),
    ("json", False, "--json",
     {"action": "store_true", "help": "emit JSON reports next to CSV"},
     ("eval", "sweep", "cost", "classify")),
    ("dump", 0, "--dump", {"type": int, "help": "PGM dumps per condition"},
     ("eval",)),
]


def _set(config, path, value):
    """config[section][key] = value for 'section.key', else config[path]."""
    *sections, key = path.split(".")
    for name in sections:
        config = config.setdefault(name, {})
    config[key] = value


DEFAULT_CONFIG = {}
for _option in OPTIONS:
    _set(DEFAULT_CONFIG, *_option[:2])

# Training settings that reproduce the reported quality numbers when a
# field is left null.  Dense learning rate is per noise: the lightest
# Gaussian setting trains stably at twice the shared rate.
TRAIN_RECIPES = {
    "dense": {"learning_rate": 0.01, "epochs": 4, "batch": 64, "limit": 20000},
    "cnn": {"learning_rate": 0.1, "epochs": 4, "batch": 8, "limit": 10000},
    "fusion": {"learning_rate": 0.05, "epochs": 3, "batch": 8, "limit": 10000},
}
DENSE_RATE_OVERRIDES = {"gaussian:0.01": 0.02}
# The classifier behind `classify`: >= 0.95 clean accuracy on MNIST.
CLASSIFIER_RECIPE = {"learning_rate": 0.1, "epochs": 5, "batch": 64}


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
    for path, value in vars(args).items():  # the flags given: build_parser
        if path not in ("command", "config"):
            _set(config, path, value)
    _check_types(config)
    _check_read(config, args.command)
    if config["data_path"] is None:
        config["data_path"] = os.environ.get("MEMDENOISE_DATA")
    seed = config["seed"]
    if seed is None:
        raise CliError("seed is required (--seed or config key 'seed')")
    try:
        config["seed"] = int(seed)  # "12" and 3.0 too, but not 1.5
        if isinstance(seed, float) and seed != config["seed"]:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise CliError(f"seed must be an integer, got {seed!r}")
    _check_values(config)
    return config


def _get(config, path):
    return functools.reduce(operator.getitem, path.split("."), config)


def _check_types(config):
    """Reject a value its OPTIONS row's flag could not give: a choice not
    listed, a non-boolean switch, a boolean for a number flag or in a
    number grid, a non-list or non-string item for a repeatable flag, or
    a non-string for a string flag (null is allowed where the default is
    null)."""
    for path, default, flag, kwargs, _ in OPTIONS:
        value, choices = _get(config, path), kwargs.get("choices")
        if choices:
            ok, rule = value in choices, "one of " + ", ".join(choices)
        elif kwargs.get("action") == "store_true":
            ok, rule = type(value) is bool, "true or false"
        elif kwargs.get("type") in _NUMBERS:
            items = value if isinstance(value, list) else [value]
            ok = not any(isinstance(item, bool) for item in items)
            rule = _NUMBERS[kwargs["type"]]
        elif kwargs.get("action") == "append":
            ok = isinstance(value, list) and all(type(v) is str for v in value)
            rule = "a list of strings"
        elif flag and not {"type", "action"} & set(kwargs):
            ok = isinstance(value, str) or (value is None and default is None)
            rule = "a string" + " or null" * (default is None)
        else:
            continue
        if not ok:
            raise CliError(f"{path} must be {rule}, got {value!r}")


def _check_read(config, command):
    """Refuse a key set off its default that command does not read (for
    train, that config["net"]'s trainer does not read)."""
    net = config["net"]
    where = f"when training {net}" if command == "train" else f"by {command}"
    for path, default, _, _, readers in OPTIONS:
        if (_get(config, path) != default and command not in readers
                and f"{command}:{net}" not in readers):
            raise CliError(f"{path} is not read {where}")


def _check_values(config):
    """Reject, before any file is read, values no reader accepts: noise
    and filter specs, an eval_limit below 1, a negative dump, device
    settings no DeviceModel accepts (NaN, inf, 2.5 levels) and sweep
    grids that are not lists of them or of fractions in [0, 1)."""
    parse_noises(config)
    with _naming("filters"):
        for text in config["filters"]:
            baselines.parse_filter(text)
    with _naming("eval_limit"):
        check_count(config["eval_limit"])
    with _naming("dump"):
        if operator.index(config["dump"]) < 0:
            raise ValueError(f"must be at least 0, got {config['dump']}")
    with _naming("device"):
        DeviceModel(**config["device"])
    grids = config["sweep"]
    with _naming("sweep"):
        for name, grid in grids.items():
            if not isinstance(grid, list):
                raise ValueError(f"{name} must be a list, got {grid!r}")
        for levels in grids["levels"]:
            DeviceModel(levels=levels)
        for sigma in grids["sigma"]:
            DeviceModel(variation_sigma=sigma)
        if not all(0 <= f < 1 for f in [*grids["dropout"], *grids["prune"]]):
            raise ValueError("dropout/prune fractions must lie in [0, 1)")


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
    loader = {"mnist": load_mnist, "cifar10": load_cifar10}[config["dataset"]]
    try:
        return loader(path, split)
    except DatasetError as e:
        raise CliError(f"cannot load {config['dataset']} {split}: {e}")


def _test_split(config):
    """The first eval_limit images of the test split."""
    return load_dataset(config, "test").subset(config["eval_limit"])


def parse_noises(config):
    with _naming("noises"):
        return [None if text == "none" else parse_spec(text)
                for text in config["noises"]]


_NET_KINDS = {"dense": DenseDenoiser.from_state,
              "cnn": CnnDenoiser.from_state,
              "fusion": FusionDenoiser.from_state}


def load_net(path, kinds=_NET_KINDS):
    """(kind, object) of the checkpoint at path, dispatching on its kind
    (any denoiser's by default); I/O and format faults as CliErrors
    naming path once."""
    try:
        return ckpt.load(path, kinds)
    except OSError as e:
        raise CliError(f"cannot read checkpoint: {e}")
    except ValueError as e:
        raise CliError(str(e))


def resolved_train_config(config, noise_text="") -> TrainConfig:
    """The net's recipe, the dense rate override for noise_text (the
    net's training noise, "" for fusion), then the non-null
    config["train"] values."""
    recipe = dict(TRAIN_RECIPES[config["net"]])
    if config["net"] == "dense" and noise_text in DENSE_RATE_OVERRIDES:
        recipe["learning_rate"] = DENSE_RATE_OVERRIDES[noise_text]
    recipe.update((k, v) for k, v in config["train"].items() if v is not None)
    with _naming("train"):
        return TrainConfig(
            train_noise=parse_spec(noise_text) if noise_text else None,
            seed=config["seed"], device=DeviceModel(**config["device"]),
            **recipe)


def _safe(noise_text):
    return noise_text.replace(":", "_")


def _write(path, text, written):
    """Write a report whole or not at all (ckpt.replacing)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with ckpt.replacing(path, "w") as f:
        f.write(text)
    written.append(path)


def _rows_json(config, rows):
    return json.dumps({"config": config_hash(config), "seed": config["seed"],
                       "rows": rows}, indent=2) + "\n"


def _emit(config, name, header, lines, json_rows, written):
    """<outdir>/<name>.csv: header and lines, each stamped with the config
    hash and seed; with --json, <name>.json of json_rows (unless None)."""
    stamp = f"{config_hash(config)},{config['seed']}"
    text = "".join(f"{line},{stamp}\n" for line in lines)
    _write(os.path.join(config["outdir"], name + ".csv"),
           f"{header},config,seed\n{text}", written)
    if config["json"] and json_rows is not None:
        _write(os.path.join(config["outdir"], name + ".json"),
               _rows_json(config, json_rows), written)


def _net_path(config, noise_text):
    """Where train saves the net trained on noise_text ("" for fusion)."""
    name = f"{config['net']}_{_safe(noise_text)}" if noise_text else "fusion"
    return os.path.join(config["outdir"], name + ".bin")


def _train_net(config, noise_text, cfg, data):
    """Train the net named by noise_text under cfg and save it; its RMSE
    log. A fusion net reads its member bank here, after the dataset."""
    net = config["net"]
    name = f"{net} {noise_text}".rstrip()
    try:
        trained = (fusion_train(cfg, member_bank(config), data)
                   if net == "fusion" else dense_train(cfg, data)
                   if net == "dense" else cnn_train(cfg, data))
    except TrainingDivergence as e:
        raise TrainingDivergence(e.epoch, e.rmse, e.initial_rmse, e.rmse_log,
                                 member=name) from None
    except procs.WorkerError as e:  # fusion's read-ahead child failed
        raise CliError(f"training {name}: {e}") from None
    trained.save(_net_path(config, noise_text))
    return trained.rmse_log


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
    for spec, path in zip(STANDARD_NOISES, paths):
        kind, net = load_net(path)
        if kind != "dense":
            raise CliError(f"{path}: fusion members must be dense checkpoints")
        if net.train_noise != spec.text():
            raise CliError(f"{path}: member trained on {net.train_noise!r}, "
                           f"not {spec.text()}")
        members.append(net)
    return members


def cmd_train(config):
    # Each net is named by its training noise, fusion (which reads no
    # noises) by "". Every setting is checked before any file is read.
    net = config["net"]
    texts = [""]
    if net != "fusion":
        specs = parse_noises(config)
        if not specs or any(s is None for s in specs):
            raise CliError("train requires at least one real noise spec")
        texts = [spec.text() for spec in specs]
    items = [(text, resolved_train_config(config, text)) for text in texts]
    data = load_dataset(config, "train")
    os.makedirs(config["outdir"], exist_ok=True)
    logs = procs.fork_map(
        lambda item: _train_net(config, *item, data), items,
        lambda item: f"training {net} {item[0]}".rstrip())
    written, log = [], []
    for text, rmse_log in zip(texts, logs):
        written.append(_net_path(config, text))
        log += [f"{net},{text},{epoch},{rmse:.8g}"
                for epoch, rmse in enumerate(rmse_log, 1)]
    _emit(config, "train_log", "net,noise,epoch,rmse", log, None, written)
    return written


# Image-sized float64 arrays that size an eval slice: its noisy images,
# one pipeline's output and the SSIM working set (metrics). A task
# scores every pipeline's output of its slice in one call, so it holds
# one more such array per further pipeline.
_TASK_ARRAYS = 18


def cmd_eval(config):
    data = _test_split(config)
    # (method label, stack -> stack); noisy rows score the corruption
    # exactly as the noise operator emits it, and analog pipelines clamp
    # at their own input stage. A net's load builds its readout matrices,
    # so the pool's workers, forked later, share them.
    pipelines = [("noisy", lambda stack: stack)]
    if config["checkpoint"] is not None:
        kind, net = load_net(config["checkpoint"])
        pipelines.append((kind, net.forward_stack))
    for spec in map(baselines.parse_filter, config["filters"]):
        pipelines.append((spec.text(),
                          lambda stack, s=spec: baselines.filter_stack(stack, s)))
    noises = [("none" if spec is None else spec.text(), spec)
              for spec in parse_noises(config)]
    clean, dumps = data.floats(), min(config["dump"], len(data))
    slices = plane_chunks(len(clean), _TASK_ARRAYS * clean[0].size)

    def score(item):
        # One noise on one slice of images: corrupt the slice, then run
        # each pipeline on it. Only each image's scores and the dumped
        # images outlive the task.
        (_, spec), part = item
        noisy = (clean[part].copy() if spec is None else
                 corrupt_dataset(clean[part], spec, config["seed"], part.start))
        kept = max(0, dumps - part.start)
        outs = [forward(noisy) for _, forward in pipelines]
        return [(*scores, out[:kept].copy()) for scores, out in zip(
            metrics.image_scores(clean[part], *outs), outs)]

    items = [(noise, part) for noise in noises for part in slices]
    scored = procs.fork_map(score, items, lambda item: (
        f"eval {item[0][0]} images {item[1].start}-{item[1].stop - 1}"))
    written, rows = [], []
    dump_root = os.path.join(config["outdir"], "images")
    for j, (text, _) in enumerate(noises):
        outputs = [("clean", clean)]
        # per pipeline: its (ssims, mses, dumped) of every slice in order
        for (method, _), parts in zip(pipelines, zip(
                *scored[j * len(slices):(j + 1) * len(slices)])):
            ssims, mses, dumped = (np.concatenate(a) for a in zip(*parts))
            rows.append(metrics.QualityReport.from_scores(text, method, ssims,
                                                          mses))
            outputs.append((method, dumped))
        for i in range(dumps):
            base = os.path.join(dump_root, _safe(text))
            os.makedirs(base, exist_ok=True)
            for name, stack in outputs:
                path = os.path.join(base, _safe(name) + f"_{i}"
                                    + image_suffix(stack[i]))
                write_image(stack[i], path)
                written.append(path)
    _emit(config, "eval", metrics.CSV_HEADER, [r.csv_row() for r in rows],
          [r.to_json() for r in rows], written)
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
    specs = [s for s in parse_noises(config) if s is not None]
    if not specs:
        raise CliError("sweep requires a real noise spec")
    kind, net = load_net(config["checkpoint"])
    if kind != "dense":
        raise CliError("sweep operates on dense checkpoints")
    clean = _test_split(config).floats()
    # The dense variants clamp their input stacks.
    noisy = [(spec.text(), corrupt_dataset(clean, spec, config["seed"]))
             for spec in specs]
    grids = config["sweep"]  # levels, sigma, dropout, prune: OPTIONS order
    points = [("ideal", "")] + [(p, v) for p in grids for v in grids[p]]

    def label(value):  # levels None is 'ideal', as its flag spells it
        return "ideal" if value is None else value

    def score(point):
        # Each task programs its own variant and scores it on every noise.
        variant = _sweep_variant(net, *point, config["seed"])
        outs = [variant.forward_stack(stack) for _, stack in noisy]
        return [metrics.QualityReport.from_scores(text, "dense", *scores)
                for (text, _), scores in zip(
                    noisy, metrics.image_scores(clean, *outs))]

    reports = procs.fork_map(
        score, points, lambda p: f"sweep {p[0]} {label(p[1])}".rstrip())
    lines, rows, written = [], [], []
    for per_noise in zip(*reports):  # rows are emitted noise-major
        for (param, value), report in zip(points, per_noise):
            rows.append({"param": param, "value": value,
                         "row": report.to_json()})
            lines.append(f"{param},{label(value)},{report.csv_row()}")
    _emit(config, "sweep", "param,value," + metrics.CSV_HEADER, lines, rows,
          written)
    return written


COST_SHAPE = (28, 28)  # cost's plane shape: MNIST's, as in the abstract


def cost_point(net, mode, phase):
    """The cost command's design point: net's declared layers at COST_SHAPE."""
    nets = {"dense": DenseDenoiser, "cnn": CnnDenoiser}
    if net not in nets:
        raise CliError("cost covers dense and cnn design points")
    return hwcost.DesignPoint(net, mode, phase,
                              nets[net].crossbar_layers(COST_SHAPE))


def cmd_cost(config):
    budget = None
    if config["budget"] is not None:
        try:
            with open(config["budget"]) as f:
                overrides = json.load(f)
            budget = hwcost.ComponentBudget.from_mapping(overrides)
        except (OSError, json.JSONDecodeError, TypeError, ValueError) as e:
            raise CliError(f"bad budget file: {e}")
    point = cost_point(config["net"], config["mode"], config["phase"])
    try:
        report = hwcost.estimate(point, budget)
    except ValueError as e:
        raise CliError(str(e))
    print(hwcost.format_report_table([report]))
    written = []
    if config["json"]:  # no CSV: the table goes to stdout
        _write(os.path.join(config["outdir"], "cost.json"),
               _rows_json(config, [report.to_json()]), written)
    return written


def cmd_classify(config):
    if config["classifier"] is not None:
        _, clf = load_net(config["classifier"],
                          kinds={"classifier": Classifier.from_state})
    else:
        clf = train_classifier(load_dataset(config, "train"), TrainConfig(
            train_noise=None, seed=config["seed"], **CLASSIFIER_RECIPE))
    data = _test_split(config)
    denoiser = None
    if config["checkpoint"] is not None:
        _, denoiser = load_net(config["checkpoint"])
    rows = evaluate(clf, data)
    for spec in parse_noises(config):
        if spec is not None:
            rows += evaluate(clf, data, spec, config["seed"], denoiser)
    written = []
    if config["classifier"] is None:
        path = os.path.join(config["outdir"], "classifier.bin")
        os.makedirs(config["outdir"], exist_ok=True)
        clf.save(path)
        written.append(path)
    _emit(config, "classify", ACCURACY_CSV_HEADER, [r.csv_row() for r in rows],
          [r.to_json() for r in rows], written)
    return written


_COMMANDS = {
    "train": (cmd_train, "train a network per noise, write checkpoints"),
    "eval": (cmd_eval, "quality reports for noisy/denoised/baselines"),
    "sweep": (cmd_sweep, "non-ideality grids on a dense checkpoint"),
    "cost": (cmd_cost, "hardware cost table for a design point"),
    "classify": (cmd_classify, "accuracy for clean/noisy/denoised inputs"),
}


def build_parser():
    """One subparser per command, with the OPTIONS flags it takes.

    Each flag's dest is its config key path and an unset flag leaves no
    attribute, so merge_config sets exactly the flags given. Flags are
    never abbreviated: sweep's --levels is no prefix of --levels-grid.
    """
    parser = argparse.ArgumentParser(
        prog="memdenoise",
        description="Crossbar denoising experiments: training, evaluation, "
                    "non-ideality sweeps, hardware cost, classification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="JSON configuration file")
        for path, _, flag, kwargs, readers in OPTIONS:
            if command in {reader.split(":")[0] for reader in readers}:
                p.add_argument(flag, dest=path, default=argparse.SUPPRESS,
                               **kwargs)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = merge_config(args)
        written = _COMMANDS[args.command][0](config)
    except (CliError, ImageShapeError, procs.WorkerError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)  # OSError: a failed write
        return 2
    except TrainingDivergence as e:
        print(f"diverged: {e}", file=sys.stderr)
        return 3
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
