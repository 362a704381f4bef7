"""The command-line option schema: flags per subcommand, defaults, pinned
config hashes, and a fuzz of the --config document.

The hashes below were recorded before the option table replaced the
per-flag argparse code; every report row carries this hash, so a change
to any of them changes what old reports claim to reproduce.
"""

import json
import os
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memdenoise.cli import (
    DEFAULT_CONFIG,
    CliError,
    build_parser,
    config_hash,
    main,
    merge_config,
    resolved_train_config,
)

COMMON = ["--config", "--seed", "--outdir"]
DATA = ["--data", "--dataset", "--noise"]
SCORED = DATA + ["--eval-limit", "--json", "--checkpoint"]
FLAGS = {
    "train": COMMON + DATA + ["--levels", "--sigma", "--lr", "--epochs",
                              "--batch", "--limit", "--init",
                              "--clean-fraction", "--device-in-loop",
                              "--members", "--net"],
    "eval": COMMON + SCORED + ["--filter", "--dump"],
    "sweep": COMMON + SCORED + ["--levels-grid", "--sigma-grid",
                                "--dropout-grid", "--prune-grid"],
    "cost": COMMON + ["--json", "--net", "--mode", "--phase", "--budget"],
    "classify": COMMON + SCORED + ["--classifier"],
}
# Flags a command stopped offering because it ignored their keys. The
# keys still reach it through --config, so their hashes stay pinned.
DROPPED = {
    "train": ["--eval-limit", "--json"],
    "eval": ["--levels", "--sigma"],
    "sweep": ["--levels", "--sigma"],
    "cost": ["--data", "--dataset", "--noise", "--eval-limit", "--levels",
             "--sigma"],
    "classify": ["--levels", "--sigma"],
}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_help_lists_exactly_the_subcommand_flags(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    shown = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert shown == set(FLAGS[command]) | {"--help"}


def test_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert all(command in out for command in FLAGS)


def test_default_config_is_pinned():
    assert DEFAULT_CONFIG == {
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


# One argv per flag, each with a non-default value, after `<command>
# --seed 1` (the empty flag is the command alone), and the hash it gives.
# The configuration holds no command name, so one hash serves every
# subcommand that takes the flag, and every one that takes its key from
# a --config document (DROPPED).
PINNED = {
    "": ("", "b47998846845"),
    "--data": ("/elsewhere", "b47998846845"),
    "--dataset": ("cifar10", "1cd61eb4628e"),
    "--noise": ("sp:0.25 --noise poisson:4", "d12dfb52a570"),
    "--seed": ("2", "b692adb274ef"),
    "--outdir": ("elsewhere", "b47998846845"),
    "--eval-limit": ("7", "3f0ba093d726"),
    "--json": ("", "b47998846845"),
    "--levels": ("16", "3645810ac5b2"),
    "--sigma": ("0.05", "deae07481bb4"),
    "--lr": ("0.5", "35f1ef85ded7"),
    "--epochs": ("2", "55a19e24b3a1"),
    "--batch": ("16", "292652402b34"),
    "--limit": ("100", "1f762cc87a97"),
    "--init": ("identity", "7c2e02856ac4"),
    "--clean-fraction": ("0.25", "d07bec5fd59e"),
    "--device-in-loop": ("", "82597d98e2c1"),
    "--members": ("bank", "4869821653ac"),
    "--net": ("cnn", "a3ec9090c1e2"),
    "--checkpoint": ("net.bin", "c4a8c0eab2ce"),
    "--filter": ("median:3 --filter tv:0.1", "6eba42c2692d"),
    "--dump": ("2", "b47998846845"),
    "--levels-grid": ("16,ideal,2", "204fbee98148"),
    "--sigma-grid": ("0.1,0.2", "b71f5b204051"),
    "--dropout-grid": ("0.1", "13cd3ebebda1"),
    "--prune-grid": ("0.2,0.4", "8903165fec06"),
    "--mode": ("parallel", "942539f07984"),
    "--phase": ("training", "9a59fbb7724e"),
    "--budget": ("budget.json", "24db50d6de61"),
    "--classifier": ("clf.bin", "6513c914cc77"),
}

CASES = [(command, flag) for command, flags in FLAGS.items()
         for flag in [""] + flags + DROPPED[command] if flag != "--config"]


def _flag_config(command, flag):
    value, _ = PINNED[flag]
    argv = [command, "--seed", "1"] + f"{flag} {value}".split()
    return merge_config(build_parser().parse_args(argv))


@pytest.mark.parametrize("command,flag", CASES,
                         ids=[c + f for c, f in CASES])
def test_config_hash_is_pinned(command, flag, tmp_path):
    if flag in DROPPED[command]:
        # The configuration a command offering the flag makes of it,
        # given to this command as a --config document.
        donor = next(c for c, flags in FLAGS.items() if flag in flags)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(_flag_config(donor, flag)))
        config = merge_config(build_parser().parse_args(
            [command, "--config", str(path)]))
    else:
        config = _flag_config(command, flag)
    assert config_hash(config) == PINNED[flag][1]


DROPPED_CASES = [(c, f) for c, flags in DROPPED.items() for f in flags]


@pytest.mark.parametrize("command,flag", DROPPED_CASES,
                         ids=[c + f for c, f in DROPPED_CASES])
def test_dropped_flags_are_refused(command, flag, capsys):
    value, _ = PINNED[flag]
    with pytest.raises(SystemExit) as info:
        main([command, "--seed", "1"] + f"{flag} {value}".split())
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_config_file_hash_is_pinned(tmp_path):
    # dropout/prune are read by no command, but they are part of the hash.
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "seed": 4, "dropout": 0.25, "prune": 0.5, "net": "fusion",
        "device": {"levels": 64}, "train": {"epochs": 3, "limit": 50},
        "sweep": {"levels": [4, None]}, "noises": ["speckle:0.2"]}))
    config = merge_config(build_parser().parse_args(["train", "--config",
                                                     str(path)]))
    assert config_hash(config) == "f28afc1d41cd"


# JSON values of every type, weighted towards the ones the commands use.
LEAVES = (st.none() | st.booleans() | st.integers(-3, 20) | st.integers()
          | st.floats() | st.text(max_size=6)
          | st.sampled_from(["gaussian:0.1", "ideal", "dense", "cnn", "fusion",
                             "zero", "identity", "4", "median:3"]))
VALUES = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(st.text(max_size=4), inner,
                                        max_size=3), max_leaves=6)


def _section(default):
    if not isinstance(default, dict):
        return VALUES
    return st.dictionaries(st.sampled_from(sorted(default)), VALUES) | VALUES


DOCUMENTS = st.fixed_dictionaries(
    {}, optional={key: _section(default)
                  for key, default in DEFAULT_CONFIG.items()}).map(
    lambda doc: doc if "seed" in doc else {**doc, "seed": 1})


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


@settings(max_examples=150, deadline=None)
@given(document=DOCUMENTS)
@example(document={"seed": 1, "eval_limit": "abc"})
@example(document={"seed": 1, "eval_limit": 0})
@example(document={"seed": 1, "eval_limit": -3})
@example(document={"seed": 1, "dump": "x"})
@example(document={"seed": 1, "filters": 3})
@example(document={"seed": 1, "train": {"epochs": "4"}})
@example(document={"seed": 1, "train": {"limit": 0}})
@example(document={"seed": 1, "train": {"limit": -2}})
@example(document={"seed": 1, "net": ["dense"], "sweep": {"levels": 3}})
def test_config_documents_resolve_or_raise_cli_error(config_path, document):
    config_path.write_text(json.dumps(document))
    args = build_parser().parse_args(["train", "--config", str(config_path)])
    try:
        config = merge_config(args)
        for noise_text in (None, "gaussian:0.01", "sp:0.1"):
            resolved_train_config(config, noise_text)
    except CliError:
        pass


# --config values of a type no flag gives, each with the command that
# reads the key: every one exits 2 with one error line naming the key.
MISTYPED = [
    ("eval", {"outdir": 3}, "outdir"),
    ("eval", {"dataset": [1]}, "dataset"),
    ("train", {"members": 3, "net": "fusion"}, "members"),
    ("eval", {"checkpoint": 3}, "checkpoint"),
    ("classify", {"classifier": 5}, "classifier"),
    ("cost", {"budget": 7}, "budget"),
    ("eval", {"json": "no"}, "json"),
    ("train", {"train": {"device_in_loop": "no"}}, "train.device_in_loop"),
    ("cost", {"net": None}, "net"),
    ("eval", {"outdir": None}, "outdir"),
]


@pytest.mark.parametrize("command,document,key", MISTYPED,
                         ids=[json.dumps(d) for _, d, _ in MISTYPED])
def test_mistyped_config_values_exit_two(tmp_path, monkeypatch, capsys,
                                         command, document, key):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 1, **document}))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["c.json"]


# A key a net's trainer never reads, set off its default: train refuses it
# before reading any data.
UNREAD = [
    ("cnn", ["--init", "identity"], "train.init"),
    ("cnn", ["--clean-fraction", "0.9"], "train.clean_fraction"),
    ("cnn", ["--device-in-loop"], "train.device_in_loop"),
    ("cnn", ["--members", "bank"], "members"),
    ("dense", ["--clean-fraction", "0.9"], "train.clean_fraction"),
    ("dense", ["--members", "bank"], "members"),
    ("fusion", ["--noise", "sp:0.1"], "noises"),
]


@pytest.mark.parametrize("net,argv,key", UNREAD,
                         ids=[f"{n}-{k}" for n, _, k in UNREAD])
def test_train_refuses_keys_its_net_never_reads(tmp_path, monkeypatch,
                                                capsys, net, argv, key):
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--seed", "1", "--net", net, *argv]) == 2
    assert capsys.readouterr().err == \
        f"error: {key} is not read when training {net}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("net,argv", [
    ("cnn", ["--init", "zero", "--clean-fraction", "0.5"]),
    ("dense", ["--init", "identity", "--device-in-loop"]),
    ("fusion", ["--noise", "gaussian:0.1", "--clean-fraction", "0.9"]),
])
def test_train_accepts_defaults_and_keys_its_net_reads(monkeypatch, capsys,
                                                       net, argv):
    # The run gets past the key check and stops at the missing dataset.
    monkeypatch.delenv("MEMDENOISE_DATA", raising=False)
    assert main(["train", "--seed", "1", "--net", net, *argv]) == 2
    assert capsys.readouterr().err == \
        "error: no dataset path: set --data or MEMDENOISE_DATA\n"
