"""Command-line driver tests on a tiny synthetic IDX corpus.

Images are 8x8 (the smallest side the SSIM window accepts) so every
subcommand runs in well under a second.  Reproducibility claims are
checked at the byte level on the emitted files.
"""

import dataclasses
import errno
import io
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gzip
import hashlib

from conftest import (drop_arrays, quality_report, write_idx_images,
                      write_idx_labels)
from memdenoise import ckpt, classify, cli, procs
from memdenoise.cli import (
    DEFAULT_CONFIG,
    DENSE_RATE_OVERRIDES,
    TRAIN_RECIPES,
    CliError,
    build_parser,
    config_hash,
    load_dataset,
    load_net,
    main,
    merge_config,
    resolved_train_config,
)
from memdenoise import hwcost
from memdenoise.baselines import FilterSpec
from memdenoise.classify import Classifier
from memdenoise.device import DeviceModel
from memdenoise.metrics import CSV_HEADER
from memdenoise.nets import cnn
from memdenoise.nets.cnn import CnnDenoiser, cnn_train
from memdenoise.nets.common import TrainingDivergence
from memdenoise.nets.dense import DenseDenoiser, dense_train
from memdenoise.nets.fusion import FusionDenoiser, fusion_init
from memdenoise.noise import STANDARD_NOISES, corrupt_dataset, parse_spec


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("idx")
    rng = np.random.default_rng(0)
    write_idx_images(root / "train-images-idx3-ubyte",
                     rng.integers(0, 256, (48, 8, 8), dtype=np.uint8))
    write_idx_labels(root / "train-labels-idx1-ubyte",
                     (np.arange(48) % 10).astype(np.uint8))
    write_idx_images(root / "t10k-images-idx3-ubyte",
                     rng.integers(0, 256, (24, 8, 8), dtype=np.uint8))
    write_idx_labels(root / "t10k-labels-idx1-ubyte",
                     (np.arange(24) % 10).astype(np.uint8))
    return str(root)


# Events the tests share with forked pool workers.
FORK = multiprocessing.get_context("fork")

TRAIN_ARGS = ["--seed", "5", "--net", "dense", "--noise", "gaussian:0.1",
              "--lr", "0.05", "--epochs", "2", "--batch", "8", "--limit", "32"]


@pytest.fixture(scope="module")
def dense_ckpt(corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ckpt"))
    assert main(["train", "--data", corpus, "--outdir", out] + TRAIN_ARGS) == 0
    return os.path.join(out, "dense_gaussian_0.1.bin")


@pytest.fixture(scope="module")
def member_dir(corpus, tmp_path_factory):
    # One dense member per standard noise, each trained on its own noise.
    bank = str(tmp_path_factory.mktemp("members"))
    argv = ["train", "--data", corpus, "--outdir", bank, "--seed", "5",
            "--lr", "0.05", "--epochs", "1", "--batch", "8", "--limit", "16"]
    for spec in STANDARD_NOISES:
        argv += ["--noise", spec.text()]
    assert main(argv) == 0
    return bank


def parse_to_config(argv):
    return merge_config(build_parser().parse_args(argv))


class TestConfigMerging:
    def test_seed_is_required(self):
        with pytest.raises(CliError, match="seed"):
            parse_to_config(["cost"])

    def test_config_file_values_apply(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 9, "noises": ["sp:0.25"],
                                    "eval_limit": 7}))
        config = parse_to_config(["eval", "--config", str(path)])
        assert config["seed"] == 9
        assert config["noises"] == ["sp:0.25"]
        assert config["eval_limit"] == 7

    def test_flags_override_config_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 9, "eval_limit": 7}))
        config = parse_to_config(["eval", "--config", str(path),
                                  "--seed", "4", "--eval-limit", "3"])
        assert config["seed"] == 4
        assert config["eval_limit"] == 3

    def test_unknown_top_level_key_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 1, "sed": 2}))
        with pytest.raises(CliError, match="sed"):
            parse_to_config(["eval", "--config", str(path)])

    def test_unknown_nested_key_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 1, "train": {"lr": 0.1}}))
        with pytest.raises(CliError, match="'train'.*lr"):
            parse_to_config(["eval", "--config", str(path)])

    @pytest.mark.parametrize("seed,want", [("12", 12), (3.0, 3), (7, 7)])
    def test_integer_like_seeds_accepted(self, tmp_path, seed, want):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": seed}))
        assert parse_to_config(["cost", "--config", str(path)])["seed"] == want

    @pytest.mark.parametrize("seed", ["abc", [1], 1.5],
                             ids=["string", "list", "fraction"])
    def test_non_integer_seed_exits_two(self, tmp_path, capsys, seed):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": seed}))
        assert main(["cost", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: seed must be an integer, got {seed!r}\n"

    def test_nested_key_must_be_object(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 1, "train": 3}))
        with pytest.raises(CliError, match="object"):
            parse_to_config(["eval", "--config", str(path)])

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(CliError, match="JSON"):
            parse_to_config(["eval", "--config", str(path)])

    def test_non_object_root_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        with pytest.raises(CliError, match="object"):
            parse_to_config(["eval", "--config", str(path)])

    def test_levels_flag_parses_ideal(self):
        config = parse_to_config(["train", "--seed", "1", "--levels", "16"])
        assert config["device"]["levels"] == 16
        config = parse_to_config(["train", "--seed", "1", "--levels", "ideal"])
        assert config["device"]["levels"] is None

    def test_data_path_falls_back_to_environment(self, monkeypatch):
        monkeypatch.setenv("MEMDENOISE_DATA", "/somewhere/idx")
        config = parse_to_config(["eval", "--seed", "1"])
        assert config["data_path"] == "/somewhere/idx"

    def test_defaults_are_not_mutated(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 1, "train": {"learning_rate": 9.0}}))
        parse_to_config(["train", "--config", str(path)])
        assert DEFAULT_CONFIG["train"]["learning_rate"] is None


class TestConfigHash:
    def test_plumbing_keys_do_not_change_hash(self):
        base = parse_to_config(["eval", "--seed", "1"])
        for argv in (["eval", "--seed", "1", "--outdir", "elsewhere"],
                     ["eval", "--seed", "1", "--json"],
                     ["eval", "--seed", "1", "--data", "/other"]):
            assert config_hash(parse_to_config(argv)) == config_hash(base)

    def test_experiment_keys_change_hash(self):
        base = parse_to_config(["eval", "--seed", "1"])
        for argv in (["eval", "--seed", "2"],
                     ["eval", "--seed", "1", "--noise", "sp:0.5"],
                     ["train", "--seed", "1", "--levels", "16"]):
            assert config_hash(parse_to_config(argv)) != config_hash(base)

    def test_hash_is_stable_text(self):
        config = parse_to_config(["eval", "--seed", "1"])
        assert config_hash(config) == config_hash(dict(config))
        assert len(config_hash(config)) == 12


class TestTrainingRecipes:
    def test_published_recipe_constants(self):
        assert TRAIN_RECIPES["dense"] == {"learning_rate": 0.01, "epochs": 4,
                                          "batch": 64, "limit": 20000}
        assert TRAIN_RECIPES["cnn"] == {"learning_rate": 0.1, "epochs": 4,
                                        "batch": 8, "limit": 10000}
        assert TRAIN_RECIPES["fusion"] == {"learning_rate": 0.05, "epochs": 3,
                                           "batch": 8, "limit": 10000}
        assert DENSE_RATE_OVERRIDES == {"gaussian:0.01": 0.02}

    def test_null_fields_resolve_from_recipe(self):
        config = parse_to_config(["train", "--seed", "3", "--net", "dense"])
        cfg = resolved_train_config(config, "gaussian:0.1")
        assert cfg.learning_rate == 0.01
        assert cfg.epochs == 4
        assert cfg.batch == 64
        assert cfg.limit == 20000
        assert cfg.seed == 3
        assert cfg.train_noise.text() == "gaussian:0.1"

    def test_light_gaussian_uses_doubled_rate(self):
        config = parse_to_config(["train", "--seed", "3", "--net", "dense"])
        assert resolved_train_config(config, "gaussian:0.01").learning_rate == 0.02

    def test_rate_override_is_dense_only(self):
        config = parse_to_config(["train", "--seed", "3", "--net", "cnn"])
        assert resolved_train_config(config, "gaussian:0.01").learning_rate == 0.1

    def test_explicit_flags_beat_recipe(self):
        config = parse_to_config(["train", "--seed", "3", "--net", "dense",
                                  "--lr", "0.5", "--epochs", "1"])
        cfg = resolved_train_config(config, "gaussian:0.01")
        assert cfg.learning_rate == 0.5
        assert cfg.epochs == 1

    def test_device_settings_flow_into_config(self):
        config = parse_to_config(["train", "--seed", "3", "--net", "dense",
                                  "--levels", "16", "--sigma", "0.02"])
        cfg = resolved_train_config(config, "gaussian:0.1")
        assert cfg.device.levels == 16
        assert cfg.device.variation_sigma == 0.02

    def test_unknown_net_rejected(self, tmp_path):
        # A net no recipe covers stops at the merge, before any recipe.
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 3, "net": "rnn"}))
        with pytest.raises(CliError, match="rnn"):
            parse_to_config(["train", "--config", str(path)])


class TestExitCodes:
    def test_success_returns_zero(self, capsys):
        assert main(["cost", "--seed", "0", "--net", "dense"]) == 0

    def test_missing_seed_returns_two(self, capsys):
        assert main(["cost"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_missing_data_path_returns_two(self, corpus, monkeypatch, capsys,
                                           tmp_path):
        monkeypatch.delenv("MEMDENOISE_DATA", raising=False)
        assert main(["eval", "--seed", "1", "--outdir", str(tmp_path)]) == 2
        assert "MEMDENOISE_DATA" in capsys.readouterr().err

    def test_bad_data_directory_returns_two(self, capsys, tmp_path):
        assert main(["eval", "--seed", "1", "--data", "/nonexistent/idx",
                     "--outdir", str(tmp_path)]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_divergent_training_returns_three(self, corpus, capsys, tmp_path):
        rc = main(["train", "--data", corpus, "--outdir", str(tmp_path),
                   "--seed", "5", "--net", "dense", "--noise", "gaussian:0.1",
                   "--lr", "500", "--epochs", "3", "--batch", "8",
                   "--limit", "32"])
        assert rc == 3
        assert "diverged" in capsys.readouterr().err

    def test_unrecognized_checkpoint_returns_two(self, corpus, capsys, tmp_path):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        assert main(["eval", "--data", corpus, "--seed", "1",
                     "--checkpoint", str(junk), "--outdir", str(tmp_path)]) == 2
        assert "not a recognized checkpoint" in capsys.readouterr().err

    def test_directory_checkpoint_returns_two(self, corpus, capsys,
                                              tmp_path):
        folder = tmp_path / "nets"
        folder.mkdir()
        assert main(["eval", "--data", corpus, "--seed", "1", "--checkpoint",
                     str(folder), "--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read checkpoint: ")
        assert err.count(str(folder)) == 1 and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_cnn_of_another_geometry_returns_two(self, corpus, capsys,
                                                 tmp_path, monkeypatch):
        # A 2-kernel CNN can be built and saved only with the module
        # patched to it; only the 8 kernels that cost and training use load.
        path = tmp_path / "cnn.bin"
        with monkeypatch.context() as patched:
            patched.setattr(cnn, "KERNELS", 2)
            CnnDenoiser(np.full((2, 3, 3), 0.1), np.full((2, 3, 3), 0.1),
                        np.eye(3)).save(path)
        assert main(["eval", "--data", corpus, "--seed", "1", "--checkpoint",
                     str(path), "--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count(str(path)) == 1 and err.count("\n") == 1
        assert "not the 8 3x3 kernels of a cnn" in err
        assert not (tmp_path / "out").exists()

    def test_train_requires_real_noise(self, corpus, capsys, tmp_path):
        assert main(["train", "--data", corpus, "--seed", "1", "--net", "dense",
                     "--noise", "none", "--outdir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("argv,cause", [
        (["train", "--net", "dense"], "train requires at least one real "
         "noise spec"),
        (["train", "--net", "cnn"], "train requires at least one real "
         "noise spec"),
        (["sweep", "--checkpoint", "missing.bin"], "sweep requires a real "
         "noise spec")], ids=["train-dense", "train-cnn", "sweep"])
    def test_noise_refused_before_any_read(self, capsys, tmp_path, monkeypatch,
                                           argv, cause):
        # An empty data directory and a missing checkpoint would each fail
        # their read: the noise list is refused first.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty").mkdir()
        assert main([*argv, "--data", "empty", "--seed", "1", "--noise",
                     "none", "--outdir", "out"]) == 2
        one_error_line(capsys, cause)
        assert not (tmp_path / "out").exists()

    def test_bad_noise_spec_returns_two(self, corpus, capsys, tmp_path):
        assert main(["eval", "--data", corpus, "--seed", "1",
                     "--noise", "gaussian:-1", "--outdir", str(tmp_path)]) == 2

    def test_bad_filter_spec_returns_two(self, corpus, capsys, tmp_path):
        assert main(["eval", "--data", corpus, "--seed", "1",
                     "--filter", "sobel:3", "--outdir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("keep", ["half", "all-but-one-byte"])
    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_truncated_checkpoint_returns_two(self, corpus, dense_ckpt, capsys,
                                              tmp_path, command, keep):
        blob = Path(dense_ckpt).read_bytes()
        cut = tmp_path / "cut.bin"
        cut.write_bytes(blob[:len(blob) // 2 if keep == "half" else -1])
        assert main([command, "--data", corpus, "--seed", "1",
                     "--noise", "gaussian:0.1", "--checkpoint", str(cut),
                     "--outdir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cut) in err

    @pytest.mark.parametrize("kind", ["dense", "fusion", "classifier"])
    def test_truncated_checkpoint_names_path_once(self, corpus, dense_ckpt,
                                                  capsys, tmp_path, kind):
        path = tmp_path / f"{kind}.bin"
        if kind == "dense":
            shutil.copy(dense_ckpt, path)
        elif kind == "fusion":
            FusionDenoiser([load_net(dense_ckpt)[1]] * 8,
                           fusion_init(8, kind="identity")).save(path)
        else:
            Classifier.initial((8, 8)).save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        flag = "--classifier" if kind == "classifier" else "--checkpoint"
        command = "classify" if kind == "classifier" else "eval"
        assert main([command, "--data", corpus, "--seed", "1", flag,
                     str(path), "--outdir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count(str(path)) == 1
        assert f"holds {len(blob) // 2} bytes, expected {len(blob)}" in err

    @pytest.mark.parametrize("damage", [
        "raw-cut-in-header", "raw-cut-in-dims", "raw-cut-in-payload",
        "gzip-truncated", "gzip-flipped-byte"])
    def test_damaged_idx_returns_two(self, corpus, capsys, tmp_path, damage):
        data = tmp_path / "data"
        shutil.copytree(corpus, data)
        raw = data / "t10k-images-idx3-ubyte"
        blob = raw.read_bytes()
        if damage.startswith("raw"):
            keep = {"header": 2, "dims": 10, "payload": len(blob) - 10}
            raw.write_bytes(blob[:keep[damage.rsplit("-", 1)[1]]])
            target = raw
        else:
            raw.unlink()
            target = data / "t10k-images-idx3-ubyte.gz"
            packed = bytearray(gzip.compress(blob))
            if damage == "gzip-truncated":
                packed = packed[:len(packed) // 2]
            else:
                packed[len(packed) // 2] ^= 0xFF
            target.write_bytes(bytes(packed))
        assert main(["eval", "--data", str(data), "--seed", "1",
                     "--outdir", str(tmp_path / "out")]) == 2
        assert str(target) in capsys.readouterr().err

    @pytest.mark.parametrize("argv,split", [
        (["train", "--net", "dense", "--noise", "gaussian:0.1"], "train"),
        (["train", "--net", "cnn", "--noise", "gaussian:0.1"], "train"),
        (["classify"], "train"), (["eval"], "test")],
        ids=["train-dense", "train-cnn", "classify", "eval"])
    def test_empty_idx_split_returns_two(self, capsys, tmp_path, argv, split):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("train", "t10k"):
            write_idx_images(data / f"{name}-images-idx3-ubyte",
                             np.zeros((0, 8, 8), dtype=np.uint8))
            write_idx_labels(data / f"{name}-labels-idx1-ubyte",
                             np.zeros(0, dtype=np.uint8))
        assert main([*argv, "--data", str(data), "--seed", "1",
                     "--outdir", str(tmp_path / "out")]) == 2
        assert (f"cannot load mnist {split}: {data}: the {split} split holds "
                "no records") in capsys.readouterr().err


@pytest.mark.parametrize("build,argv,cause", [
    (lambda: parse_spec("gaussian:nan"),
     ["eval", "--noise", "gaussian:nan"], "variance"),
    (lambda: parse_spec("speckle:inf"),
     ["eval", "--noise", "speckle:inf"], "variance"),
    (lambda: parse_spec("poisson:inf"),
     ["eval", "--noise", "poisson:inf"], "peak"),
    (lambda: DeviceModel(variation_sigma=float("nan")),
     ["train", "--sigma", "nan"], "variation_sigma"),
    (lambda: DeviceModel(variation_sigma=float("nan")),
     ["sweep", "--sigma-grid", "0.1,nan"], "variation_sigma"),
    (lambda: DeviceModel(levels=2.5), ["train", "--levels", "2.5"], "levels"),
    (lambda: FilterSpec("gauss", sigma=float("inf")),
     ["eval", "--filter", "gauss:inf"], "sigma"),
    (lambda: FilterSpec("tv", tv_weight=float("inf")),
     ["eval", "--filter", "tv:inf"], "tv_weight"),
], ids=["gaussian-nan", "speckle-inf", "poisson-inf", "sigma-nan",
        "sigma-grid-nan", "levels-2.5", "gauss-inf", "tv-inf"])
def test_non_finite_parameters_rejected(corpus, dense_ckpt, capsys, tmp_path,
                                        build, argv, cause):
    with pytest.raises(ValueError, match=cause):
        build()
    # train takes the device flags and no checkpoint; it stops before
    # training, and writes nothing
    net = [] if argv[0] == "train" else ["--checkpoint", dense_ckpt]
    rc = main(argv + ["--data", corpus, "--seed", "1", *net,
                      "--outdir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and cause in err
    assert not (tmp_path / "out").exists()



def one_error_line(capsys, *causes):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(cause in err for cause in causes), err


@pytest.mark.parametrize("argv,cause", [
    (["--filter", "gauss:1e308"], "filters: gauss requires a sigma"),
    (["--filter", "median:100001"], "filters: median window must be odd"),
    (["--filter", "gauss:1e-200"], "filters: gauss requires a sigma"),
    (["--filter", "tv:1e-320"], "filters: tv requires a finite tv_weight"),
    (["--filter", "tv:0.1:1000000000"], "filters: tv requires tv_iters"),
    (["--noise", "poisson:1e20"], "noises: poisson needs a peak"),
    (["--noise", "speckle:1e300"], "noises: speckle needs a variance"),
], ids=["gauss-1e308", "median-100001", "gauss-1e-200", "tv-1e-320",
        "tv-1e9-iters", "poisson-1e20", "speckle-1e300"])
def test_out_of_range_specs_exit_two(corpus, capsys, tmp_path, argv, cause):
    assert main(["eval", "--data", corpus, "--seed", "1", *argv,
                 "--outdir", str(tmp_path / "out")]) == 2
    one_error_line(capsys, cause)
    assert not (tmp_path / "out").exists()


def test_noises_at_their_cap_score_finitely(corpus, dense_ckpt, tmp_path):
    # 2**62 is the largest variance and Poisson peak a spec takes. The net
    # and the widest filters score it finitely, with no RuntimeWarning
    # (an error under this suite's warning filters).
    cap = repr(2.0**62)
    assert main(["eval", "--data", corpus, "--seed", "1", "--checkpoint",
                 dense_ckpt, "--noise", f"gaussian:{cap}", "--noise",
                 f"poisson:{cap}", "--noise", f"speckle:{cap}", "--filter",
                 "median:99", "--filter", "gauss:16.3", "--filter", "tv:0.1",
                 "--json", "--outdir", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "eval.json").read_text())["rows"]
    assert len(rows) == 3 * 5
    assert all(np.isfinite([r["ssim"], r["mse"], r["psnr"]]).all()
               for r in rows)


@pytest.fixture(scope="module")
def corpus_10x10(tmp_path_factory):
    root = tmp_path_factory.mktemp("idx10")
    rng = np.random.default_rng(1)
    for prefix, n in (("train", 48), ("t10k", 24)):
        write_idx_images(root / f"{prefix}-images-idx3-ubyte",
                         rng.integers(0, 256, (n, 10, 10), dtype=np.uint8))
        write_idx_labels(root / f"{prefix}-labels-idx1-ubyte",
                         (np.arange(n) % 10).astype(np.uint8))
    return str(root)


class TestImageSizeMismatch:
    """Checkpoints of 8x8 nets run on a 10x10 corpus."""

    @pytest.mark.parametrize("command,kind", [
        ("eval", "dense"), ("eval", "fusion"), ("sweep", "dense"),
        ("classify", "dense"), ("classify", "classifier")])
    def test_exits_two_naming_both_shapes(self, corpus_10x10, dense_ckpt,
                                          capsys, tmp_path, command, kind):
        path, flag = dense_ckpt, "--checkpoint"
        if kind == "fusion":
            path = str(tmp_path / "fusion.bin")
            FusionDenoiser([load_net(dense_ckpt)[1]] * 8,
                           fusion_init(8, kind="identity")).save(path)
        elif kind == "classifier":
            path, flag = str(tmp_path / "clf.bin"), "--classifier"
            Classifier.initial((8, 8)).save(path)
        extra = ["--levels-grid", "4"] if command == "sweep" else []
        assert main([command, "--data", corpus_10x10, "--seed", "1", flag,
                     path, "--outdir", str(tmp_path / "out")] + extra) == 2
        one_error_line(capsys, "(8, 8)", "10, 10)")

    def test_cnn_checkpoints_take_any_size(self, corpus, corpus_10x10,
                                           tmp_path):
        assert main(["train", "--data", corpus, "--seed", "1", "--net", "cnn",
                     "--epochs", "1", "--limit", "8", "--outdir",
                     str(tmp_path)]) == 0
        assert main(["eval", "--data", corpus_10x10, "--seed", "1",
                     "--checkpoint", str(tmp_path / "cnn_gaussian_0.1.bin"),
                     "--outdir", str(tmp_path / "eval")]) == 0


BAD_TRAIN_SETTINGS = [
    (net, argv, cause) for net in ("dense", "cnn", "fusion")
    for argv, cause in [(["--limit", "0"], "limit"),
                        (["--batch", "0"], "batch"),
                        (["--epochs", "-1"], "epochs"),
                        (["--lr", "-1"], "learning_rate")]
] + [("fusion", ["--clean-fraction", "2"], "clean_fraction")]


class TestBadValues:
    @pytest.mark.parametrize("argv,cause", [
        (["eval", "--eval-limit", "0"], "eval_limit"),
        (["eval", "--eval-limit", "-3"], "eval_limit"),
        (["sweep", "--eval-limit", "0"], "eval_limit"),
        (["classify", "--eval-limit", "0"], "eval_limit"),
        (["train", "--limit", "0"], "limit"),
        (["train", "--limit", "-2"], "limit")])
    def test_non_positive_limits_exit_two(self, corpus, dense_ckpt, capsys,
                                          tmp_path, argv, cause):
        if argv[0] in ("eval", "sweep"):
            argv = argv + ["--checkpoint", dense_ckpt]
        assert main(argv + ["--data", corpus, "--seed", "1",
                            "--outdir", str(tmp_path)]) == 2
        one_error_line(capsys, cause)
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("command,document,cause", [
        ("eval", {"eval_limit": "abc"}, "eval_limit"),
        ("eval", {"dump": "x"}, "dump"),
        ("eval", {"filters": 3}, "filters"),
        ("eval", {"filters": [3]}, "filters"),
        ("eval", {"noises": [3]}, "noises"),
        ("train", {"train": {"epochs": "4"}}, "epochs"),
        ("train", {"train": {"epochs": 2.0}}, "epochs"),
        # booleans for integer keys, which int() would take as 0 or 1
        ("eval", {"eval_limit": True}, "eval_limit"),
        ("eval", {"dump": True}, "dump"),
        ("eval", {"seed": True}, "seed"),
        ("sweep", {"eval_limit": False}, "eval_limit"),
        ("train", {"train": {"epochs": True}}, "train.epochs"),
        ("train", {"train": {"batch": True}}, "train.batch"),
        ("train", {"train": {"limit": False}}, "train.limit"),
        # booleans for float keys and in float grids, which float() would
        # take as 0.0 or 1.0
        ("train", {"train": {"learning_rate": True}}, "train.learning_rate"),
        ("train", {"net": "fusion", "train": {"clean_fraction": False}},
         "train.clean_fraction"),
        ("train", {"device": {"variation_sigma": False}},
         "device.variation_sigma"),
        ("sweep", {"sweep": {"sigma": [True]}}, "sweep.sigma"),
        ("sweep", {"sweep": {"dropout": [0.1, False]}}, "sweep.dropout"),
        ("sweep", {"sweep": {"prune": [True]}}, "sweep.prune")])
    def test_wrong_typed_config_values_exit_two(self, corpus, capsys,
                                                tmp_path, command, document,
                                                cause):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 1, **document}))
        assert main([command, "--config", str(path), "--data", corpus,
                     "--outdir", str(tmp_path / "out")]) == 2
        one_error_line(capsys, cause)


    @pytest.mark.parametrize("argv,cause", [
        (["train", "--noise", "bogus:1"], "noises"),
        (["classify", "--noise", "bogus:1"], "noises"),
        (["classify", "--eval-limit", "0"], "eval_limit"),
        (["eval", "--filter", "nope"], "filters"),
        (["eval", "--noise", "bogus:1"], "noises"),
        (["eval", "--eval-limit", "0"], "eval_limit"),
        (["sweep", "--eval-limit", "0"], "eval_limit")])
    def test_bad_values_exit_two_before_any_read(self, capsys, tmp_path,
                                                 argv, cause):
        # The dataset directory is empty and the checkpoint missing, so a
        # value checked only after a read would report the read instead.
        empty, out = tmp_path / "empty", tmp_path / "out"
        empty.mkdir()
        if argv[0] != "train":
            argv = argv + ["--checkpoint", str(empty / "missing.bin")]
        assert main(argv + ["--data", str(empty), "--seed", "1",
                            "--outdir", str(out)]) == 2
        one_error_line(capsys, cause)
        assert not out.exists()

    @pytest.mark.parametrize("net,argv,cause", BAD_TRAIN_SETTINGS, ids=[
        f"{net}{argv[0]}" for net, argv, _ in BAD_TRAIN_SETTINGS])
    def test_bad_train_settings_exit_two_before_any_read(
            self, capsys, monkeypatch, tmp_path, net, argv, cause):
        # Every net's training settings are resolved before the dataset
        # (and, for fusion, the member bank) is read.
        def read(config, split):
            pytest.fail(f"read the {split} split")

        monkeypatch.setattr(cli, "load_dataset", read)
        out = tmp_path / "out"
        assert main(["train", "--net", net, *argv, "--seed", "1",
                     "--outdir", str(out)]) == 2
        one_error_line(capsys, f"train: {cause} must be")
        assert not out.exists()

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_negative_dump_exits_two(self, corpus, dense_ckpt, capsys,
                                     tmp_path, how):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 1, "dump": -2}))
        argv = (["--dump", "-1", "--seed", "1"] if how == "flag"
                else ["--config", str(path)])
        out = tmp_path / "out"
        assert main(["eval", *argv, "--data", corpus, "--checkpoint",
                     dense_ckpt, "--outdir", str(out)]) == 2
        one_error_line(capsys, "dump")
        assert not out.exists()


class TestCostCommand:
    def test_dense_sequential_table(self, capsys):
        assert main(["cost", "--seed", "0", "--net", "dense"]) == 0
        out = capsys.readouterr().out
        assert "dense seq. infer" in out
        assert "615440x2" in out
        assert "3.2us" in out

    def test_parallel_latency_row(self, capsys):
        assert main(["cost", "--seed", "0", "--net", "dense",
                     "--mode", "parallel"]) == 0
        assert "50ns" in capsys.readouterr().out

    def test_json_report(self, capsys, tmp_path):
        assert main(["cost", "--seed", "0", "--net", "dense",
                     "--outdir", str(tmp_path), "--json"]) == 0
        payload = json.loads((tmp_path / "cost.json").read_text())
        assert payload["seed"] == 0
        row = payload["rows"][0]
        assert row["tiles_per_polarity"] == 52
        assert row["total_energy_j"] == pytest.approx(21.1468e-9, rel=1e-4)

    def test_budget_override_changes_latency(self, capsys, tmp_path):
        budget = tmp_path / "budget.json"
        budget.write_text(json.dumps({"t_read": 100e-9}))
        assert main(["cost", "--seed", "0", "--net", "dense",
                     "--budget", str(budget)]) == 0
        assert "6.4us" in capsys.readouterr().out

    def test_unknown_budget_field_rejected(self, capsys, tmp_path):
        budget = tmp_path / "budget.json"
        budget.write_text(json.dumps({"t_reed": 1.0}))
        assert main(["cost", "--seed", "0", "--net", "dense",
                     "--budget", str(budget)]) == 2
        assert "t_reed" in capsys.readouterr().err

    def test_training_phase_report(self, capsys):
        assert main(["cost", "--seed", "0", "--net", "dense",
                     "--phase", "training"]) == 0
        assert "dense seq. train" in capsys.readouterr().out

    @pytest.mark.parametrize("key,value", [("mode", "burst"),
                                           ("phase", "sleep"),
                                           ("net", "rnn")])
    def test_bad_design_label_exits_two(self, capsys, tmp_path, key, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 0, key: value}))
        assert main(["cost", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("net,mode,phase,row,stdout,report", [
        # Recorded before the design points came from the nets' declared
        # layers: the table's data row, then sha256 prefixes of the whole
        # stdout (the output directory read as <outdir>) and of cost.json.
        ("dense", "sequential", "inference",
         "dense seq. infer  615440x2  52x2   222uW   577pJ   0.2912mm2  6.43mW  "
         "20.6nJ  0.0006mm2  -       -           21.1nJ   0.2918mm2  3.2us",
         "24ad65da24848d89", "3184ebd4eb4d6fac"),
        ("dense", "sequential", "training",
         "dense seq. train  615440x2  52x2   5.77mW  236uJ   0.2912mm2  6.43mW  "
         "273nJ   0.0006mm2  -       -           237uJ    0.2918mm2  65.6ms",
         "ca957e6cc7d5b637", "cb61599bd19a1325"),
        ("dense", "parallel", "inference",
         "dense par. infer  615440x2  52x2   11.5mW  577pJ   0.2912mm2  411mW   "
         "20.6nJ  0.0384mm2  -       -           21.1nJ   0.3296mm2  50ns",
         "dde3ad87d2e89437", "7d1713cd10e6370b"),
        ("dense", "parallel", "training",
         "dense par. train  615440x2  52x2   5.77mW  236uJ   0.2912mm2  6.43mW  "
         "252nJ   0.0384mm2  -       -           237uJ    0.3296mm2  65.6ms",
         "4953b449ed483f50", "75d4836c19fd21ef"),
        ("cnn", "sequential", "inference",
         "cnn seq. infer  153x2    3x2    666uW   39.2nJ  0.0168mm2  6.43mW  "
         "378nJ   0.0006mm2  -       -           417nJ    0.0174mm2  58.8us",
         "257079f700fefde7", "922c9004ed5ef6de"),
        ("cnn", "sequential", "training",
         "cnn seq. train  153x2    3x2    333uW   13.6uJ  0.0168mm2  6.43mW  "
         "441nJ   0.0006mm2  6468    12.9nJ      14.1uJ   0.04757mm2  65.6ms",
         "65d4968a8eb06aac", "b310c82ee34effd6"),
        ("cnn", "parallel", "inference",
         "cnn par. infer  72324x2  1176x2  261mW   13.1nJ  6.586mm2  7.56W   "
         "378nJ   0.7056mm2  -       -           391nJ    7.291mm2  150ns",
         "5c85e307f6bff0a9", "b5ade2c081422800"),
        ("cnn", "parallel", "training",
         "cnn par. train  72324x2  1176x2  131mW   5.35mJ  6.586mm2  6.43mW  "
         "64nJ    0.7056mm2  6468    12.9nJ      5.35mJ   7.321mm2  65.5ms",
         "59b24c544e8d7366", "bdd751d975daffc3"),
    ])
    def test_outputs_are_pinned(self, capsys, tmp_path, net, mode, phase,
                                row, stdout, report):
        digest = lambda text: hashlib.sha256(text.encode()).hexdigest()[:16]
        assert main(["cost", "--seed", "1", "--net", net, "--mode", mode,
                     "--phase", phase, "--json", "--outdir",
                     str(tmp_path)]) == 0
        out = capsys.readouterr().out.replace(str(tmp_path), "<outdir>")
        assert out.splitlines()[2] == row
        assert digest(out) == stdout
        assert digest((tmp_path / "cost.json").read_text()) == report

    def test_fusion_has_no_design_point(self, capsys, tmp_path):
        assert main(["cost", "--seed", "0", "--net", "fusion", "--json",
                     "--outdir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: cost covers dense and cnn design points\n")
        assert os.listdir(tmp_path) == []

    def test_cnn_design_point(self, capsys):
        assert main(["cost", "--seed", "0", "--net", "cnn"]) == 0
        assert "153x2" in capsys.readouterr().out

    def test_cnn_parallel_design_point(self, capsys):
        # One array per patch position: 1176 tiles read at once.
        assert main(["cost", "--seed", "0", "--net", "cnn",
                     "--mode", "parallel"]) == 0
        out = capsys.readouterr().out
        assert "cnn par. infer" in out
        assert all(cell in out for cell in ("72324x2", "1176x2", "150ns"))

    def test_cnn_training_phase_report(self, capsys):
        assert main(["cost", "--seed", "0", "--net", "cnn",
                     "--phase", "training"]) == 0
        out = capsys.readouterr().out
        assert "cnn seq. train" in out
        assert all(cell in out for cell in ("153x2", "6468", "65.6ms"))

    def test_fabric_too_small_exits_two(self, capsys, tmp_path):
        budget = tmp_path / "budget.json"
        budget.write_text(json.dumps({"max_tiles": 10}))
        assert main(["cost", "--seed", "0", "--net", "dense", "--budget",
                     str(budget), "--outdir", str(tmp_path / "out")]) == 2
        one_error_line(capsys, "design needs 52 tiles")
        assert not (tmp_path / "out").exists()


BUDGET_FIELDS = [f.name for f in dataclasses.fields(hwcost.ComponentBudget)]
BUDGET_VALUES = (st.floats() | st.integers() | st.integers(-2, 60)
                 | st.booleans() | st.none() | st.text(max_size=3)
                 | st.sampled_from([1e308, 1e-308, 5e-324, 2 ** 1100, 1.5])
                 | st.lists(st.integers(0, 3), max_size=2))
BUDGETS = (st.dictionaries(st.sampled_from(BUDGET_FIELDS + ["t_reed"]),
                           BUDGET_VALUES, max_size=4)
           | BUDGET_VALUES)
REPORT_FIELDS = list(hwcost.estimate(cli.cost_point(
    "dense", "sequential", "inference")).to_json())


@pytest.fixture(scope="module")
def budget_path(tmp_path_factory):
    return tmp_path_factory.mktemp("budget") / "budget.json"


@settings(max_examples=300, deadline=None)
@given(budget=BUDGETS, net=st.sampled_from(["dense", "cnn"]),
       mode=st.sampled_from(["sequential", "parallel"]),
       phase=st.sampled_from(["inference", "training"]))
@example(budget={"tile_power": 1e308, "update_pulses": 0}, net="dense",
         mode="sequential", phase="training")
@example(budget={"t_read": 1e308}, net="dense", mode="sequential",
         phase="inference")
@example(budget={"update_pulses": 1.5}, net="dense", mode="sequential",
         phase="training")
@example(budget={"update_pulses": True}, net="dense", mode="sequential",
         phase="training")
@example(budget={"max_tiles": True}, net="dense", mode="sequential",
         phase="inference")
@example(budget={"tile_area": 10 ** 400}, net="cnn", mode="parallel",
         phase="inference")
@example(budget={"cmos_chain_area": 1e308}, net="dense", mode="sequential",
         phase="inference")
def test_cost_budget_prints_a_finite_table_or_exits_two(
        budget_path, budget, net, mode, phase):
    # Each --budget document prints a table of finite values, or exits 2
    # with one line naming the field, the unknown key or the cost that
    # overflows.
    budget_path.write_text(json.dumps(budget))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["cost", "--seed", "1", "--net", net, "--mode", mode,
                     "--phase", phase, "--budget", str(budget_path)])
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        named = [*BUDGET_FIELDS, "t_reed", *REPORT_FIELDS, "overrides",
                 "fabric provides"]
        assert any(name in err for name in named), err
        return
    assert code == 0 and err == ""
    design = f"{net} {mode[:3]}. {phase[:5]}"
    row = out.splitlines()[2]
    assert row.startswith(design)
    assert "nan" not in row[len(design):] and "inf" not in row[len(design):]


@pytest.mark.parametrize("fault", ["write", "replace"])
@pytest.mark.parametrize("name", ["eval.csv", "eval.json"])
def test_failed_report_write_leaves_the_old_report(tmp_path, monkeypatch,
                                                   name, fault):
    # A report is written to a temporary file that replaces it: a write
    # that fails part-way, or at the replace, leaves the old report and no
    # other file. (The part-way failure shadows open in ckpt, which owns
    # that temporary file.)
    path, written = tmp_path / name, []
    cli._write(str(path), "old report\n", written)

    def refuse(*args):
        raise OSError("no space left on device")

    def half_open(file, mode):
        f = open(file, mode)

        class HalfWrites:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                f.close()

            def write(self, text):
                f.write(text[:len(text) // 2])
                f.flush()
                refuse()

        return HalfWrites()

    if fault == "write":
        monkeypatch.setattr(ckpt, "open", half_open, raising=False)
    else:
        monkeypatch.setattr(ckpt.os, "replace", refuse)
    with pytest.raises(OSError, match="no space left"):
        cli._write(str(path), "new report\n" * 1000, written)
    assert path.read_text() == "old report\n"
    assert [p.name for p in tmp_path.iterdir()] == [name]
    assert written == [str(path)]


class TestWriteFaults:
    # A write that fails exits 2 with one line naming the path and the
    # cause; older files stay as they were and no temporary file is left.
    ARGV = {"cost": ["cost", "--seed", "1", "--json"],
            "eval": ["eval", "--seed", "5", "--noise", "gaussian:0.1",
                     "--json"],
            "train": ["train", *TRAIN_ARGS]}

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_outdir_under_a_regular_file(self, corpus, capsys, tmp_path,
                                         command):
        blocker = tmp_path / "file"
        blocker.write_text("old\n")
        out = blocker / "sub"
        data = [] if command == "cost" else ["--data", corpus]
        assert main(self.ARGV[command] + data + ["--outdir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno {errno.ENOTDIR}] Not a directory: '{out}'\n")
        assert os.listdir(tmp_path) == ["file"]
        assert blocker.read_text() == "old\n"

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_full_disk_at_a_checkpoint(self, corpus, capsys, monkeypatch,
                                       tmp_path, cpus):
        # The size reservation finds the disk full: for every net with
        # one CPU, and with two only in the worker, which trains the
        # second net while this process trains the first.
        started, pid = FORK.Event(), os.getpid()
        reserve = os.posix_fallocate

        def full(fd, offset, size):
            if cpus == 1 or os.getpid() != pid:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return reserve(fd, offset, size)

        def trains(cfg, data):
            if os.getpid() != pid:
                started.set()
            else:
                assert started.wait(10)
            return dense_train(cfg, data)

        monkeypatch.setattr(procs, "cpus", lambda: cpus)
        monkeypatch.setattr(os, "posix_fallocate", full, raising=False)
        if cpus == 2:
            monkeypatch.setattr(cli, "dense_train", trains)
        names = ["dense_gaussian_0.1.bin", "dense_sp_0.1.bin"]
        for name in names:
            (tmp_path / name).write_bytes(b"old")
        argv = ["train", "--data", corpus, "--outdir", str(tmp_path),
                "--seed", "5", "--net", "dense", "--noise", "gaussian:0.1",
                "--noise", "sp:0.1", "--epochs", "1", "--limit", "16"]
        assert main(argv) == 2
        failed = tmp_path / names[cpus - 1]
        assert capsys.readouterr().err == (
            f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: "
            f"'{failed}'\n")
        assert sorted(os.listdir(tmp_path)) == names
        assert failed.read_bytes() == b"old"
        if cpus == 2:  # the first net saved
            assert load_net(str(tmp_path / names[0]))[0] == "dense"

    def test_failed_image_dump(self, corpus, capsys, monkeypatch, tmp_path):
        # Image dumps are written whole too: the first one's replace fails.
        dump = tmp_path / "images" / "gaussian_0.1" / "clean_0.pgm"
        dump.parent.mkdir(parents=True)
        dump.write_bytes(b"old")

        def refuse(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "replace", refuse)
        assert main(["eval", "--data", corpus, "--seed", "5", "--noise",
                     "gaussian:0.1", "--dump", "1",
                     "--outdir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: "
            f"'{dump}'\n")
        assert dump.read_bytes() == b"old"
        assert os.listdir(dump.parent) == ["clean_0.pgm"]


class TestTrainCommand:
    def test_artifacts_and_log(self, corpus, capsys, tmp_path):
        out = str(tmp_path)
        assert main(["train", "--data", corpus, "--outdir", out] + TRAIN_ARGS) == 0
        stdout = capsys.readouterr().out
        ckpt = os.path.join(out, "dense_gaussian_0.1.bin")
        assert os.path.isfile(ckpt)
        assert f"wrote {ckpt}" in stdout
        lines = Path(out, "train_log.csv").read_text().splitlines()
        assert lines[0] == "net,noise,epoch,rmse,config,seed"
        assert len(lines) == 3
        assert lines[1].startswith("dense,gaussian:0.1,1,")

    def test_checkpoint_loads_as_dense(self, dense_ckpt):
        kind, net = load_net(dense_ckpt)
        assert kind == "dense"
        assert net.shape == (8, 8)

    def test_rerun_is_byte_identical(self, corpus, dense_ckpt, tmp_path):
        out = str(tmp_path)
        assert main(["train", "--data", corpus, "--outdir", out] + TRAIN_ARGS) == 0
        again = os.path.join(out, "dense_gaussian_0.1.bin")
        assert Path(again).read_bytes() == Path(dense_ckpt).read_bytes()

    def test_one_checkpoint_per_noise(self, corpus, tmp_path):
        out = str(tmp_path)
        argv = ["train", "--data", corpus, "--outdir", out, "--seed", "5",
                "--net", "dense", "--noise", "gaussian:0.1", "--noise",
                "sp:0.1", "--lr", "0.05", "--epochs", "1", "--batch", "8",
                "--limit", "16"]
        assert main(argv) == 0
        assert os.path.isfile(os.path.join(out, "dense_gaussian_0.1.bin"))
        assert os.path.isfile(os.path.join(out, "dense_sp_0.1.bin"))

    def test_cnn_training_writes_checkpoint(self, corpus, tmp_path):
        out = str(tmp_path)
        argv = ["train", "--data", corpus, "--outdir", out, "--seed", "5",
                "--net", "cnn", "--noise", "gaussian:0.1", "--lr", "0.05",
                "--epochs", "1", "--batch", "8", "--limit", "8"]
        assert main(argv) == 0
        kind, _ = load_net(os.path.join(out, "cnn_gaussian_0.1.bin"))
        assert kind == "cnn"

    def test_trainer_is_looked_up_when_it_trains(self, corpus, monkeypatch,
                                                 tmp_path):
        calls = []

        def counted(cfg, data):
            calls.append(cfg.train_noise.text())
            return cnn_train(cfg, data)

        monkeypatch.setattr(cli, "cnn_train", counted)
        argv = ["train", "--data", corpus, "--outdir", str(tmp_path),
                "--seed", "5", "--net", "cnn", "--noise", "gaussian:0.1",
                "--lr", "0.05", "--epochs", "1", "--batch", "8",
                "--limit", "8"]
        assert main(argv) == 0
        assert calls == ["gaussian:0.1"]


def serial_bank(argv, outdir):
    """Checkpoints and train_log.csv of a bank trained one member at a
    time in this process, calling the trainers directly."""
    config = parse_to_config(argv + ["--outdir", str(outdir)])
    data = load_dataset(config, "train")
    trainer = {"dense": dense_train, "cnn": cnn_train}[config["net"]]
    stamp = f"{config_hash(config)},{config['seed']}"
    log = ["net,noise,epoch,rmse,config,seed"]
    outdir.mkdir()
    paths = []
    for text in config["noises"]:
        text = parse_spec(text).text()
        net = trainer(resolved_train_config(config, text), data)
        paths.append(outdir / f"{config['net']}_{text.replace(':', '_')}.bin")
        net.save(paths[-1])
        log += [f"{config['net']},{text},{epoch},{rmse:.8g},{stamp}"
                for epoch, rmse in enumerate(net.rmse_log, 1)]
    paths.append(outdir / "train_log.csv")
    paths[-1].write_text("\n".join(log) + "\n")
    return paths


def noise_flags(texts):
    return [arg for text in texts for arg in ("--noise", text)]


BANKS = {
    "dense": ["--seed", "5", "--net", "dense", "--lr", "0.05", "--epochs",
              "2", "--batch", "8", "--limit", "32",
              *noise_flags(s.text() for s in STANDARD_NOISES)],
    "cnn": ["--seed", "5", "--net", "cnn", "--lr", "0.05", "--epochs", "2",
            "--batch", "4", "--limit", "10",
            *noise_flags(["gaussian:0.1", "sp:0.25"])],
}


class TestBankTraining:
    # Members train in forked workers (one per CPU, here forced to
    # several) or, with one CPU, in this process; both give the bytes
    # of a serial loop over the members.
    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("net", sorted(BANKS))
    def test_bank_equals_serial_loop(self, corpus, capsys, monkeypatch,
                                     tmp_path, net, cpus):
        argv = ["train", "--data", corpus, *BANKS[net]]
        want = serial_bank(argv, tmp_path / "serial")
        monkeypatch.setattr(procs, "cpus", lambda: cpus)
        out = tmp_path / "bank"
        assert main(argv + ["--outdir", str(out)]) == 0
        got = [out / p.name for p in want]
        assert sorted(os.listdir(out)) == sorted(p.name for p in want)
        for a, b in zip(want, got):
            assert a.read_bytes() == b.read_bytes(), b.name
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {p}" for p in got]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_only_second_member_diverges(self, corpus, capsys, monkeypatch,
                                         tmp_path, cpus):
        monkeypatch.setattr(procs, "cpus", lambda: cpus)
        argv = ["train", "--data", corpus, "--outdir", str(tmp_path),
                "--seed", "5", "--net", "dense", "--lr", "0.17",
                "--epochs", "3", "--batch", "8", "--limit", "32",
                "--noise", "poisson:2.5", "--noise", "gaussian:0.1"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        # at this rate poisson trains, while gaussian's first epoch RMSE is
        # 3.2 x its untrained first minibatch's
        assert "dense gaussian:0.1 diverged at epoch 1" in err[0]
        assert "poisson" not in err[0]
        assert not (tmp_path / "train_log.csv").exists()

    def test_dead_worker_is_one_line_naming_member(self, corpus, capsys,
                                                   monkeypatch, tmp_path):
        # The worker takes the last member and dies in it; this process
        # trains the first once the worker has started.
        started, pid = FORK.Event(), os.getpid()

        def dies(cfg, data):
            if os.getpid() != pid:
                started.set()
                os._exit(1)
            assert started.wait(10)
            return dense_train(cfg, data)

        monkeypatch.setattr(procs, "cpus", lambda: 2)
        monkeypatch.setattr(cli, "dense_train", dies)
        argv = ["train", "--data", corpus, "--outdir", str(tmp_path),
                "--seed", "5", "--net", "dense", "--noise", "gaussian:0.1",
                "--noise", "sp:0.1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == ("error: training dense sp:0.1: a worker process "
                       "died\n")

    def test_bad_setting_exits_before_any_member_trains(
            self, corpus, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(procs, "cpus", lambda: 2)
        argv = ["train", "--data", corpus, "--outdir", str(tmp_path / "out"),
                "--seed", "5", "--net", "dense", "--noise", "gaussian:0.1",
                "--noise", "sp:0.1", "--batch", "0"]
        assert main(argv) == 2
        assert "batch" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def eval_args(corpus, ckpt, out, extra=()):
    return ["eval", "--data", corpus, "--seed", "5", "--checkpoint", ckpt,
            "--filter", "median:3", "--noise", "gaussian:0.1", "--noise",
            "none", "--outdir", out] + list(extra)


class TestEvalCommand:
    def test_row_structure(self, corpus, dense_ckpt, tmp_path):
        out = str(tmp_path)
        assert main(eval_args(corpus, dense_ckpt, out)) == 0
        lines = Path(out, "eval.csv").read_text().splitlines()
        assert lines[0] == "noise,method,ssim,mse,psnr,n,config,seed"
        methods = [line.split(",")[1] for line in lines[1:]]
        assert methods == ["noisy", "dense", "median:3"] * 2
        assert lines[4].startswith("none,noisy,1,0,-,24,")

    def test_reruns_are_byte_identical(self, corpus, dense_ckpt, tmp_path):
        first = str(tmp_path / "a")
        second = str(tmp_path / "b")
        with_json = str(tmp_path / "c")
        assert main(eval_args(corpus, dense_ckpt, first)) == 0
        assert main(eval_args(corpus, dense_ckpt, second)) == 0
        assert main(eval_args(corpus, dense_ckpt, with_json, ["--json"])) == 0
        reference = Path(first, "eval.csv").read_bytes()
        assert Path(second, "eval.csv").read_bytes() == reference
        assert Path(with_json, "eval.csv").read_bytes() == reference

    def test_json_payload_matches_csv_stamp(self, corpus, dense_ckpt, tmp_path):
        out = str(tmp_path)
        assert main(eval_args(corpus, dense_ckpt, out, ["--json"])) == 0
        payload = json.loads(Path(out, "eval.json").read_text())
        stamp = Path(out, "eval.csv").read_text().splitlines()[1]
        assert payload["config"] == stamp.split(",")[-2]
        assert payload["seed"] == 5
        assert len(payload["rows"]) == 6

    def test_image_dumps(self, corpus, dense_ckpt, tmp_path):
        out = str(tmp_path)
        assert main(eval_args(corpus, dense_ckpt, out, ["--dump", "1"])) == 0
        base = os.path.join(out, "images", "gaussian_0.1")
        for name in ("clean_0.pgm", "noisy_0.pgm", "dense_0.pgm",
                     "median_3_0.pgm"):
            assert os.path.isfile(os.path.join(base, name))

    def test_noisy_only_when_no_pipelines(self, corpus, tmp_path):
        out = str(tmp_path)
        assert main(["eval", "--data", corpus, "--seed", "5", "--noise",
                     "gaussian:0.1", "--outdir", out]) == 0
        lines = Path(out, "eval.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[1] == "noisy"


@pytest.fixture(scope="module")
def fusion_ckpt(corpus, member_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("fusion"))
    assert main(["train", "--net", "fusion", "--data", corpus, "--seed", "5",
                 "--members", member_dir, "--epochs", "1", "--limit", "16",
                 "--outdir", out]) == 0
    return os.path.join(out, "fusion.bin")


@pytest.fixture(scope="module")
def cnn_ckpt(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("cnn")
    assert main(["train", "--net", "cnn", "--data", corpus, "--seed", "5",
                 "--epochs", "1", "--limit", "8", "--outdir", str(out)]) == 0
    return str(out / "cnn_gaussian_0.1.bin")


def slices_of(monkeypatch, k):
    """Make eval's tasks take k of the 8x8 test images each (a 1-image
    tail joins the slice before it)."""
    monkeypatch.setattr(cli, "_TASK_ARRAYS", 2 ** 19 // (64 * k))


def eval_run(argv, out, capsys):
    """The wrote lines (relative to out) and the bytes of every file of
    a successful eval into out."""
    assert main(argv + ["--outdir", str(out)]) == 0
    wrote = capsys.readouterr().out.splitlines()
    return ([os.path.relpath(line[len("wrote "):], out) for line in wrote],
            {name: (out / name).read_bytes() for name in files_under(out)})


class TestEvalPool:
    # Each (noise, image slice) is one task of the fork pool: the front
    # tasks run here, the back ones in workers as CPUs allow.
    def test_outputs_do_not_depend_on_cpus(self, corpus, fusion_ckpt,
                                           capsys, monkeypatch, tmp_path):
        slices_of(monkeypatch, 7)
        runs = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(procs, "cpus", lambda c=cpus: c)
            runs.append(eval_run(
                ["eval", "--data", corpus, "--seed", "5",
                 "--checkpoint", fusion_ckpt, "--filter", "median:3",
                 "--filter", "gauss:0.8", "--filter", "tv:0.1",
                 "--noise", "gaussian:0.1", "--noise", "sp:0.1",
                 "--dump", "2", "--json"], tmp_path / str(cpus), capsys))
        assert runs[0] == runs[1] == runs[2]
        wrote, files = runs[0]
        assert sorted(wrote) == sorted(files)
        assert wrote[-2:] == ["eval.csv", "eval.json"]
        assert len(wrote) == 2 + 2 * 2 * 6  # clean, noisy and 4 pipelines
        methods = [line.split(",")[1] for line in
                   files["eval.csv"].decode().splitlines()[1:]]
        assert methods == ["noisy", "fusion", "median:3", "gauss:0.8",
                           "tv:0.1:50"] * 2

    # (extra flags, the slices' ends at 5 images a slice)
    SPLITS = {"dumps-cross-slices": (["--dump", "7"], [5, 10, 15, 20, 24]),
              "limit-1": (["--eval-limit", "1", "--dump", "1"], [1]),
              "1-image-tail": (["--eval-limit", "11", "--dump", "6"],
                               [5, 11])}

    @pytest.mark.parametrize("split", sorted(SPLITS))
    @pytest.mark.parametrize("net", ["dense", "cnn"])
    def test_slices_give_the_bytes_of_one_whole_slice(
            self, corpus, dense_ckpt, cnn_ckpt, capsys, monkeypatch,
            tmp_path, net, split):
        extra, ends = self.SPLITS[split]
        argv = ["eval", "--data", corpus, "--seed", "5", "--checkpoint",
                {"dense": dense_ckpt, "cnn": cnn_ckpt}[net], "--filter",
                "median:3", "--noise", "gaussian:0.1", "--noise", "sp:0.1",
                "--noise", "none", "--json", *extra]
        monkeypatch.setattr(procs, "cpus", lambda: 1)
        n = ends[-1]
        assert [s.stop for s in cli.plane_chunks(
            n, cli._TASK_ARRAYS * 64)] == [n]
        want = eval_run(argv, tmp_path / "whole", capsys)
        slices_of(monkeypatch, 5)
        assert [s.stop for s in cli.plane_chunks(
            n, cli._TASK_ARRAYS * 64)] == ends
        for cpus in (1, 2, 4):
            monkeypatch.setattr(procs, "cpus", lambda c=cpus: c)
            assert eval_run(argv, tmp_path / str(cpus), capsys) == want

    def test_dead_worker_exits_two_naming_the_slice(
            self, corpus, capsys, monkeypatch, tmp_path):
        # Slices of 8 images: the worker takes the last (images 16-23)
        # and dies corrupting it; this process corrupts the first once
        # the worker has started, then the second.
        started, pid = FORK.Event(), os.getpid()
        corrupt = cli.corrupt_dataset

        def dies(images, spec, seed, start):
            if os.getpid() != pid:
                started.set()
                os._exit(1)
            assert started.wait(10)
            return corrupt(images, spec, seed, start)

        slices_of(monkeypatch, 8)
        monkeypatch.setattr(procs, "cpus", lambda: 2)
        monkeypatch.setattr(cli, "corrupt_dataset", dies)
        out = tmp_path / "out"
        assert main(["eval", "--data", corpus, "--seed", "5", "--filter",
                     "median:3", "--noise", "gaussian:0.1",
                     "--outdir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: eval gaussian:0.1 images 16-23: a "
                                "worker process died\n")
        assert not out.exists()


class TestSweepCommand:
    def test_variant_rows(self, corpus, dense_ckpt, tmp_path):
        out = str(tmp_path)
        assert main(["sweep", "--data", corpus, "--seed", "5",
                     "--checkpoint", dense_ckpt, "--noise", "gaussian:0.1",
                     "--levels-grid", "16,2,ideal", "--dropout-grid", "0.2",
                     "--outdir", out]) == 0
        lines = Path(out, "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("param,value,noise,method")
        params = [(line.split(",")[0], line.split(",")[1])
                  for line in lines[1:]]
        assert params == [("ideal", ""), ("levels", "16"), ("levels", "2"),
                          ("levels", "ideal"), ("dropout", "0.2")]

    def test_requires_checkpoint(self, corpus, capsys, tmp_path):
        assert main(["sweep", "--data", corpus, "--seed", "5",
                     "--noise", "gaussian:0.1", "--outdir", str(tmp_path)]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_rejects_non_dense_checkpoints(self, corpus, capsys, tmp_path):
        out = str(tmp_path)
        assert main(["train", "--data", corpus, "--outdir", out, "--seed", "5",
                     "--net", "cnn", "--noise", "gaussian:0.1", "--lr", "0.05",
                     "--epochs", "1", "--batch", "8", "--limit", "8"]) == 0
        rc = main(["sweep", "--data", corpus, "--seed", "5", "--checkpoint",
                   os.path.join(out, "cnn_gaussian_0.1.bin"),
                   "--noise", "gaussian:0.1", "--outdir", out])
        assert rc == 2
        assert "dense" in capsys.readouterr().err

    def test_requires_real_noise(self, corpus, dense_ckpt, capsys, tmp_path):
        assert main(["sweep", "--data", corpus, "--seed", "5",
                     "--checkpoint", dense_ckpt, "--noise", "none",
                     "--outdir", str(tmp_path)]) == 2


def serial_sweep(argv, outdir):
    """sweep.csv and sweep.json of a sweep that scores one variant after
    another in this process, each variant built from the checkpoint."""
    config = parse_to_config(argv + ["--outdir", str(outdir)])
    _, net = load_net(config["checkpoint"])
    clean = load_dataset(config, "test").subset(config["eval_limit"]).floats()
    seed, grids = config["seed"], config["sweep"]
    variants = (
        [("ideal", "", net)]
        + [("levels", L, net.reprogram(DeviceModel(levels=L), seed=seed))
           for L in grids["levels"]]
        + [("sigma", s, net.reprogram(DeviceModel(variation_sigma=s),
                                      seed=seed)) for s in grids["sigma"]]
        + [("dropout", f, net.with_sparsity(f, 0.0, seed=seed))
           for f in grids["dropout"]]
        + [("prune", f, net.with_sparsity(0.0, f, seed=seed))
           for f in grids["prune"]])
    stamp = f"{config_hash(config)},{seed}"
    lines = ["param,value," + CSV_HEADER + ",config,seed"]
    rows = []
    for text in config["noises"]:
        spec = parse_spec(text)
        noisy = np.clip(corrupt_dataset(clean, spec, seed), 0.0, 1.0)
        for param, value, variant in variants:
            report = quality_report(clean, variant.forward_stack(noisy),
                                    spec.text(), "dense")
            rows.append({"param": param, "value": value,
                         "row": report.to_json()})
            lines.append(f"{param},{value},{report.csv_row()},{stamp}")
    outdir.mkdir()
    (outdir / "sweep.csv").write_text("\n".join(lines) + "\n")
    (outdir / "sweep.json").write_text(json.dumps(
        {"config": config_hash(config), "seed": seed, "rows": rows},
        indent=2) + "\n")
    return [outdir / "sweep.csv", outdir / "sweep.json"]


def files_under(root):
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, names in os.walk(root) for f in names)


GRIDS = ["--levels-grid", "16,4,2", "--sigma-grid", "0.05,0.2",
         "--dropout-grid", "0.1,0.2", "--prune-grid", "0.1,0.2,0.3"]


def sweep_argv(corpus, ckpt, *extra):
    return ["sweep", "--data", corpus, "--seed", "5", "--checkpoint", ckpt,
            "--noise", "gaussian:0.1", "--noise", "sp:0.25", *extra]


class TestParallelRuns:
    # Sweep variants run in forked workers (one per CPU, here forced to
    # several) or, with one CPU, in this process; both give the bytes of
    # a serial loop.
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_sweep_equals_serial_loop(self, corpus, dense_ckpt, capsys,
                                      monkeypatch, tmp_path, cpus):
        argv = sweep_argv(corpus, dense_ckpt, *GRIDS, "--json")
        want = serial_sweep(argv, tmp_path / "serial")
        monkeypatch.setattr(procs, "cpus", lambda: cpus)
        out = tmp_path / "sweep"
        assert main(argv + ["--outdir", str(out)]) == 0
        assert files_under(out) == ["sweep.csv", "sweep.json"]
        for path in want:
            assert (out / path.name).read_bytes() == path.read_bytes()
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {out / p.name}" for p in want]

    @pytest.mark.parametrize("lone, prefix", [
        (["--prune-grid", "0.2"], "prune,0.2,"),
        (["--levels-grid", "4"], "levels,4,")])
    def test_variant_depends_on_checkpoint_and_seed_alone(
            self, corpus, dense_ckpt, tmp_path, lone, prefix):
        def rows(name, grids):
            out = tmp_path / name
            assert main(sweep_argv(corpus, dense_ckpt, *grids,
                                   "--outdir", str(out))) == 0
            lines = (out / "sweep.csv").read_text().splitlines()
            # without the config hash and seed, which differ by grid
            return [line.rsplit(",", 2)[0] for line in lines
                    if line.startswith(prefix)]

        alone = rows("alone", lone)
        assert len(alone) == 2
        assert rows("all", GRIDS) == alone

    def test_dead_sweep_worker_is_one_line_naming_variant(
            self, corpus, dense_ckpt, capsys, monkeypatch, tmp_path):
        # The worker takes the last variant and dies in it; this process
        # scores the first once the worker has started.
        started, pid, build = FORK.Event(), os.getpid(), cli._sweep_variant

        def dies(net, param, value, seed):
            if os.getpid() != pid:
                started.set()
                os._exit(1)
            assert started.wait(10)
            return build(net, param, value, seed)

        monkeypatch.setattr(procs, "cpus", lambda: 2)
        monkeypatch.setattr(cli, "_sweep_variant", dies)
        argv = sweep_argv(corpus, dense_ckpt, "--levels-grid", "4",
                          "--outdir", str(tmp_path))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: sweep levels 4: a worker process "
                                "died\n")
        assert os.listdir(tmp_path) == []

    def test_sweep_worker_cli_error_keeps_its_message(
            self, corpus, dense_ckpt, capsys, monkeypatch, tmp_path):
        build = cli._sweep_variant

        def fails_at_levels(net, param, value, seed):
            if param == "levels":
                raise CliError(f"cannot program {value} levels")
            return build(net, param, value, seed)

        monkeypatch.setattr(procs, "cpus", lambda: 2)
        monkeypatch.setattr(cli, "_sweep_variant", fails_at_levels)
        argv = sweep_argv(corpus, dense_ckpt, "--levels-grid", "4,2",
                          "--prune-grid", "0.1", "--outdir", str(tmp_path))
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: cannot program 4 levels\n"

class TestClassifyCommand:
    @pytest.fixture(scope="class")
    def classifier_ckpt(self, corpus, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("clf"))
        assert main(["classify", "--data", corpus, "--seed", "5",
                     "--outdir", out]) == 0
        return os.path.join(out, "classifier.bin")

    @pytest.mark.parametrize("damage", ["truncated", "trailing-byte",
                                        "trailing-16", "missing-hidden"])
    def test_damaged_classifier_returns_two(self, corpus, classifier_ckpt,
                                            capsys, tmp_path, damage):
        blob = Path(classifier_ckpt).read_bytes()
        if damage == "truncated":
            blob = blob[:-8]
        elif damage == "trailing-byte":
            blob += b"\x00"
        elif damage == "trailing-16":
            blob += bytes(16)
        else:
            # the hidden layer's arrays, gone from header and payload
            blob = drop_arrays(blob, {"w1", "b1"})
        bad = tmp_path / "clf.bin"
        bad.write_bytes(blob)
        assert main(["classify", "--data", corpus, "--seed", "5",
                     "--classifier", str(bad), "--outdir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count(str(bad)) == 1
        if damage == "missing-hidden":
            assert "lacks 'w1'" in err
        else:
            assert "bytes, expected" in err

    def test_row_structure_and_artifacts(self, corpus, dense_ckpt, tmp_path):
        out = str(tmp_path)
        assert main(["classify", "--data", corpus, "--seed", "5",
                     "--noise", "gaussian:0.5", "--checkpoint", dense_ckpt,
                     "--outdir", out]) == 0
        assert os.path.isfile(os.path.join(out, "classifier.bin"))
        lines = Path(out, "classify.csv").read_text().splitlines()
        assert lines[0] == "noise,condition,accuracy,n,config,seed"
        conditions = [line.split(",")[1] for line in lines[1:]]
        assert conditions == ["clean", "noisy", "denoised(dense)"]
        for line in lines[1:]:
            assert 0.0 <= float(line.split(",")[2]) <= 1.0

    def test_each_noise_corrupts_the_split_once(self, corpus, dense_ckpt,
                                                classifier_ckpt, tmp_path,
                                                monkeypatch):
        # The noisy and the denoised row of a noise score one corruption.
        calls = []

        def counted(images, spec, *args):
            calls.append(spec.text())
            return corrupt_dataset(images, spec, *args)

        monkeypatch.setattr(cli, "corrupt_dataset", counted)
        monkeypatch.setattr(classify, "corrupt_dataset", counted)
        assert main(["classify", "--data", corpus, "--seed", "5",
                     "--noise", "gaussian:0.5", "--noise", "sp:0.1",
                     "--checkpoint", dense_ckpt, "--classifier",
                     classifier_ckpt, "--outdir", str(tmp_path)]) == 0
        assert calls == ["gaussian:0.5", "sp:0.1"]
        lines = Path(tmp_path, "classify.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["", "clean"], ["gaussian:0.5", "noisy"],
            ["gaussian:0.5", "denoised(dense)"], ["sp:0.1", "noisy"],
            ["sp:0.1", "denoised(dense)"]]

    def test_none_noise_writes_no_row(self, corpus, classifier_ckpt,
                                      tmp_path):
        assert main(["classify", "--data", corpus, "--seed", "5",
                     "--noise", "none", "--noise", "sp:0.1", "--classifier",
                     classifier_ckpt, "--outdir", str(tmp_path)]) == 0
        lines = Path(tmp_path, "classify.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["", "clean"], ["sp:0.1", "noisy"]]

    def test_reused_classifier_skips_retraining(self, corpus, dense_ckpt,
                                                tmp_path):
        first = str(tmp_path / "a")
        second = str(tmp_path / "b")
        argv = ["classify", "--data", corpus, "--seed", "5",
                "--noise", "gaussian:0.5", "--outdir", first]
        assert main(argv) == 0
        saved = os.path.join(first, "classifier.bin")
        assert main(["classify", "--data", corpus, "--seed", "5",
                     "--noise", "gaussian:0.5", "--classifier", saved,
                     "--outdir", second]) == 0
        assert not os.path.exists(os.path.join(second, "classifier.bin"))
        clean = lambda path: Path(path, "classify.csv").read_text() \
            .splitlines()[1].split(",")[2]
        assert clean(first) == clean(second)


FUSE = ["train", "--net", "fusion"]


class TestFuseCommand:
    """Fusing the member bank: `train --net fusion`."""

    def test_fuse_is_not_a_subcommand(self, corpus, member_dir, capsys):
        with pytest.raises(SystemExit) as info:
            main(["fuse", "--data", corpus, "--seed", "5",
                  "--members", member_dir])
        assert info.value.code == 2
        assert "invalid choice: 'fuse'" in capsys.readouterr().err

    def test_missing_members_lists_every_path(self, corpus, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(FUSE + ["--data", corpus, "--seed", "5", "--members",
                            str(empty), "--outdir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        for spec in STANDARD_NOISES:
            assert "dense_%s.bin" % spec.text().replace(":", "_") in err

    def test_requires_members_flag(self, corpus, capsys, tmp_path):
        assert main(FUSE + ["--data", corpus, "--seed", "5",
                            "--outdir", str(tmp_path)]) == 2
        assert "--members" in capsys.readouterr().err

    def test_rejects_non_dense_members(self, corpus, member_dir, tmp_path):
        out = str(tmp_path)
        assert main(["train", "--data", corpus, "--outdir", out, "--seed", "5",
                     "--net", "cnn", "--noise", "gaussian:0.1", "--lr", "0.05",
                     "--epochs", "1", "--batch", "8", "--limit", "8"]) == 0
        bank = tmp_path / "bank"
        shutil.copytree(member_dir, bank)
        shutil.copy(os.path.join(out, "cnn_gaussian_0.1.bin"),
                    bank / "dense_speckle_1.bin")
        assert main(FUSE + ["--data", corpus, "--seed", "5",
                            "--members", str(bank), "--outdir", out]) == 2

    def test_rejects_a_member_of_another_noise(self, corpus, member_dir,
                                               capsys, tmp_path):
        bank = tmp_path / "bank"
        shutil.copytree(member_dir, bank)
        shutil.copy(bank / "dense_gaussian_0.1.bin",
                    bank / "dense_speckle_1.bin")
        assert main(FUSE + ["--data", corpus, "--seed", "5", "--members",
                            str(bank), "--outdir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bank / 'dense_speckle_1.bin'}: member trained on "
            "'gaussian:0.1', not speckle:1\n")
        assert not (tmp_path / "fusion.bin").exists()

    def test_trains_and_saves_fusion_net(self, corpus, member_dir, tmp_path):
        out = str(tmp_path)
        assert main(FUSE + ["--data", corpus, "--seed", "5",
                            "--members", str(member_dir), "--epochs", "1",
                            "--limit", "16", "--outdir", out]) == 0
        kind, net = load_net(os.path.join(out, "fusion.bin"))
        assert kind == "fusion"
        assert isinstance(net, FusionDenoiser)
        assert len(net.members) == 8
        lines = Path(out, "train_log.csv").read_text().splitlines()
        assert lines[1].startswith("fusion,,1,")

    @pytest.mark.parametrize("fault, cause", [
        ("raise", "the read-ahead process raised ValueError: boom"),
        ("kill", "a worker process died")])
    def test_read_ahead_failure_exits_two(self, corpus, member_dir, capsys,
                                          monkeypatch, tmp_path, fault,
                                          cause):
        # The member readouts run in a child forked for the epoch: an
        # exception there, or its death, exits 2 naming the cause, and the
        # child is waited for.
        parent, read = os.getpid(), DenseDenoiser.forward_stack

        def forward_stack(net, images):
            if os.getpid() != parent:
                if fault == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise ValueError("boom")
            return read(net, images)

        monkeypatch.setattr(DenseDenoiser, "forward_stack", forward_stack)
        monkeypatch.setattr(procs, "cpus", lambda: 2)
        out = tmp_path / "out"
        assert main(FUSE + ["--data", corpus, "--seed", "5", "--members",
                            member_dir, "--epochs", "1", "--limit", "16",
                            "--outdir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: training fusion: {cause}\n"
        assert multiprocessing.active_children() == []
        assert not (out / "fusion.bin").exists()

    def test_divergence_names_fusion_like_a_bank_member(
            self, corpus, capsys, monkeypatch, tmp_path):
        def diverges(cfg, members, data):
            raise TrainingDivergence(2, 9.0, 1.0, [1.0, 9.0])

        monkeypatch.setattr(cli, "member_bank", lambda config: [])
        monkeypatch.setattr(cli, "fusion_train", diverges)
        assert main(FUSE + ["--data", corpus, "--seed", "5", "--members",
                            "bank", "--outdir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (
            "diverged: fusion diverged at epoch 2: rmse 9, initial 1 "
            "(log: 1, 9)\n")

    def test_first_epoch_blowup_exits_three(self, capsys, tmp_path):
        # Members trained at a high rate on 16 random 16x16 images make the
        # fusion stage blow up inside its only epoch (an RMSE near 7.6e10
        # on planes in [0, 1]). Epoch one is judged against the untrained
        # score of its first minibatch, so nothing is written.
        rng = np.random.default_rng(2)
        write_idx_images(tmp_path / "train-images-idx3-ubyte",
                         rng.integers(0, 256, (300, 16, 16), dtype=np.uint8))
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte",
                         (np.arange(300) % 10).astype(np.uint8))
        common = ["--data", str(tmp_path), "--seed", "5", "--epochs", "1"]
        members, out = str(tmp_path / "members"), tmp_path / "fusion"
        assert main(["train", *common, "--limit", "16", "--lr", "0.05",
                     *noise_flags(s.text() for s in STANDARD_NOISES),
                     "--outdir", members]) == 0
        capsys.readouterr()
        assert main(FUSE + common + ["--lr", "0.05", "--members", members,
                                     "--outdir", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "diverged at epoch 1" in err[0]
        assert not out.exists() or not any(out.iterdir())


def on_grid(values, gain, levels):
    """Whether values are gain * k / (levels - 1) for integers k."""
    steps = np.abs(values) / gain * (levels - 1)
    return np.allclose(steps, np.round(steps), rtol=0.0, atol=1e-9)


class TestDeviceInLoop:
    """train --device-in-loop reprograms the weights every epoch, so the
    trained weights sit on the device's level grid."""

    def test_dense(self, corpus, tmp_path):
        runs = {}
        for name, extra in (("loop", ["--device-in-loop"]), ("once", [])):
            out = tmp_path / name
            assert main(["train", "--data", corpus, "--outdir", str(out),
                         "--levels", "16"] + TRAIN_ARGS + extra) == 0
            runs[name] = load_net(str(out / "dense_gaussian_0.1.bin"))[1]
        loop, once = runs["loop"], runs["once"]
        assert loop.device.levels == once.device.levels == 16
        assert on_grid(loop.layer.weights, loop.layer.gain, 16)
        assert not on_grid(once.layer.weights, once.layer.gain, 16)

    def test_fusion(self, corpus, member_dir, tmp_path):
        runs = {}
        for name, extra in (("loop", ["--device-in-loop"]), ("once", [])):
            out = tmp_path / name
            assert main(FUSE + ["--data", corpus, "--seed", "5", "--members",
                                member_dir, "--levels", "16", "--epochs", "2",
                                "--limit", "16", "--outdir", str(out)]
                        + extra) == 0
            runs[name] = load_net(str(out / "fusion.bin"))[1]
        loop, once = runs["loop"], runs["once"]
        assert loop.device.levels == once.device.levels == 16
        assert on_grid(loop.kernel, loop.layer.gain, 16)
        assert not on_grid(once.kernel, once.layer.gain, 16)


def test_cnn_checkpoint_scores_odd_sized_images(corpus, tmp_path):
    # 9x9 planes take the CNN's reflect-pad and crop path; the eval row
    # is the score of the checkpoint's own forward_stack.
    root = tmp_path / "idx9"
    root.mkdir()
    rng = np.random.default_rng(3)
    write_idx_images(root / "t10k-images-idx3-ubyte",
                     rng.integers(0, 256, (12, 9, 9), dtype=np.uint8))
    write_idx_labels(root / "t10k-labels-idx1-ubyte",
                     (np.arange(12) % 10).astype(np.uint8))
    assert main(["train", "--data", corpus, "--seed", "1", "--net", "cnn",
                 "--epochs", "1", "--limit", "8", "--outdir",
                 str(tmp_path)]) == 0
    ckpt = str(tmp_path / "cnn_gaussian_0.1.bin")
    assert main(["eval", "--data", str(root), "--seed", "2", "--checkpoint",
                 ckpt, "--json", "--outdir", str(tmp_path / "eval")]) == 0
    rows = json.loads((tmp_path / "eval" / "eval.json").read_text())["rows"]
    assert [row["method"] for row in rows] == ["noisy", "cnn"]
    clean = load_dataset({"data_path": str(root), "dataset": "mnist"},
                         "test").floats()
    noisy = corrupt_dataset(clean, parse_spec("gaussian:0.1"), 2)
    denoised = load_net(ckpt)[1].forward_stack(noisy)
    assert denoised.shape == (12, 9, 9)
    assert rows[1] == quality_report(clean, denoised, "gaussian:0.1",
                                     "cnn").to_json()


def write_cifar_batch(path, rng, n):
    """n CIFAR-10 binary records: a label byte, then 3 x 32 x 32 pixels."""
    records = rng.integers(0, 256, (n, 3073), dtype=np.uint8)
    records[:, 0] = np.arange(n) % 10
    path.write_bytes(records.tobytes())


@pytest.fixture(scope="module")
def cifar(tmp_path_factory):
    root = tmp_path_factory.mktemp("cifar")
    rng = np.random.default_rng(4)
    for i in range(1, 6):
        write_cifar_batch(root / f"data_batch_{i}.bin", rng, 4)
    write_cifar_batch(root / "test_batch.bin", rng, 6)
    return str(root)


class TestCifar10:
    """Every command on RGB images: denoisers, filters and SSIM work on
    channel planes, and the classifier reads whole images."""

    def run(self, cifar, *argv):
        assert main([*argv, "--dataset", "cifar10", "--data", cifar,
                     "--seed", "1"]) == 0

    @pytest.fixture(scope="class")
    def nets(self, cifar, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("cifar_nets"))
        for net in ("dense", "cnn"):
            self.run(cifar, "train", "--net", net, "--epochs", "1",
                     "--limit", "8", "--outdir", out)
        return out

    def test_eval_dumps_ppm_images(self, cifar, nets, tmp_path):
        self.run(cifar, "eval", "--checkpoint",
                 f"{nets}/dense_gaussian_0.1.bin",
                 "--filter", "median:3", "--dump", "1", "--eval-limit", "4",
                 "--outdir", str(tmp_path))
        lines = (tmp_path / "eval.csv").read_text().splitlines()[1:]
        assert [line.split(",")[1] for line in lines] == [
            "noisy", "dense", "median:3"]
        assert all(line.split(",")[5] == "4" for line in lines)
        base = tmp_path / "images" / "gaussian_0.1"
        names = sorted(os.listdir(base))
        assert names == ["clean_0.ppm", "dense_0.ppm", "median_3_0.ppm",
                         "noisy_0.ppm"]
        for name in names:
            assert (base / name).read_bytes().startswith(b"P6\n32 32\n")

    def test_eval_scores_cnn(self, cifar, nets, tmp_path):
        self.run(cifar, "eval", "--checkpoint", f"{nets}/cnn_gaussian_0.1.bin",
                 "--eval-limit", "4", "--outdir", str(tmp_path))
        lines = (tmp_path / "eval.csv").read_text().splitlines()[1:]
        assert [line.split(",")[1] for line in lines] == ["noisy", "cnn"]

    def test_sweep(self, cifar, nets, tmp_path):
        self.run(cifar, "sweep", "--checkpoint",
                 f"{nets}/dense_gaussian_0.1.bin", "--levels-grid", "4",
                 "--eval-limit", "4", "--outdir", str(tmp_path))
        lines = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == ["ideal", "levels"]

    def test_classify_rows_count_images(self, cifar, nets, tmp_path):
        self.run(cifar, "classify", "--checkpoint",
                 f"{nets}/dense_gaussian_0.1.bin", "--eval-limit", "5",
                 "--outdir", str(tmp_path))
        lines = (tmp_path / "classify.csv").read_text().splitlines()[1:]
        assert [line.split(",")[1] for line in lines] == [
            "clean", "noisy", "denoised(dense)"]
        assert all(line.split(",")[3] == "5" for line in lines)
        _, clf = load_net(str(tmp_path / "classifier.bin"),
                          kinds={"classifier": Classifier.from_state})
        assert clf.shape == (32, 32, 3)


class TestBlasThreads:
    """eval's reports and fusion training's checkpoint are the same bytes
    under one and two BLAS threads.

    Each command runs in a subprocess that sets its own thread count; the
    16x16 readouts are large enough for OpenBLAS to split them across
    threads when it has two.
    """

    @pytest.fixture(scope="class")
    def nets(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("blas")
        rng = np.random.default_rng(2)
        for prefix, n in (("train", 300), ("t10k", 64)):
            write_idx_images(root / f"{prefix}-images-idx3-ubyte",
                             rng.integers(0, 256, (n, 16, 16), dtype=np.uint8))
            write_idx_labels(root / f"{prefix}-labels-idx1-ubyte",
                             (np.arange(n) % 10).astype(np.uint8))
        out = str(root / "nets")
        common = ["--data", str(root), "--seed", "5", "--epochs", "1",
                  "--limit", "16", "--outdir", out]
        noises = [arg for spec in STANDARD_NOISES
                  for arg in ("--noise", spec.text())]
        assert main(["train", *common, "--lr", "0.05", *noises]) == 0
        assert main(FUSE + common + ["--members", out]) == 0
        assert main(["train", "--net", "cnn", *common]) == 0
        return str(root), {"fusion": f"{out}/fusion.bin",
                           "cnn": f"{out}/cnn_gaussian_0.1.bin"}

    @staticmethod
    def run(argv, threads):
        """memdenoise argv in a subprocess with that many BLAS threads."""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "memdenoise.cli", *argv],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("kind", ["fusion", "cnn"])
    def test_eval_reports_do_not_depend_on_threads(self, nets, tmp_path,
                                                   kind):
        data, paths = nets
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            self.run(["eval", "--data", data, "--seed", "1", "--checkpoint",
                      paths[kind], "--noise", "gaussian:0.1", "--noise",
                      "sp:0.1", "--json", "--outdir", str(out)], threads)
            reports.append([(out / name).read_bytes()
                            for name in ("eval.csv", "eval.json")])
        assert reports[0] == reports[1]

    def test_fusion_training_does_not_depend_on_threads(self, nets,
                                                        tmp_path):
        # 300 samples of 8 x 256 member outputs: blocks of 256 and 44 rows
        # (32 minibatches of 8, then 5 and a 4-sample tail).
        data, paths = nets
        trained = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            self.run([*FUSE, "--data", data, "--seed", "3", "--epochs", "2",
                      "--lr", "0.002", "--members",
                      os.path.dirname(paths["fusion"]), "--outdir", str(out)],
                     threads)
            trained.append([(out / name).read_bytes()
                            for name in ("fusion.bin", "train_log.csv")])
        assert trained[0] == trained[1]
