"""The benchmark's workloads: set-up, measured CLI operations, output checks.

Each workload drives the unmodified ``memdenoise.cli.main`` in-process.
The process works inside its own directory and passes only fixed
relative paths, because the CLI hashes the ``--checkpoint`` and
``--members`` paths into every report row: the same seed then gives the
same bytes wherever the checkout lives.

Why these three:

* ``train_bank`` is the paper's most expensive flow: the 8-member dense
  bank, the fusion stage over it, and one CNN. It loads the per-sample
  noise substreams, the delta rule, CNN per-sample SGD, and readouts of
  about 8 rows per call (fusion training). It does no scoring.
* ``eval_quality`` is the inference-and-scoring path on checkpoints
  made at set-up: readouts of 1000 rows or more per call, im2col over
  whole stacks, SSIM on every image, and the TV/median/Gaussian
  baselines. No training.
* ``sweep_classify`` uses the same crossbar and metrics layers the other
  way round: many programmings (``crossbar.program``,
  ``apply_sparsity``), each read once. It adds classifier training and
  the ``hwcost`` tables.
"""

import contextlib
import hashlib
import io
import json
import math
import traceback
from collections import namedtuple

import corpus
from memdenoise import cli, hwcost
from memdenoise.noise import STANDARD_NOISES

BANK = tuple(spec.text() for spec in STANDARD_NOISES)

# Noises scored in eval_quality and sweep_classify.
EVAL_NOISES = ("gaussian:0.1",)
SWEEP_NOISES = ("gaussian:0.1", "sp:0.25")
CLASSIFY_NOISES = ("gaussian:0.5", "sp:0.25")
FILTERS = ("median:3", "gauss:0.8", "tv:0.1")
# Many device variants on few images: the sweep programs a fresh array
# (or fresh masks) per variant and reads each once.
SWEEP_GRIDS = ("--levels-grid", "256,128,64,32,16,8,4,2",
               "--sigma-grid", "0.025,0.05,0.1,0.2",
               "--dropout-grid", "0.1,0.2,0.3", "--prune-grid", "0.1,0.2,0.3")
SWEEP_VARIANTS = 1 + 8 + 4 + 3 + 3
CLASSIFIER_EPOCHS = 5  # fixed inside cmd_classify

# Work per pass. "full" is what the benchmark measures; "toy" only
# exercises every path quickly (smoke test).
SIZES = {
    "full": {
        "bank_train": 2000, "bank_test": 200, "dense_limit": 1000,
        "fusion_limit": 500, "cnn_limit": 400, "probe_images": 64,
        "eval_train": 600, "eval_images": 1000, "fusion_images": 500,
        "ckpt_limit": 300, "ckpt_small_limit": 100,
        "classify_train": 16000, "classify_images": 500, "sweep_images": 200,
    },
    "toy": {
        "bank_train": 60, "bank_test": 16, "dense_limit": 24,
        "fusion_limit": 8, "cnn_limit": 4, "probe_images": 8,
        "eval_train": 40, "eval_images": 12, "fusion_images": 8,
        "ckpt_limit": 16, "ckpt_small_limit": 4,
        "classify_train": 100, "classify_images": 12, "sweep_images": 8,
    },
}

Op = namedtuple("Op", "name argv images flow")


def invoke(argv):
    """Run cli.main in-process; (ok, message). Never raises."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except SystemExit as e:
        return False, f"exit {e.code}"
    except Exception:
        return False, traceback.format_exc()
    return rc == 0, "" if rc == 0 else f"exit code {rc}"


def _noise_flags(texts):
    return [arg for text in texts for arg in ("--noise", text)]


class Findings:
    """Digests and failures collected by one pass's output checks."""

    def __init__(self):
        self.digests = {}   # artifact path -> sha256
        self.owner = {}     # artifact path -> op name
        self.failures = []  # (op name, message)

    def fail(self, op, message):
        self.failures.append((op, message))

    def digest(self, op, path):
        self.owner[path] = op
        try:
            with open(path, "rb") as f:
                self.digests[path] = hashlib.sha256(f.read()).hexdigest()
        except OSError as e:
            self.fail(op, f"{path}: {e}")

    def json_rows(self, op, path):
        self.digest(op, path)
        try:
            with open(path) as f:
                return json.load(f)["rows"]
        except (OSError, ValueError, KeyError, TypeError) as e:
            self.fail(op, f"{path}: {e}")
            return []

    def csv_lines(self, op, path, rows):
        """Digest a CSV report and check it has a header plus `rows` lines."""
        self.digest(op, path)
        try:
            with open(path) as f:
                lines = f.read().splitlines()
        except OSError as e:
            self.fail(op, f"{path}: {e}")
            return []
        if len(lines) != rows + 1:
            self.fail(op, f"{path}: {len(lines) - 1} rows, expected {rows}")
        return lines[1:]

    def quality(self, op, stem, rows_expected, n):
        """Check an eval/sweep JSON+CSV pair row by row."""
        rows = self.json_rows(op, stem + ".json")
        self.csv_lines(op, stem + ".csv", rows_expected)
        if len(rows) != rows_expected:
            self.fail(op, f"{stem}.json: {len(rows)} rows, expected "
                          f"{rows_expected}")
        for row in rows:
            row = row.get("row", row) if isinstance(row, dict) else {}
            mse, psnr, ssim = row.get("mse"), row.get("psnr"), row.get("ssim")
            if row.get("n") != n:
                self.fail(op, f"{stem}: row n={row.get('n')}, expected {n}")
            if not (isinstance(ssim, float) and -1.0 <= ssim <= 1.0):
                self.fail(op, f"{stem}: ssim {ssim!r} outside [-1, 1]")
            if not (isinstance(mse, float) and mse > 0.0 and psnr is not None
                    and math.isclose(psnr, 10.0 * math.log10(1.0 / mse),
                                     rel_tol=1e-12)):
                self.fail(op, f"{stem}: psnr {psnr!r} != 10 log10(1/{mse!r})")
            # Unclipped additive noise: the noisy MSE estimates the variance
            # (within 5%, many standard errors at 64 x 784 pixels or more).
            noise = row.get("noise", "")
            if (row.get("method") == "noisy" and isinstance(mse, float)
                    and noise.startswith("gaussian:")):
                variance = float(noise.split(":")[1])
                if abs(mse / variance - 1.0) > 0.05:
                    self.fail(op, f"{stem}: noisy mse {mse!r} for {noise}")
        return rows

    def train_log(self, op, path, rows_expected):
        for line in self.csv_lines(op, path, rows_expected):
            try:
                rmse = float(line.split(",")[3])
            except (IndexError, ValueError):
                rmse = math.nan
            if not (math.isfinite(rmse) and rmse > 0.0):
                self.fail(op, f"{path}: rmse {rmse!r}")


class Workload:
    """Set-up and measured operations of one workload at one seed."""

    name = ""

    def __init__(self, seed, size="full"):
        self.seed = seed
        self.size = SIZES[size]
        self.data = ["--data", "corpus", "--seed", str(seed)]

    def train(self, *argv):
        """A one-epoch `train` invocation on the corpus."""
        return ["train", *self.data, "--epochs", "1", *argv]

    def run_setup(self, *invocations):
        for argv in invocations:
            ok, message = invoke(argv)
            if not ok:
                raise RuntimeError(f"set-up step {argv} failed: {message}")

    def setup(self):
        raise NotImplementedError

    def ops(self):
        raise NotImplementedError

    def check(self):
        raise NotImplementedError


class TrainBank(Workload):
    """Dense bank, fusion over it, one CNN; no scoring."""

    name = "train_bank"

    def setup(self):
        corpus.write_corpus("corpus", self.seed, self.size["bank_train"],
                            self.size["bank_test"])

    def ops(self):
        s = self.size
        return [
            Op("train_dense", self.train(
                "--net", "dense", *_noise_flags(BANK),
                "--limit", str(s["dense_limit"]), "--outdir", "bank"),
               len(BANK) * s["dense_limit"], "train_dense_s"),
            Op("train_fusion", self.train(
                "--net", "fusion", "--members", "bank",
                "--limit", str(s["fusion_limit"]), "--outdir", "fusion"),
               s["fusion_limit"], "train_fusion_s"),
            Op("train_cnn", self.train(
                "--net", "cnn", "--noise", "gaussian:0.1",
                "--limit", str(s["cnn_limit"]), "--outdir", "cnn"),
               s["cnn_limit"], "train_cnn_s"),
        ]

    def check(self):
        f = Findings()
        f.train_log("train_dense", "bank/train_log.csv", 8)
        f.train_log("train_fusion", "fusion/train_log.csv", 1)
        f.train_log("train_cnn", "cnn/train_log.csv", 1)
        # The trained nets are checked by what they output, not by their
        # checkpoint bytes. The fusion probe runs every bank member too.
        n = self.size["probe_images"]
        for op, ckpt, noise, label in (
                ("train_fusion", "fusion/fusion.bin", "sp:0.1", "fusion"),
                ("train_cnn", "cnn/cnn_gaussian_0.1.bin", "gaussian:0.1",
                 "cnn")):
            out = f"probe_{label}"
            ok, message = invoke([
                "eval", *self.data, "--noise", noise, "--checkpoint", ckpt,
                "--eval-limit", str(n), "--json", "--outdir", out])
            if not ok:
                f.fail(op, f"probe eval of {ckpt}: {message}")
                continue
            f.quality(op, f"{out}/eval", 2, n)
        return f


class EvalQuality(Workload):
    """Scoring of fusion, CNN and dense checkpoints and three baselines."""

    name = "eval_quality"

    def setup(self):
        s = self.size
        small = str(s["ckpt_small_limit"])
        corpus.write_corpus("corpus", self.seed, s["eval_train"],
                            s["eval_images"])
        self.run_setup(
            self.train("--net", "dense", *_noise_flags(BANK),
                       "--limit", str(s["ckpt_limit"]), "--outdir", "members"),
            self.train("--net", "fusion", "--members", "members",
                       "--limit", small, "--outdir", "fusion"),
            self.train("--net", "cnn", "--noise", "gaussian:0.1",
                       "--limit", small, "--outdir", "cnn"))

    def ops(self):
        n, n_fusion = self.size["eval_images"], self.size["fusion_images"]
        k = len(EVAL_NOISES)
        filters = [arg for text in FILTERS for arg in ("--filter", text)]

        def ev(limit, ckpt, out, *extra):
            return ["eval", *self.data, *_noise_flags(EVAL_NOISES),
                    "--eval-limit", str(limit), "--json", "--checkpoint", ckpt,
                    *extra, "--outdir", out]

        return [
            Op("eval_fusion", ev(n_fusion, "fusion/fusion.bin", "eval_fusion",
                                 *filters), k * n_fusion * (1 + len(FILTERS)),
               None),
            Op("eval_cnn", ev(n, "cnn/cnn_gaussian_0.1.bin", "eval_cnn"),
               k * n, None),
            Op("eval_dense", ev(n, "members/dense_gaussian_0.1.bin",
                                "eval_dense"), k * n, None),
        ]

    def check(self):
        f = Findings()
        n, n_fusion = self.size["eval_images"], self.size["fusion_images"]
        k = len(EVAL_NOISES)
        f.quality("eval_fusion", "eval_fusion/eval", k * (2 + len(FILTERS)),
                  n_fusion)
        f.quality("eval_cnn", "eval_cnn/eval", k * 2, n)
        f.quality("eval_dense", "eval_dense/eval", k * 2, n)
        return f


class SweepClassify(Workload):
    """Device sweep of a dense checkpoint, classifier, hwcost tables."""

    name = "sweep_classify"

    def setup(self):
        s = self.size
        corpus.write_corpus("corpus", self.seed, s["classify_train"],
                            s["classify_images"])
        self.run_setup(self.train(
            "--net", "dense", "--noise", "gaussian:0.1",
            "--limit", str(s["dense_limit"]), "--outdir", "dense"))

    def ops(self):
        s = self.size
        n, n_classify = s["sweep_images"], s["classify_images"]
        ckpt = ["--checkpoint", "dense/dense_gaussian_0.1.bin"]
        rows = 1 + 2 * len(CLASSIFY_NOISES)
        return [
            Op("sweep", ["sweep", *self.data, *_noise_flags(SWEEP_NOISES),
                         *ckpt, *SWEEP_GRIDS, "--eval-limit", str(n),
                         "--json", "--outdir", "sweep"],
               len(SWEEP_NOISES) * SWEEP_VARIANTS * n, "sweep_s"),
            Op("classify", ["classify", *self.data,
                            *_noise_flags(CLASSIFY_NOISES), *ckpt,
                            "--eval-limit", str(n_classify), "--json",
                            "--outdir", "classify"],
               CLASSIFIER_EPOCHS * s["classify_train"] + rows * n_classify,
               "classify_s"),
            Op("cost_dense", ["cost", "--seed", str(self.seed), "--net",
                              "dense", "--json", "--outdir", "cost_dense"],
               0, None),
            Op("cost_cnn", ["cost", "--seed", str(self.seed), "--net", "cnn",
                            "--json", "--outdir", "cost_cnn"], 0, None),
        ]

    def check(self):
        f = Findings()
        f.quality("sweep", "sweep/sweep", len(SWEEP_NOISES) * SWEEP_VARIANTS,
                  self.size["sweep_images"])
        rows = [r for r in f.json_rows("classify", "classify/classify.json")
                if isinstance(r, dict)]
        expected = ["clean"] + ["noisy", "denoised(dense)"] * len(
            CLASSIFY_NOISES)
        f.csv_lines("classify", "classify/classify.csv", len(expected))
        if [r.get("condition") for r in rows] != expected:
            f.fail("classify", f"classify conditions "
                               f"{[r.get('condition') for r in rows]}")
        n = self.size["classify_images"]
        for r in rows:
            if not (0.0 <= r.get("accuracy", -1.0) <= 1.0 and r.get("n") == n):
                f.fail("classify", f"classify row {r}")
        # The dense design point is the 785 x 784 array the dense nets use.
        for op, net, tiles in (("cost_dense", "dense",
                                hwcost.count_tiles(785, 784)),
                               ("cost_cnn", "cnn", None)):
            rows = f.json_rows(op, f"{op}/cost.json")
            if len(rows) != 1 or rows[0].get("network") != net:
                f.fail(op, f"{op}/cost.json: rows {rows}")
            elif tiles is not None and rows[0]["tiles_per_polarity"] != tiles:
                f.fail(op, f"{op}/cost.json: tiles_per_polarity "
                           f"{rows[0]['tiles_per_polarity']} != {tiles}")
        return f


WORKLOADS = {w.name: w for w in (TrainBank, EvalQuality, SweepClassify)}
