"""Acceptance gate: one test per published claim group.

Each criterion is a single test function so the verbose run prints one
pass/fail line per claim.  Measured values are printed and carried in
assertion messages, so a red line documents the measurement, not just
the mismatch.  Networks are trained by the session fixtures at the
exact recipes the command line ships with.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (EVAL_SEED, quality_report, write_idx_images,
                      write_idx_labels)
from memdenoise import hwcost, metrics
from memdenoise.cli import cost_point, main
from memdenoise.crossbar import TILE_COLS, TILE_ROWS, matmul, program, tile_grid
from memdenoise.device import DeviceModel, quantize
from memdenoise.hwcost import ComponentBudget, count_tiles
from memdenoise.classify import evaluate
from memdenoise.nets.cnn import (KERNELS, CnnDenoiser, _float_forward,
                                 cnn_loss_and_grads)
from memdenoise.baselines import FilterSpec, filter_stack
from memdenoise.noise import STANDARD_NOISES, corrupt_dataset, parse_spec

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="module")
def eval_images(mnist_test):
    images = mnist_test.floats(slice(1000))
    assert len(images) >= 1000
    return images


@pytest.fixture(scope="module")
def noisy_stacks(eval_images):
    texts = ("gaussian:0.01", "gaussian:0.5", "sp:0.1")
    return {text: corrupt_dataset(eval_images, parse_spec(text), EVAL_SEED)
            for text in texts}


@pytest.fixture(scope="module")
def ideal_reports(member_bank, eval_images, noisy_stacks):
    reports = {}
    for text, noisy in noisy_stacks.items():
        denoised = member_bank[text].forward_stack(noisy)
        reports[text] = quality_report(eval_images, denoised,
                                               noise=text, method="dense")
    return reports


def within(value, center, tolerance):
    return center - tolerance <= value <= center + tolerance


def test_criterion_1_tile_arithmetic():
    start = time.monotonic()
    grid = tile_grid(784, 784)
    assert grid == (4, 13)
    assert count_tiles(784, 784) == 52
    assert count_tiles(785, 784) == 52

    def axis_blocks(extent, block):
        count = 0
        for _ in range(0, extent, block):
            count += 1
        return count

    row_counts = [0] + [axis_blocks(r, TILE_ROWS) for r in range(1, 2049)]
    col_counts = [0] + [axis_blocks(c, TILE_COLS) for c in range(1, 2049)]
    for extent in range(1, 2049):
        assert tile_grid(extent, 64)[0] == row_counts[extent]
        assert tile_grid(256, extent)[1] == col_counts[extent]

    rng = np.random.default_rng(0)
    for rows, cols in zip(rng.integers(1, 2049, 2000),
                          rng.integers(1, 2049, 2000)):
        brute = 0
        for _ in range(0, int(rows), TILE_ROWS):
            for _ in range(0, int(cols), TILE_COLS):
                brute += 1
        assert count_tiles(int(rows), int(cols)) == brute
        assert brute == row_counts[rows] * col_counts[cols]

    elapsed = time.monotonic() - start
    print(f"criterion 1: 784x784 -> {grid[0]}x{grid[1]} = 52 tiles per "
          f"polarity, oracle agreement over all extents <= 2048, "
          f"{elapsed:.2f}s")
    assert elapsed < 1.0


@pytest.mark.slow
def test_criterion_2_dense_denoiser_quality(ideal_reports):
    g01 = ideal_reports["gaussian:0.01"]
    g50 = ideal_reports["gaussian:0.5"]
    sp10 = ideal_reports["sp:0.1"]
    print(f"criterion 2: gaussian:0.01 SSIM {g01.ssim:.4f} MSE {g01.mse:.4f} "
          f"PSNR {g01.psnr:.2f} dB; gaussian:0.5 SSIM {g50.ssim:.4f}; "
          f"sp:0.1 PSNR {sp10.psnr:.2f} dB over {g01.n_images} images")
    assert within(g01.ssim, 0.80, 0.05), f"gaussian:0.01 SSIM {g01.ssim:.4f}"
    assert within(g01.mse, 0.003, 0.002), f"gaussian:0.01 MSE {g01.mse:.4f}"
    assert within(g01.psnr, 24.3, 1.5), f"gaussian:0.01 PSNR {g01.psnr:.2f}"
    assert within(g50.ssim, 0.53, 0.07), f"gaussian:0.5 SSIM {g50.ssim:.4f}"
    assert within(sp10.psnr, 20.2, 1.5), f"sp:0.1 PSNR {sp10.psnr:.2f}"


def test_criterion_3_noisy_baseline_statistics(eval_images):
    start = time.monotonic()
    noisy = corrupt_dataset(eval_images, parse_spec("gaussian:0.1"), EVAL_SEED)
    report = quality_report(eval_images, noisy,
                                    noise="gaussian:0.1", method="noisy")
    elapsed = time.monotonic() - start
    print(f"criterion 3: gaussian:0.1 corruption mean MSE {report.mse:.4f}, "
          f"PSNR {report.psnr:.3f} dB, {elapsed:.1f}s")
    assert within(report.mse, 0.099, 0.005), f"mean MSE {report.mse:.4f}"
    assert within(report.psnr, 10.0, 0.3), f"PSNR {report.psnr:.3f}"
    assert elapsed < 30.0


@pytest.mark.slow
def test_criterion_4_non_ideality_trends(member_bank, eval_images,
                                         noisy_stacks, ideal_reports):
    failures = []
    net = member_bank["gaussian:0.01"]
    noisy = noisy_stacks["gaussian:0.01"]
    ideal_ssim = ideal_reports["gaussian:0.01"].ssim

    levels = (256, 128, 64, 16, 2)
    sweep = {}
    for L in levels:
        variant = net.reprogram(DeviceModel(levels=L), seed=EVAL_SEED)
        sweep[L] = quality_report(
            eval_images, variant.forward_stack(noisy),
            noise="gaussian:0.01", method="dense").ssim
    print("criterion 4: SSIM ideal %.4f, levels %s" %
          (ideal_ssim, ", ".join(f"{L}: {sweep[L]:.4f}" for L in levels)))

    values = [sweep[L] for L in levels]
    if any(b > a + 1e-9 for a, b in zip(values, values[1:])):
        failures.append(f"level sweep not monotone non-increasing: {values}")
    if not sweep[2] < 0.2:
        failures.append(
            f"SSIM(L=2) = {sweep[2]:.4f}, required < 0.2: binarizing at half "
            f"the power-of-two readout scale keeps the trained near-diagonal "
            f"smoothing weights (almost no entry exceeds half of "
            f"max |w| = {np.abs(net.layer.weights).max():.3f}), so the two-level "
            f"net still passes a dimmed but structured digit through")
    gap = ideal_ssim - sweep[64]
    if not gap <= 0.05:
        failures.append(
            f"SSIM(L=64) = {sweep[64]:.4f} vs ideal {ideal_ssim:.4f}, gap "
            f"{gap:.4f} > 0.05: with the readout scale fixed by the largest "
            f"trained weight, 64 levels leave a quantization step of "
            f"scale/63 across every device; shrinking the scale to close "
            f"this gap brightens the L=2 output instead, so the two bounds "
            f"pull in opposite directions")

    varied = net.reprogram(DeviceModel(variation_sigma=0.025), seed=0)
    varied_ssim = quality_report(
        eval_images, varied.forward_stack(noisy),
        noise="gaussian:0.01", method="dense").ssim
    cut = (ideal_ssim - varied_ssim) / ideal_ssim
    print(f"criterion 4: sigma_c 0.025 SSIM {varied_ssim:.4f}, "
          f"relative cut {100 * cut:.1f}%")
    if not cut >= 0.10:
        failures.append(f"sigma_c 0.025 cut {100 * cut:.1f}% < 10%")

    sp_net = member_bank["sp:0.1"]
    sp_noisy = noisy_stacks["sp:0.1"]
    sp_ideal = ideal_reports["sp:0.1"].psnr
    drops = {}
    for label, (dropout, prune) in {"dropout": (0.2, 0.0),
                                    "prune": (0.0, 0.2)}.items():
        sparse = sp_net.with_sparsity(dropout, prune, seed=EVAL_SEED)
        psnr = quality_report(
            eval_images, sparse.forward_stack(sp_noisy),
            noise="sp:0.1", method="dense").psnr
        drops[label] = sp_ideal - psnr
    print(f"criterion 4: sp:0.1 PSNR ideal {sp_ideal:.2f} dB, 20% dropout "
          f"-{drops['dropout']:.2f} dB, 20% prune -{drops['prune']:.2f} dB")
    for label, drop in drops.items():
        if not within(drop, 2.0, 1.0):
            failures.append(f"20% {label} PSNR drop {drop:.2f} dB outside "
                            f"2 +- 1 dB")

    assert not failures, "; ".join(failures)


# Criterion 5's search grids: the best-of-several protocol of the
# comparison targets, deliberately small and fixed so the winners are
# reproducible.
TUNE_GRIDS = {
    "gauss": tuple(FilterSpec("gauss", sigma=s)
                   for s in (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.2, 1.5)),
    "median": tuple(FilterSpec("median", window=w) for w in (3, 5)),
    "tv": tuple(FilterSpec("tv", tv_weight=w, tv_iters=50)
                for w in (0.03, 0.05, 0.08, 0.1, 0.15, 0.2, 0.3)),
}


def tune_filter(clean, noisy, kind, grid=None):
    """Best filter of one kind on a clean/noisy stack, by mean SSIM.

    Returns ``(spec, score)`` for the grid point with the highest mean
    SSIM against the clean stack.  Ties keep the earliest grid entry so
    re-runs are stable.  Its unit tests are test_baselines.py::TestTuning,
    which run without MNIST.
    """
    candidates = TUNE_GRIDS[kind] if grid is None else tuple(grid)
    if not candidates:
        raise ValueError("empty tuning grid")
    best_spec, best_score = None, -np.inf
    for spec in candidates:
        score = quality_report(clean, filter_stack(noisy, spec)).ssim
        if score > best_score:
            best_spec, best_score = spec, score
    return best_spec, best_score


@pytest.mark.slow
def test_criterion_5_tuned_classical_filters(eval_images):
    cases = (("median", "sp:0.1", 0.914),
             ("tv", "gaussian:0.01", 0.849),
             ("gauss", "poisson:2.5", 0.844))
    details, failures = [], []
    for kind, noise_text, target in cases:
        noisy = corrupt_dataset(eval_images, parse_spec(noise_text), EVAL_SEED)
        spec, score = tune_filter(eval_images, noisy, kind)
        details.append(f"{spec.text()} on {noise_text} SSIM {score:.4f}")
        if not within(score, target, 0.05):
            failures.append(f"{kind} on {noise_text}: SSIM {score:.4f} "
                            f"outside {target} +- 0.05")
    print("criterion 5: " + "; ".join(details))
    assert not failures, "; ".join(failures)


def test_criterion_6_hardware_cost_model():
    seq = hwcost.estimate(cost_point("dense", "sequential", "inference"))
    par = hwcost.estimate(cost_point("dense", "parallel", "inference"))
    train = hwcost.estimate(cost_point("dense", "sequential", "training"))
    print("criterion 6:\n" + hwcost.format_report_table([seq, par, train]))

    assert within(seq.total_energy, 21.1e-9, 0.30 * 21.1e-9), \
        f"sequential total energy {seq.total_energy:.3e} J"
    assert within(seq.total_area, 0.29e-6, 0.15 * 0.29e-6), \
        f"sequential area {seq.total_area:.3e} m2"
    assert within(seq.time_per_image, 3.2e-6, 0.30 * 3.2e-6), \
        f"sequential latency {seq.time_per_image:.3e} s"
    assert within(seq.crossbar_energy, 0.577e-9, 0.05 * 0.577e-9), \
        f"sequential crossbar energy {seq.crossbar_energy:.3e} J"
    assert par.time_per_image == ComponentBudget().t_read == 50e-9, \
        f"parallel latency {par.time_per_image:.3e} s"
    assert within(train.time_per_image, 72e-3, 0.15 * 72e-3), \
        f"training time {train.time_per_image:.3e} s"
    assert within(train.total_energy, 236e-6, 0.30 * 236e-6), \
        f"training energy {train.total_energy:.3e} J"

    cnn_reports = [
        hwcost.estimate(cost_point("cnn", "sequential", "inference")),
        hwcost.estimate(cost_point("cnn", "parallel", "inference")),
        hwcost.estimate(cost_point("cnn", "sequential", "training")),
    ]
    print("criterion 6 (conv rows, reported only):\n"
          + hwcost.format_report_table(cnn_reports))
    for report in [seq, par, train] + cnn_reports:
        assert report.total_energy == (
            report.crossbar_power * report.crossbar_active_time
            + report.cmos_power * report.cmos_active_time
            + report.sram_adc_power * report.sram_adc_active_time)


@pytest.mark.slow
def test_criterion_7_classification_gain(classifier, member_bank, fusion_net,
                                         mnist_test):
    (clean,) = evaluate(classifier, mnist_test)
    print(f"criterion 7: clean accuracy {clean.accuracy:.4f} "
          f"on {clean.n} images")

    gains, noisy_acc, member_acc = {}, {}, {}
    for spec in STANDARD_NOISES:
        text = spec.text()
        noisy, member = evaluate(classifier, mnist_test, spec, EVAL_SEED,
                                 member_bank[text])
        noisy_acc[text] = noisy.accuracy
        member_acc[text] = member.accuracy
        gains[text] = 100.0 * (member.accuracy - noisy.accuracy)
        print(f"criterion 7: {text:<13} noisy {noisy.accuracy:.4f} "
              f"denoised {member.accuracy:.4f} gain {gains[text]:+.1f} pts")

    fused_gap = {}
    for text in ("gaussian:0.5", "sp:0.5", "speckle:1"):
        _, fused = evaluate(classifier, mnist_test, parse_spec(text),
                            EVAL_SEED, fusion_net)
        fused_gap[text] = 100.0 * (fused.accuracy - member_acc[text])
        print(f"criterion 7: {text:<13} fused {fused.accuracy:.4f} "
              f"vs matched member {fused_gap[text]:+.1f} pts")

    failures = []
    if not gains["gaussian:0.5"] >= 25.0:
        failures.append(f"gaussian:0.5 gain {gains['gaussian:0.5']:+.1f} "
                        f"pts < +25")
    if not gains["sp:0.5"] >= 15.0:
        failures.append(f"sp:0.5 gain {gains['sp:0.5']:+.1f} pts < +15")
    if not gains["speckle:1"] >= 15.0:
        failures.append(
            f"speckle:1 gain {gains['speckle:1']:+.1f} pts < +15: the "
            f"classifier is already almost immune to multiplicative speckle "
            f"on near-binary digits (noisy {noisy_acc['speckle:1']:.4f} vs "
            f"clean {clean.accuracy:.4f}), leaving under 4 points of "
            f"attainable gain for any denoiser")
    for text in ("gaussian:0.5", "sp:0.5", "speckle:1"):
        if not fused_gap[text] >= -5.0:
            failures.append(
                f"fusion on {text} trails the matched member by "
                f"{-fused_gap[text]:.1f} pts (> 5): the single shared 3x3 "
                f"fusion kernel trades per-noise specialization for "
                f"mixed-noise robustness, and its accuracy lags the matched "
                f"member on the heaviest corruptions while staying within "
                f"half a point on speckle")
    assert not failures, "; ".join(failures)


@pytest.mark.slow
def test_criterion_8_property_suites(tmp_path):
    rng = np.random.default_rng(0x8A)

    # Analytic gradients against central differences, fp64.
    clean = rng.uniform(0.0, 1.0, (1, 8, 8))
    noisy = np.clip(clean + rng.normal(0.0, 0.2, (1, 8, 8)), 0.0, 1.0)
    k1 = rng.normal(0.0, 0.3, (2, 3, 3))
    k3 = rng.normal(0.1, 0.05, (2, 3, 3))
    k2 = rng.normal(0.1, 0.05, (3, 3))
    _, grads = cnn_loss_and_grads(noisy, clean, k1, k3, k2)
    eps = 1e-6
    worst = 0.0
    for name, kernel, (grad,) in (("k1", k1, grads[0]), ("k3", k3, grads[1]),
                                  ("k2", k2, grads[2])):
        it = np.nditer(kernel, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            bumped = {"k1": k1.copy(), "k3": k3.copy(), "k2": k2.copy()}
            bumped[name][idx] += eps
            (hi,), _ = cnn_loss_and_grads(noisy, clean, bumped["k1"],
                                          bumped["k3"], bumped["k2"])
            bumped[name][idx] -= 2 * eps
            (lo,), _ = cnn_loss_and_grads(noisy, clean, bumped["k1"],
                                          bumped["k3"], bumped["k2"])
            numeric = (hi - lo) / (2 * eps)
            denom = max(abs(numeric), abs(grad[idx]), 1e-8)
            worst = max(worst, abs(numeric - grad[idx]) / denom)
    print(f"criterion 8: worst gradient relative error {worst:.3e}")
    assert worst < 1e-4

    # Crossbar readout against plain linear algebra, ideal device.
    weights = rng.normal(0.0, 0.2, (300, 100))
    tiled = program(weights / np.abs(weights).max(), DeviceModel(), rng)
    x = rng.uniform(-1.0, 1.0, (1, 300))  # signed: a two-phase read
    direct = x @ (weights / np.abs(weights).max())
    readout_err = np.abs(matmul(tiled, x) - direct).max()
    # A CnnDenoiser takes only KERNELS kernels; these come from their own
    # stream, so the draws below stay as they were.
    net_rng = np.random.default_rng(0x8B)
    k1 = net_rng.normal(0.0, 0.3, (KERNELS, 3, 3))
    k3 = net_rng.normal(0.1, 0.05, (KERNELS, 3, 3))
    cnn = CnnDenoiser(k1, k3, k2)
    route, _ = _float_forward(np.clip(noisy, 0.0, 1.0), k1, k3, k2)
    conv_err = np.abs(cnn.forward_stack(noisy)[0]
                      - np.clip(route[0], 0.0, 1.0)).max()
    print(f"criterion 8: readout error {readout_err:.3e}, "
          f"conv route error {conv_err:.3e}")
    assert readout_err < 1e-10
    assert conv_err < 1e-10

    # Quantization idempotence and monotonicity.
    for levels in (2, 16, 64, 256):
        g = np.sort(rng.uniform(0.0, 1.0, 4000))
        q = quantize(g, DeviceModel(levels=levels))
        np.testing.assert_array_equal(quantize(q, DeviceModel(levels=levels)), q)
        assert np.all(np.diff(q) >= 0.0)

    # Metric identities.
    a = rng.uniform(0.0, 1.0, (28, 28))
    b = np.clip(a + rng.normal(0.0, 0.1, (28, 28)), 0.0, 1.0)
    assert metrics.ssim(a, a) == pytest.approx(1.0, abs=1e-12)
    assert quality_report(a[None], b[None]).psnr == pytest.approx(
        10.0 * math.log10(1.0 / metrics.mse(a, b)), rel=1e-12)
    assert quality_report(a[None], a[None]).psnr is None
    assert metrics.mse(a, b) == metrics.mse(b, a)

    # Byte-identical artifacts for a fixed seed across re-runs, on an IDX
    # test split written here so the check never depends on MNIST.
    data = tmp_path / "idx"
    data.mkdir()
    write_idx_images(data / "t10k-images-idx3-ubyte",
                     rng.integers(0, 256, (200, 28, 28), dtype=np.uint8))
    write_idx_labels(data / "t10k-labels-idx1-ubyte",
                     (np.arange(200) % 10).astype(np.uint8))
    outs = [str(tmp_path / name) for name in ("a", "b", "c")]
    for out in outs:
        rc = main(["eval", "--data", str(data), "--seed", "5",
                   "--noise", "gaussian:0.1", "--filter", "median:3",
                   "--eval-limit", "200", "--outdir", out])
        assert rc == 0
    reference = Path(outs[0] + "/eval.csv").read_bytes()
    assert Path(outs[1] + "/eval.csv").read_bytes() == reference
    assert Path(outs[2] + "/eval.csv").read_bytes() == reference
    print("criterion 8: eval.csv byte-identical across three re-runs")
