"""Memristive-crossbar image denoising simulator.

Crossbar-mapped denoising networks with device non-idealities, sensor
noise models, image quality metrics, classical filter baselines,
hardware cost estimation, and a downstream classification harness.
"""

from .device import IDEAL, DeviceModel, apply_variation, quantize
from .crossbar import (TILE_COLS, TILE_ROWS, TiledMatrix, apply_sparsity,
                       matmul, program, tile_grid)
from .imagecore import (Dataset, DatasetError, load_cifar10, load_mnist,
                        write_image)
from .noise import NoiseSpec, STANDARD_NOISES, corrupt, corrupt_dataset, parse_spec
from .metrics import QualityReport, mse, ssim
from .baselines import FilterSpec, filter_stack, parse_filter
from .hwcost import (ComponentBudget, DesignPoint, HardwareCostReport,
                     estimate, format_report_table)
from .classify import AccuracyReport, Classifier, evaluate, train_classifier
from .nets import (CnnDenoiser, DenseDenoiser, FusionDenoiser, TrainConfig,
                   TrainingDivergence, cnn_train, dense_train, fusion_train)

__version__ = "0.1.0"

__all__ = [
    "IDEAL", "DeviceModel", "quantize", "apply_variation",
    "TILE_ROWS", "TILE_COLS", "TiledMatrix", "tile_grid", "program",
    "matmul", "apply_sparsity",
    "Dataset", "DatasetError", "load_mnist", "load_cifar10",
    "write_image",
    "NoiseSpec", "STANDARD_NOISES", "parse_spec", "corrupt", "corrupt_dataset",
    "QualityReport", "ssim", "mse",
    "FilterSpec", "parse_filter", "filter_stack",
    "ComponentBudget", "DesignPoint", "HardwareCostReport", "estimate",
    "format_report_table",
    "AccuracyReport", "Classifier", "train_classifier", "evaluate",
    "CnnDenoiser", "DenseDenoiser", "FusionDenoiser", "TrainConfig",
    "TrainingDivergence", "cnn_train", "dense_train", "fusion_train",
    "__version__",
]
