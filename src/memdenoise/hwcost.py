"""Analytical power, energy, area and latency estimator for tiled designs.

Costs are pure arithmetic over a small set of cited component constants
(:class:`ComponentBudget`) plus a frozen set of scheduling conventions
that fix how tile activity maps onto time.  The conventions, recorded
here once so every report uses the same model:

* Sequential dense readout drives one differential tile pair at a time,
  so the crossbar draws ``2 * tile_power`` and accumulates
  ``tiles * t_read`` of active time, while the full readout occupies the
  64 shared column slots of a tile (``64 * t_read`` of latency).
* Parallel readout drives every tile pair for a single ``t_read`` slot.
* The CMOS output chain (summation, activation, conditioning) is costed
  as one calibrated lump, ``cmos_chain_power`` / ``cmos_chain_area``.
  Sequential mode runs a single chain for the whole readout; parallel
  mode replicates it per column slot (dense) or per patch (conv).
* Conv designs reuse one kernel crossbar per layer across patch
  positions in sequential mode, so latency is the total patch count
  times ``t_read``; parallel mode duplicates each kernel per patch
  position and runs the layer stages back to back, one read slot each.
* Weight updates run across tiles in parallel and sequentially inside a
  tile: ``256 * 64 * t_write * update_pulses`` of update latency.  Only
  the programmed polarity draws power, and it does so for a read slot of
  each pulse, giving ``tiles * tile_power * cells * pulses * t_read`` of
  update energy.

Reports keep power, active time and energy for each component so that
``energy == power * active_time`` holds exactly, and totals are computed
from the components rather than stored.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys
from collections.abc import Mapping
from dataclasses import dataclass

from .crossbar import TILE_COLS, TILE_ROWS, tile_grid

__all__ = [
    "ComponentBudget",
    "DesignPoint",
    "HardwareCostReport",
    "count_tiles",
    "estimate",
    "format_report_table",
    "format_si",
]


@dataclass(frozen=True)
class ComponentBudget:
    """Cited component constants, SI units throughout.

    ``cmos_chain_power`` and ``cmos_chain_area`` are calibration lumps
    for the whole per-output readout chain; the ADC and SRAM entries
    cost the hidden outputs a training design stores.  ``max_tiles``
    optionally caps the fabric; ``None`` means unbounded.  A design that
    needs more tiles per polarity than ``max_tiles`` raises a
    ``ValueError`` naming both counts.
    """

    tile_power: float = 111e-6          # W, one 256x64 tile active
    tile_area: float = 2800e-12         # m^2 per tile
    t_read: float = 50e-9               # s per read slot
    t_write: float = 80e-9              # s per write pulse
    update_pulses: int = 50             # pulses per programmed cell
    adc_power: float = 40e-6            # W, 8-bit
    adc_area: float = 3000e-12          # m^2
    sram_cell_area: float = 0.525e-12   # m^2, 6T cell
    cmos_chain_power: float = 6.428e-3  # W, full sequential readout chain
    cmos_chain_area: float = 600e-12    # m^2, same chain
    max_tiles: int | None = None

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.name == "max_tiles" and value is None:
                continue
            counted = field.name in ("update_pulses", "max_tiles")
            # A boolean is an Integral; NaN fails every comparison, and a
            # number beyond float range the upper bound.
            if not (isinstance(value, numbers.Integral if counted
                               else numbers.Real)
                    and not isinstance(value, bool)
                    and (value >= 0 if counted else value > 0)
                    and value <= sys.float_info.max):
                rule = ("an integer >= 0" if counted
                        else "a positive finite number")
                raise ValueError(f"{field.name} must be {rule}, got {value!r}")

    @classmethod
    def from_mapping(cls, overrides) -> "ComponentBudget":
        """Budget with any subset of constants overridden by name."""
        if not isinstance(overrides, Mapping):
            raise ValueError("overrides must map field names to values")
        known = {f.name for f in dataclasses.fields(cls)}
        bad = sorted(set(overrides) - known)
        if bad:
            raise ValueError(f"unknown budget fields: {', '.join(bad)}")
        return cls(**dict(overrides))


@dataclass(frozen=True)
class DesignPoint:
    """A network mapped onto the fabric in a given readout mode and phase.

    ``layers`` holds each crossbar-mapped layer as ``(rows, cols, reads)``
    in programming order, ``reads`` counting its matrix-vector reads per
    image: 1 for a dense layer, the patch positions for a conv kernel.
    The networks declare them (``DenseDenoiser.crossbar_layers``,
    ``CnnDenoiser.crossbar_layers``). Nothing is checked: ``estimate``
    costs any mode but "parallel" as sequential, any network but "dense"
    as a CNN, and needs a layer; the cost command's choices refuse labels.
    """

    network: str
    mode: str
    phase: str
    layers: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class HardwareCostReport:
    """Per-component power / active-time / energy / area plus latency.

    ``devices`` and ``tiles`` are per polarity; the physical design
    carries twice that for the differential pairs, and areas already
    account for both.  Totals are derived, never stored, so they cannot
    drift out of sync with the components.
    """

    network: str
    mode: str
    phase: str
    devices: int
    tiles: int
    crossbar_power: float
    crossbar_active_time: float
    crossbar_area: float
    cmos_power: float
    cmos_active_time: float
    cmos_area: float
    sram_adc_power: float = 0.0
    sram_adc_active_time: float = 0.0
    sram_adc_area: float = 0.0
    intermediate_outputs: int = 0
    time_per_image: float = 0.0

    @property
    def crossbar_energy(self) -> float:
        return self.crossbar_power * self.crossbar_active_time

    @property
    def cmos_energy(self) -> float:
        return self.cmos_power * self.cmos_active_time

    @property
    def sram_adc_energy(self) -> float:
        return self.sram_adc_power * self.sram_adc_active_time

    @property
    def total_energy(self) -> float:
        return self.crossbar_energy + self.cmos_energy + self.sram_adc_energy

    @property
    def total_area(self) -> float:
        return self.crossbar_area + self.cmos_area + self.sram_adc_area

    def to_json(self) -> dict:
        return {
            "network": self.network,
            "mode": self.mode,
            "phase": self.phase,
            "devices_per_polarity": self.devices,
            "tiles_per_polarity": self.tiles,
            "crossbar_power_w": self.crossbar_power,
            "crossbar_energy_j": self.crossbar_energy,
            "crossbar_area_m2": self.crossbar_area,
            "cmos_power_w": self.cmos_power,
            "cmos_energy_j": self.cmos_energy,
            "cmos_area_m2": self.cmos_area,
            "sram_adc_power_w": self.sram_adc_power,
            "sram_adc_energy_j": self.sram_adc_energy,
            "sram_adc_area_m2": self.sram_adc_area,
            "intermediate_outputs": self.intermediate_outputs,
            "total_energy_j": self.total_energy,
            "total_area_m2": self.total_area,
            "time_per_image_s": self.time_per_image,
        }


def count_tiles(rows: int, cols: int) -> int:
    """Tiles per polarity needed for a rows x cols matrix."""
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be >= 1")
    grid = tile_grid(rows, cols)
    return grid[0] * grid[1]


def _forward_report(point: DesignPoint, budget: ComponentBudget) -> HardwareCostReport:
    layers = point.layers
    parallel = point.mode == "parallel"
    # Parallel conv duplicates kernels per patch; dense and sequential
    # designs keep one physical copy per layer.
    copies = [reads if (parallel and point.network == "cnn") else 1
              for _, _, reads in layers]
    devices = sum(c * rows * cols for c, (rows, cols, _) in zip(copies, layers))
    tiles = sum(c * count_tiles(rows, cols)
                for c, (rows, cols, _) in zip(copies, layers))
    if budget.max_tiles is not None and tiles > budget.max_tiles:
        raise ValueError(f"design needs {tiles} tiles per polarity, "
                         f"fabric provides {budget.max_tiles}")

    crossbar_area = 2 * tiles * budget.tile_area
    total_reads = sum(reads for _, _, reads in layers)

    dense, chains = point.network == "dense", 1
    if parallel:  # every tile reads in the same slot
        crossbar_power = 2 * tiles * budget.tile_power
        crossbar_active = cmos_active = budget.t_read
        latency = (1 if dense else len(layers)) * budget.t_read
        chains = TILE_COLS if dense else total_reads
    elif dense:  # one tile read per slot
        crossbar_power = 2 * budget.tile_power
        crossbar_active = tiles * budget.t_read
        latency = cmos_active = TILE_COLS * budget.t_read
    else:  # one patch read per slot
        crossbar_power = 2 * tiles * budget.tile_power
        crossbar_active = latency = cmos_active = total_reads * budget.t_read

    return HardwareCostReport(
        network=point.network, mode=point.mode, phase=point.phase,
        devices=devices, tiles=tiles,
        crossbar_power=crossbar_power,
        crossbar_active_time=crossbar_active,
        crossbar_area=crossbar_area,
        cmos_power=chains * budget.cmos_chain_power,
        cmos_active_time=cmos_active,
        cmos_area=chains * budget.cmos_chain_area,
        time_per_image=latency,
    )


def estimate(point: DesignPoint, budget: ComponentBudget | None = None) -> HardwareCostReport:
    """Per-image cost report for a design point in its phase.

    Inference costs the forward readout alone.  Training adds error
    computation and the weight update: the crossbar component covers the
    update phase (the forward pass is orders of magnitude below it); CMOS
    covers forward readout plus one error slot per output; conv designs
    additionally pay ADC conversion and 8-bit SRAM storage for every
    hidden-layer output held for the backward pass.  ``budget`` defaults
    to the cited constants.  A budget whose constants overflow the
    arithmetic (a NaN or infinite cost) is a ValueError naming the cost.
    """
    budget = budget or ComponentBudget()
    forward = _forward_report(point, budget)
    if point.phase == "inference":
        return _finite(forward)

    _, cols, reads = point.layers[-1]
    error_latency = reads * cols * budget.t_read
    cells = TILE_ROWS * TILE_COLS
    update_latency = cells * budget.t_write * budget.update_pulses
    update_active = cells * budget.update_pulses * budget.t_read

    # Hidden-layer outputs digitized and parked for the backward pass;
    # a single-layer design computes its error directly and stores none.
    stored = sum(reads * cols for _, cols, reads in point.layers[:-1])
    if stored:
        sram_adc_power = budget.adc_power
        sram_adc_active = stored * budget.t_read
        sram_adc_area = budget.adc_area + stored * 8 * budget.sram_cell_area
    else:
        sram_adc_power = sram_adc_active = sram_adc_area = 0.0

    return _finite(dataclasses.replace(
        forward,
        # Only the programmed polarity draws power, for a read slot of
        # each write pulse.
        crossbar_power=forward.tiles * budget.tile_power,
        crossbar_active_time=update_active,
        cmos_power=budget.cmos_chain_power,
        cmos_active_time=forward.time_per_image + error_latency,
        sram_adc_power=sram_adc_power,
        sram_adc_active_time=sram_adc_active,
        sram_adc_area=sram_adc_area,
        intermediate_outputs=stored,
        time_per_image=forward.time_per_image + error_latency + update_latency,
    ))


def _finite(report: HardwareCostReport) -> HardwareCostReport:
    for name, value in report.to_json().items():
        # an area is printed in mm2, 1e6 times its value in m2
        shown = value * 1e6 if name.endswith("_m2") else value
        if isinstance(value, float) and not math.isfinite(shown):
            raise ValueError(f"the budget overflows the cost model: "
                             f"{name} is {value}")
    return report


_SI_STEPS = (
    (1e-15, "f"), (1e-12, "p"), (1e-9, "n"), (1e-6, "u"),
    (1e-3, "m"), (1.0, ""), (1e3, "k"), (1e6, "M"), (1e9, "G"),
)


def format_si(value: float, unit: str) -> str:
    """Engineering-prefixed rendering, e.g. ``format_si(0.577e-9, "J")``."""
    if value == 0:
        return f"0{unit}"
    magnitude = abs(value)
    scale, prefix = _SI_STEPS[0]
    for step_scale, step_prefix in _SI_STEPS:
        if magnitude >= step_scale:
            scale, prefix = step_scale, step_prefix
    return f"{value / scale:.3g}{prefix}{unit}"


def _mm2(area: float) -> str:
    return f"{area * 1e6:.4g}mm2"


_COLUMNS = (
    ("design", lambda r: f"{r.network} {r.mode[:3]}. {r.phase[:5]}"),
    ("devices", lambda r: f"{r.devices}x2"),
    ("tiles", lambda r: f"{r.tiles}x2"),
    ("xbar P", lambda r: format_si(r.crossbar_power, "W")),
    ("xbar E", lambda r: format_si(r.crossbar_energy, "J")),
    ("xbar A", lambda r: _mm2(r.crossbar_area)),
    ("cmos P", lambda r: format_si(r.cmos_power, "W")),
    ("cmos E", lambda r: format_si(r.cmos_energy, "J")),
    ("cmos A", lambda r: _mm2(r.cmos_area)),
    ("stored", lambda r: str(r.intermediate_outputs) if r.intermediate_outputs else "-"),
    ("sram+adc E", lambda r: format_si(r.sram_adc_energy, "J") if r.sram_adc_active_time else "-"),
    ("total E", lambda r: format_si(r.total_energy, "J")),
    ("total A", lambda r: _mm2(r.total_area)),
    ("t/image", lambda r: format_si(r.time_per_image, "s")),
)


def format_report_table(reports) -> str:
    """Fixed-width text table, one row per report."""
    rows = [[name for name, _ in _COLUMNS]]
    for report in reports:
        rows.append([render(report) for _, render in _COLUMNS])
    widths = [max(len(row[i]) for row in rows) for i in range(len(_COLUMNS))]
    lines = []
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
