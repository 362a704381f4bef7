"""Hardware cost model tests.

Expected figures are recomputed in the tests from the budget constants
with independent arithmetic, so a regression in the scheduling model
shows up as a numeric mismatch rather than a silently moved baseline.
"""

import dataclasses
import importlib
import json
import math

import numpy as np
import pytest

from memdenoise import crossbar, hwcost
from memdenoise.cli import cost_point
from memdenoise.crossbar import TILE_COLS, TILE_ROWS, tile_grid
from memdenoise.hwcost import (
    ComponentBudget,
    count_tiles,
    estimate,
    format_report_table,
    format_si,
)
from memdenoise.nets import CnnDenoiser, DenseDenoiser, cnn

BUDGET = ComponentBudget()


# The design points of the cost command: each net's declared layers for
# 28 x 28 planes. TestDesignPoint states those layers independently.
def dense_point(mode="sequential", phase="inference"):
    return cost_point("dense", mode, phase)


def cnn_point(mode="sequential", phase="inference"):
    return cost_point("cnn", mode, phase)


class TestCountTiles:
    def test_dense_weight_matrix_needs_52_tiles(self):
        assert count_tiles(785, 784) == 52
        assert count_tiles(784, 784) == 52

    def test_matches_tile_grid_product(self):
        for rows, cols in [(1, 1), (256, 64), (257, 64), (256, 65), (700, 700)]:
            grid = tile_grid(rows, cols)
            assert count_tiles(rows, cols) == grid[0] * grid[1]

    def test_ceiling_oracle(self):
        for rows, cols in [(9, 8), (72, 1), (511, 129), (2048, 2048)]:
            expected = math.ceil(rows / TILE_ROWS) * math.ceil(cols / TILE_COLS)
            assert count_tiles(rows, cols) == expected

    @pytest.mark.parametrize("rows,cols", [(0, 5), (5, 0), (-1, 3)])
    def test_rejects_empty_matrices(self, rows, cols):
        with pytest.raises(ValueError):
            count_tiles(rows, cols)


class TestComponentBudget:
    def test_defaults_are_positive(self):
        for field in dataclasses.fields(ComponentBudget):
            if field.name == "max_tiles":
                continue
            assert getattr(BUDGET, field.name) > 0

    @pytest.mark.parametrize("field", ["tile_power", "t_read", "cmos_chain_power"])
    def test_rejects_nonpositive_constants(self, field):
        with pytest.raises(ValueError, match=field):
            ComponentBudget(**{field: 0.0})
        with pytest.raises(ValueError, match=field):
            ComponentBudget(**{field: -1.0})

    def test_rejects_nonfinite_constants(self):
        with pytest.raises(ValueError, match="tile_area"):
            ComponentBudget(tile_area=float("nan"))

    def test_zero_update_pulses_allowed(self):
        assert ComponentBudget(update_pulses=0).update_pulses == 0
        with pytest.raises(ValueError, match="update_pulses"):
            ComponentBudget(update_pulses=-1)

    def test_max_tiles_bounds(self):
        assert ComponentBudget(max_tiles=None).max_tiles is None
        assert ComponentBudget(max_tiles=0).max_tiles == 0
        with pytest.raises(ValueError, match="max_tiles"):
            ComponentBudget(max_tiles=-1)

    def test_from_mapping_applies_overrides(self):
        budget = ComponentBudget.from_mapping({"t_read": 25e-9, "max_tiles": 4})
        assert budget.t_read == 25e-9
        assert budget.max_tiles == 4
        assert budget.tile_power == BUDGET.tile_power

    def test_from_mapping_names_unknown_fields(self):
        with pytest.raises(ValueError, match="frobnicator, t_reed"):
            ComponentBudget.from_mapping({"t_reed": 1.0, "frobnicator": 2.0})

    def test_replace_returns_new_budget(self):
        changed = dataclasses.replace(BUDGET, tile_power=1e-3)
        assert changed.tile_power == 1e-3
        assert BUDGET.tile_power == 111e-6
        with pytest.raises(ValueError, match="tile_power"):
            dataclasses.replace(BUDGET, tile_power=0.0)


class TestLayerGeometry:
    """The nets' declared layers: plain (rows, cols, reads) tuples."""

    def test_devices_and_tiles(self):
        (rows, cols, reads), = DenseDenoiser.crossbar_layers((28, 28))
        assert rows * cols == 615440
        assert count_tiles(rows, cols) == 52
        assert reads == 1

    def test_small_layer_fits_one_tile(self):
        rows, cols, reads = CnnDenoiser.crossbar_layers((28, 28))[0]
        assert count_tiles(rows, cols) == 1
        assert reads == 784


class TestDesignPoint:
    def test_dense_default_is_one_bias_augmented_layer(self):
        point = dense_point()
        assert point.network == "dense"
        assert point.mode == "sequential"
        assert point.phase == "inference"
        assert point.layers == ((785, 784, 1),)

    def test_cnn_layer_table(self):
        assert cnn_point().layers == ((9, 8, 784), (72, 1, 196), (9, 1, 196))


class TestDenseSequentialInference:
    def test_derived_figures(self):
        r = estimate(dense_point())
        b = BUDGET
        assert r.devices == 615440
        assert r.tiles == 52
        assert r.crossbar_power == 2 * b.tile_power
        assert r.crossbar_active_time == 52 * b.t_read
        assert r.crossbar_energy == pytest.approx(
            2 * b.tile_power * 52 * b.t_read, rel=1e-12)
        assert r.crossbar_area == pytest.approx(2 * 52 * b.tile_area, rel=1e-12)
        assert r.cmos_power == b.cmos_chain_power
        assert r.cmos_active_time == TILE_COLS * b.t_read
        assert r.cmos_area == b.cmos_chain_area

    def test_total_latency_is_column_slot_count(self):
        r = estimate(dense_point())
        assert r.time_per_image == 64 * 50e-9
        assert r.time_per_image == pytest.approx(3.2e-6, rel=1e-12)

    def test_totals_match_published_figures(self):
        r = estimate(dense_point())
        assert r.crossbar_energy == pytest.approx(577.2e-12, rel=1e-6)
        assert r.cmos_energy == pytest.approx(20.5696e-9, rel=1e-6)
        assert r.total_energy == pytest.approx(21.1468e-9, rel=1e-6)
        assert r.crossbar_area == pytest.approx(0.2912e-6, rel=1e-6)
        assert r.total_area == pytest.approx(0.2918e-6, rel=1e-6)

    def test_inference_report_has_no_storage_costs(self):
        r = estimate(dense_point())
        assert r.sram_adc_power == 0.0
        assert r.sram_adc_energy == 0.0
        assert r.intermediate_outputs == 0


class TestDenseParallelInference:
    def test_latency_is_exactly_one_read_slot(self):
        r = estimate(dense_point(mode="parallel"))
        assert r.time_per_image == 50e-9
        assert r.time_per_image == BUDGET.t_read

    def test_all_tile_pairs_drive_simultaneously(self):
        r = estimate(dense_point(mode="parallel"))
        assert r.crossbar_power == pytest.approx(2 * 52 * BUDGET.tile_power, rel=1e-12)
        assert r.crossbar_active_time == BUDGET.t_read

    def test_readout_chain_replicated_per_column_slot(self):
        r = estimate(dense_point(mode="parallel"))
        assert r.cmos_power == pytest.approx(64 * BUDGET.cmos_chain_power, rel=1e-12)
        assert r.cmos_area == pytest.approx(64 * BUDGET.cmos_chain_area, rel=1e-12)

    def test_energy_equals_sequential_mode(self):
        # Parallelism trades time for power at constant work.
        seq = estimate(dense_point())
        par = estimate(dense_point(mode="parallel"))
        assert par.crossbar_energy == pytest.approx(seq.crossbar_energy, rel=1e-12)
        assert par.cmos_energy == pytest.approx(seq.cmos_energy, rel=1e-12)
        assert par.time_per_image == pytest.approx(seq.time_per_image / 64, rel=1e-12)


class TestDenseTraining:
    def test_update_phase_dominates_time(self):
        r = estimate(dense_point(phase="training"))
        b = BUDGET
        cells = TILE_ROWS * TILE_COLS
        update_latency = cells * b.t_write * b.update_pulses
        error_latency = 784 * b.t_read
        forward_latency = 64 * b.t_read
        assert update_latency == pytest.approx(65.536e-3, rel=1e-12)
        assert r.time_per_image == pytest.approx(
            forward_latency + error_latency + update_latency, rel=1e-12)
        assert 61.2e-3 <= r.time_per_image <= 82.8e-3

    def test_update_energy(self):
        r = estimate(dense_point(phase="training"))
        b = BUDGET
        cells = TILE_ROWS * TILE_COLS
        assert r.crossbar_power == pytest.approx(52 * b.tile_power, rel=1e-12)
        assert r.crossbar_active_time == pytest.approx(
            cells * b.update_pulses * b.t_read, rel=1e-12)
        assert r.crossbar_energy == pytest.approx(236.42112e-6, rel=1e-6)
        assert abs(r.total_energy - 236e-6) <= 0.30 * 236e-6

    def test_single_layer_design_stores_no_intermediates(self):
        r = estimate(dense_point(phase="training"))
        assert r.intermediate_outputs == 0
        assert r.sram_adc_power == 0.0
        assert r.sram_adc_area == 0.0

    def test_zero_pulses_removes_update_costs(self):
        budget = dataclasses.replace(BUDGET, update_pulses=0)
        r = estimate(dense_point(phase="training"), budget)
        assert r.crossbar_active_time == 0.0
        assert r.crossbar_energy == 0.0
        assert r.time_per_image == pytest.approx(
            64 * budget.t_read + 784 * budget.t_read, rel=1e-12)


class TestCnnCosts:
    def test_sequential_inference_geometry(self):
        r = estimate(cnn_point())
        assert r.devices == 153
        assert r.tiles == 3
        assert r.crossbar_power == pytest.approx(2 * 3 * BUDGET.tile_power, rel=1e-12)
        assert r.crossbar_active_time == pytest.approx(1176 * BUDGET.t_read, rel=1e-12)
        assert r.time_per_image == pytest.approx(58.8e-6, rel=1e-12)

    def test_parallel_inference_duplicates_kernels_per_patch(self):
        r = estimate(cnn_point(mode="parallel"))
        assert r.devices == 784 * 72 + 196 * 72 + 196 * 9
        assert r.tiles == 1176
        assert r.time_per_image == pytest.approx(3 * BUDGET.t_read, rel=1e-12)
        assert r.cmos_power == pytest.approx(1176 * BUDGET.cmos_chain_power, rel=1e-12)

    def test_training_parks_hidden_outputs_in_sram(self):
        r = estimate(cnn_point(phase="training"))
        stored = 784 * 8 + 196 * 1
        assert r.intermediate_outputs == stored
        assert r.sram_adc_power == BUDGET.adc_power
        assert r.sram_adc_active_time == pytest.approx(stored * BUDGET.t_read, rel=1e-12)
        assert r.sram_adc_area == pytest.approx(
            BUDGET.adc_area + stored * 8 * BUDGET.sram_cell_area, rel=1e-12)

    def test_training_error_slot_uses_final_layer_outputs(self):
        r = estimate(cnn_point(phase="training"))
        b = BUDGET
        update_latency = TILE_ROWS * TILE_COLS * b.t_write * b.update_pulses
        assert r.time_per_image == pytest.approx(
            58.8e-6 + 196 * b.t_read + update_latency, rel=1e-12)


def cnn_net(kernels, ksize, seed=0):
    rng = np.random.default_rng(seed)
    return CnnDenoiser(rng.normal(size=(kernels, ksize, ksize)),
                       rng.normal(size=(kernels, ksize, ksize)),
                       rng.normal(size=(ksize, ksize)))


def readouts(monkeypatch, net, shape):
    """((rows, cols) of the crossbar, rows read) of each crossbar readout
    of a 1-image forward_stack, in call order."""
    calls, real = [], crossbar.matmul

    def counted(m, xs):
        calls.append(((m.rows, m.cols), int(np.prod(np.shape(xs)[:-1]))))
        return real(m, xs)

    monkeypatch.setattr(crossbar, "matmul", counted)
    net.forward_stack(np.random.default_rng(1).random((1, *shape)))
    return calls


class TestDeclaredLayers:
    """Each net's declared layers against the crossbars it programs and
    the rows its simulated readout reads."""

    @pytest.mark.parametrize("shape", [(28, 28), (8, 8), (5, 7)])
    def test_dense_programs_and_reads_its_declaration(self, monkeypatch,
                                                      shape):
        p = shape[0] * shape[1]
        net = DenseDenoiser(np.zeros((p + 1, p)), shape)
        (rows, cols, reads), = DenseDenoiser.crossbar_layers(shape)
        assert (net.layer.tiled.rows, net.layer.tiled.cols) == (rows, cols)
        assert readouts(monkeypatch, net, shape) == [((rows, cols), reads)]

    @pytest.mark.parametrize("kernels,ksize", [(8, 3), (1, 3), (3, 5)])
    @pytest.mark.parametrize("shape", [(28, 28), (27, 27), (9, 7), (8, 8)])
    def test_cnn_programs_and_reads_its_declaration(self, monkeypatch, shape,
                                                    kernels, ksize):
        # The declaration reads the module's kernel count and side.
        monkeypatch.setattr(cnn, "KERNELS", kernels)
        monkeypatch.setattr(cnn, "KSIZE", ksize)
        net = cnn_net(kernels, ksize)
        declared = CnnDenoiser.crossbar_layers(shape)
        assert [(m.tiled.rows, m.tiled.cols) for m in (net.m1, net.m3, net.m2)
                ] == [(rows, cols) for rows, cols, _ in declared]
        assert readouts(monkeypatch, net, shape) == [
            ((rows, cols), reads) for rows, cols, reads in declared]

    def test_odd_sides_read_their_padded_planes(self):
        assert [reads for *_, reads in CnnDenoiser.crossbar_layers((27, 27))
                ] == [784, 196, 196]
        assert [reads for *_, reads in CnnDenoiser.crossbar_layers((9, 7))
                ] == [80, 20, 20]

    @pytest.mark.parametrize("point,net", [
        (dense_point, lambda: DenseDenoiser(np.zeros((785, 784)), (28, 28))),
        (cnn_point, lambda: cnn_net(8, 3))])
    def test_tile_reads_are_the_sequential_read_slots(self, monkeypatch,
                                                      point, net):
        # Sequential inference costs one read slot per tile read: 52 for
        # the dense net's one row over 52 tiles, 784 + 196 + 196 for the
        # CNN's patch rows, each over its one tile.
        slots = sum(rows * count_tiles(*shape)
                    for shape, rows in readouts(monkeypatch, net(), (28, 28)))
        report = estimate(point())
        assert report.crossbar_active_time == slots * BUDGET.t_read
        assert slots == {"dense": 52, "cnn": 1176}[report.network]


class TestEnergyAccounting:
    def all_reports(self):
        points = [
            dense_point(), dense_point(mode="parallel"),
            cnn_point(), cnn_point(mode="parallel"),
        ]
        reports = [estimate(p) for p in points]
        reports.append(estimate(dense_point(phase="training")))
        reports.append(estimate(cnn_point(phase="training")))
        return reports

    def test_energy_is_power_times_time_per_component(self):
        for r in self.all_reports():
            assert r.crossbar_energy == r.crossbar_power * r.crossbar_active_time
            assert r.cmos_energy == r.cmos_power * r.cmos_active_time
            assert r.sram_adc_energy == r.sram_adc_power * r.sram_adc_active_time

    def test_totals_are_component_sums(self):
        for r in self.all_reports():
            assert r.total_energy == (
                r.crossbar_energy + r.cmos_energy + r.sram_adc_energy)
            assert r.total_area == (
                r.crossbar_area + r.cmos_area + r.sram_adc_area)

    def test_totals_track_component_edits(self):
        r = estimate(dense_point())
        edited = dataclasses.replace(r, crossbar_power=0.0)
        assert edited.total_energy == r.cmos_energy


class TestFabricLimit:
    def test_dense_design_exceeds_small_fabric(self):
        budget = dataclasses.replace(BUDGET, max_tiles=10)
        with pytest.raises(ValueError) as info:
            estimate(dense_point(), budget)
        assert str(info.value) == ("design needs 52 tiles per polarity, "
                                   "fabric provides 10")

    def test_limit_is_inclusive(self):
        budget = dataclasses.replace(BUDGET, max_tiles=52)
        assert estimate(dense_point(), budget).tiles == 52

    def test_parallel_cnn_needs_tile_per_patch(self):
        point = cnn_point(mode="parallel")
        budget = dataclasses.replace(BUDGET, max_tiles=1176)
        assert estimate(point, budget).tiles == 1176
        with pytest.raises(ValueError, match="needs 1176 tiles per polarity, "
                           "fabric provides 1175"):
            estimate(point, dataclasses.replace(budget, max_tiles=1175))


class TestPhaseDispatch:
    @pytest.mark.parametrize("point", [dense_point, cnn_point])
    def test_estimate_follows_point_phase(self, point):
        inference = estimate(point())
        training = estimate(point(phase="training"))
        assert (inference.phase, training.phase) == ("inference", "training")
        # training adds the update phase on top of the forward readout
        assert training.tiles == inference.tiles
        assert training.time_per_image > inference.time_per_image
        assert inference.intermediate_outputs == 0


class TestFormatting:
    @pytest.mark.parametrize("value,unit,text", [
        (577.2e-12, "J", "577pJ"),
        (21.1468e-9, "J", "21.1nJ"),
        (3.2e-6, "s", "3.2us"),
        (50e-9, "s", "50ns"),
        (6.428e-3, "W", "6.43mW"),
        (0.0, "W", "0W"),
        (1234.0, "W", "1.23kW"),
        (-0.05, "A", "-50mA"),
    ])
    def test_si_prefixes(self, value, unit, text):
        assert format_si(value, unit) == text

    def test_table_reproduces_published_dense_row(self):
        table = format_report_table([estimate(dense_point())])
        row = table.splitlines()[-1]
        for cell in ("615440x2", "52x2", "222uW", "577pJ", "0.2912mm2",
                     "6.43mW", "20.6nJ", "21.1nJ", "0.2918mm2", "3.2us"):
            assert cell in row

    def test_table_has_aligned_header(self):
        reports = [estimate(dense_point()), estimate(cnn_point())]
        lines = format_report_table(reports).splitlines()
        assert lines[0].startswith("design")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_stored_column_blank_without_intermediates(self):
        table = format_report_table([estimate(dense_point())])
        assert "  -  " in table.splitlines()[-1]

    def test_json_round_trip_matches_report(self):
        r = estimate(cnn_point(phase="training"))
        row = json.loads(json.dumps(r.to_json()))
        assert row == r.to_json()
        assert row["devices_per_polarity"] == 153
        assert row["tiles_per_polarity"] == 3
        assert row["total_energy_j"] == r.total_energy
        assert row["intermediate_outputs"] == r.intermediate_outputs
        assert row["time_per_image_s"] == r.time_per_image

    @pytest.mark.parametrize("module", [
        "memdenoise", "memdenoise.nets", "memdenoise.hwcost",
        "memdenoise.baselines"])
    def test_module_exports_cover_public_api(self, module):
        module = importlib.import_module(module)
        for name in module.__all__:
            assert hasattr(module, name), name
