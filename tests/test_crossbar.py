import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memdenoise import ckpt, crossbar
from memdenoise.crossbar import (TILE_COLS, TILE_ROWS, TiledMatrix,
                                 apply_sparsity, matmul, program, tile_grid)
from memdenoise.device import DeviceModel, quantize


def block_count(extent, block):
    """Independent oracle: count blocks by laying them out explicitly."""
    return len(range(0, extent, block))


def two_loop_product(x, w):
    """The per-tile product: row blocks outer, 64-column tiles inner."""
    rows, cols = w.shape
    y = np.zeros(x.shape[:-1] + (cols,))
    for r0 in range(0, rows, TILE_ROWS):
        for c0 in range(0, cols, TILE_COLS):
            y[..., c0:c0 + TILE_COLS] += (
                x[..., r0:r0 + TILE_ROWS]
                @ w[r0:r0 + TILE_ROWS, c0:c0 + TILE_COLS])
    return y


def two_loop_readout(m, x):
    """Readout oracle: the per-tile product of the effective weights, an
    odd batch read with one zero row appended (the row rule)."""
    n = len(x)
    if n % 2:
        x = np.vstack([x, np.zeros((1, m.rows))])
    return two_loop_product(x, m.effective_weights())[:n]


# The stream of every programming here whose device draws nothing.
NO_DRAWS = np.random.default_rng(0)


def reference_program(weights, dev, rng=None):
    """The two-sided programming rule this module used before: each side
    quantized on its own, the variation draw added to each side."""
    w = np.asarray(weights, dtype=np.float64)
    pos = w >= 0
    qp = quantize(np.where(pos, w, 0.0), dev)
    qn = quantize(np.where(pos, 0.0, -w), dev)
    if dev.variation_sigma > 0.0:
        eps = rng.normal(0.0, dev.variation_sigma, size=w.shape)
        qp = np.where(pos, np.clip(qp + eps, 0.0, 1.0), 0.0)
        qn = np.where(pos, 0.0, np.clip(qn + eps, 0.0, 1.0))
    return qp, qn


def save_tiled(m, path):
    """A programmed crossbar alone in the checkpoint container."""
    ckpt.save(path, "crossbar", {}, m.state())


def load_tiled(path):
    return ckpt.load(path, {"crossbar": lambda meta, arrays: crossbar.restore(
        arrays)})[1]


class TestTileGrid:
    def test_dense_mnist_shape(self):
        assert tile_grid(784, 784) == (4, 13)
        assert 4 * 13 == 52

    def test_bias_row_fits_same_grid(self):
        assert tile_grid(785, 784) == (4, 13)

    def test_single_tile(self):
        assert tile_grid(1, 1) == (1, 1)
        assert tile_grid(256, 64) == (1, 1)
        assert tile_grid(257, 65) == (2, 2)

    def test_matches_layout_oracle_for_all_shapes(self):
        rows = np.array([block_count(r, TILE_ROWS) for r in range(1, 2049)])
        cols = np.array([block_count(c, TILE_COLS) for c in range(1, 2049)])
        grid = np.array([[-(-r // TILE_ROWS), -(-c // TILE_COLS)]
                         for r, c in [(1, 1)]])  # formula spot check
        assert tuple(grid[0]) == (1, 1)
        for r in (1, 63, 64, 255, 256, 257, 784, 785, 1000, 2048):
            for c in (1, 63, 64, 65, 255, 256, 784, 1000, 2048):
                assert tile_grid(r, c) == (rows[r - 1], cols[c - 1])
        # exhaustively: the formula equals the explicit layout everywhere
        formula_rows = np.array([-(-r // TILE_ROWS) for r in range(1, 2049)])
        formula_cols = np.array([-(-c // TILE_COLS) for c in range(1, 2049)])
        assert np.array_equal(rows, formula_rows)
        assert np.array_equal(cols, formula_cols)


class TestProgram:
    def test_one_sided_pairs(self, rng):
        w = rng.uniform(-1.0, 1.0, size=(30, 20))
        m = program(w, DeviceModel(), NO_DRAWS)
        assert np.all((m.g_pos == 0.0) | (m.g_neg == 0.0))
        assert np.allclose(m.g_pos - m.g_neg, w)

    def test_zero_weight_grounds_both_devices(self):
        m = program(np.zeros((3, 3)), DeviceModel(), NO_DRAWS)
        assert not m.g_pos.any()
        assert not m.g_neg.any()

    def test_negative_weight_binary_device(self):
        m = program(np.array([[-0.6]]), DeviceModel(levels=2), NO_DRAWS)
        assert m.g_pos[0, 0] == 0.0
        assert m.g_neg[0, 0] == 1.0

    def test_overrange_weight_names_index(self):
        w = np.zeros((4, 4))
        w[2, 3] = 1.5
        with pytest.raises(ValueError, match=r"\(2, 3\)"):
            program(w, DeviceModel(), NO_DRAWS)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_names_index(self, bad):
        w = np.zeros((4, 4))
        w[1, 2] = bad
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            program(w, DeviceModel(), NO_DRAWS)

    def test_requires_matrix(self):
        with pytest.raises(ValueError):
            program(np.zeros(5), DeviceModel(), NO_DRAWS)

    def test_variation_draws_do_not_depend_on_signs(self, rng):
        w = rng.uniform(0.1, 0.9, size=(16, 16))
        dev = DeviceModel(variation_sigma=0.02)
        a = program(w, dev, np.random.default_rng(5))
        b = program(-w, dev, np.random.default_rng(5))
        assert np.array_equal(a.g_pos, b.g_neg)

    @pytest.mark.parametrize("dev", [
        DeviceModel(), DeviceModel(levels=2), DeviceModel(levels=16),
        DeviceModel(levels=256), DeviceModel(variation_sigma=0.05),
        DeviceModel(levels=16, variation_sigma=0.05)], ids=str)
    def test_bits_equal_reference_program(self, rng, dev):
        w = rng.uniform(-1.0, 1.0, size=(40, 30))
        w[0, :6] = [1.0, -1.0, 0.0, -0.0, 1e-9, -1e-9]
        w[1:, :2] = [0.0, -0.0]
        draws, want_draws = (np.random.default_rng(8) for _ in range(2))
        m = program(w, dev, draws)
        qp, qn = reference_program(w, dev, want_draws)
        assert (m.g_pos == qp).all() and (m.g_neg == qn).all()
        # same stream use: the next draw of both streams agrees
        assert draws.random() == want_draws.random()
        # Readouts keep every bit: an idle device now reads +0.0 where a
        # quantized one read -0.0, and no output sum sees the sign. Only
        # row 0 drives the outputs, so columns 2-5 sum zero conductances.
        x = rng.random((5, 40))
        x[:, 1:] = 0.0
        want = matmul(TiledMatrix(qp, qn), x)
        assert np.array_equal(matmul(m, x).view(np.uint64),
                              want.view(np.uint64))

    def test_counts(self):
        m = program(np.zeros((784, 784)), DeviceModel(), NO_DRAWS)
        assert m.tiles_per_polarity == 52


class TestReadout:
    def test_identity_passthrough(self):
        m = program(np.eye(4), DeviceModel(), NO_DRAWS)
        x = np.array([[1.0, 0.0, 0.0, 0.0]])
        assert np.array_equal(matmul(m, x), x)

    def test_matches_dense_multiply(self, rng):
        w = rng.uniform(-1.0, 1.0, size=(300, 100))
        m = program(w, DeviceModel(), NO_DRAWS)
        x = rng.uniform(0.0, 1.0, size=(1, 300))
        assert np.max(np.abs(matmul(m, x) - x @ w)) < 1e-12

    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 785])
    @pytest.mark.parametrize("cols", [1, 63, 64, 65, 784])
    def test_readout_bits_equal_two_loop_tiling(self, rng, rows, cols):
        # One product per row block must give the very bits of the
        # per-tile product it replaced: every output still adds its
        # row-block partial sums in the same order.
        w = rng.uniform(-1.0, 1.0, size=(rows, cols))
        plain = program(w, DeviceModel(), NO_DRAWS)
        masked = apply_sparsity(plain, 0.1, 0.1, np.random.default_rng(rows))
        for m in (plain, masked):
            for n in (1, 2, 8, 300):
                xs = rng.uniform(0.0, 1.0, size=(n, rows))
                assert np.array_equal(matmul(m, xs), two_loop_readout(m, xs))

    @pytest.mark.parametrize("rows,cols", [(785, 784), (9, 8)])
    def test_a_slice_reads_the_rows_of_the_whole_batch(self, rng, rows, cols):
        # The row rule: a multi-column readout's rows do not depend on how
        # the batch is cut, whatever the slice's length (1 and odd ones
        # included) or offset.
        m = program(rng.uniform(-1.0, 1.0, size=(rows, cols)), DeviceModel(),
                    NO_DRAWS)
        xs = rng.uniform(0.0, 1.0, size=(300, rows))
        whole = matmul(m, xs)
        for a in (7, 30):
            for n in range(1, 71):
                assert np.array_equal(matmul(m, xs[a:a + n]), whole[a:a + n])

    def test_batched_matches_dense_multiply(self, rng):
        w = rng.uniform(-1.0, 1.0, size=(300, 100))
        m = program(w, DeviceModel(), NO_DRAWS)
        xs = rng.uniform(0.0, 1.0, size=(7, 300))
        assert np.max(np.abs(matmul(m, xs) - xs @ w)) < 1e-12

    def test_dimension_mismatch(self):
        m = program(np.zeros((4, 4)), DeviceModel(), NO_DRAWS)
        with pytest.raises(ValueError):
            matmul(m, np.zeros((1, 5)))
        with pytest.raises(ValueError):
            matmul(m, np.zeros((2, 5)))
        with pytest.raises(ValueError):
            matmul(m, np.zeros(4))  # a bare vector is not a batch

    @given(a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, a, b, seed):
        gen = np.random.default_rng(seed)
        w = gen.uniform(-1.0, 1.0, size=(20, 10))
        m = program(w, DeviceModel(), NO_DRAWS)
        x1 = gen.uniform(0.0, 1.0, size=(1, 20))
        x2 = gen.uniform(0.0, 1.0, size=(1, 20))
        lhs = matmul(m, a * x1 + b * x2)
        rhs = a * matmul(m, x1) + b * matmul(m, x2)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_tile_accumulation_order_is_fixed(self, rng):
        # Shapes spanning several tiles in both directions agree with the
        # dense product, so partial sums are accumulated consistently.
        w = rng.uniform(-1.0, 1.0, size=(600, 150))
        m = program(w, DeviceModel(), NO_DRAWS)
        x = rng.uniform(0.0, 1.0, size=(1, 600))
        assert np.max(np.abs(matmul(m, x) - x @ w)) < 1e-12


class TestSparsity:
    def make(self, rng, rows=100, cols=40):
        return program(rng.uniform(-1.0, 1.0, size=(rows, cols)), DeviceModel(),
                       rng)

    def test_exact_counts_round_half_up(self, rng):
        m = self.make(rng, rows=784)
        s = apply_sparsity(m, 0.2, 0.0, np.random.default_rng(0))
        assert s.input_dropout_mask.sum() == 157
        s = apply_sparsity(m, 0.0, 0.1, np.random.default_rng(0))
        assert s.prune_mask.sum() == round(0.1 * m.g_pos.size)

    def test_half_row_rounds_up(self, rng):
        m = self.make(rng, rows=3, cols=2)
        s = apply_sparsity(m, 0.5, 0.0, np.random.default_rng(1))
        assert s.input_dropout_mask.sum() == 2

    def test_zero_fractions_change_nothing(self, rng):
        m = self.make(rng)
        s = apply_sparsity(m, 0.0, 0.0, np.random.default_rng(0))
        assert not s.input_dropout_mask.any()
        assert not s.prune_mask.any()
        x = rng.uniform(0.0, 1.0, size=(1, m.rows))
        assert np.array_equal(matmul(m, x), matmul(s, x))

    def test_dropped_rows_contribute_nothing(self, rng):
        m = self.make(rng)
        s = apply_sparsity(m, 0.3, 0.0, np.random.default_rng(2))
        w = (s.g_pos - s.g_neg).copy()
        w[s.input_dropout_mask] = 0.0
        x = rng.uniform(0.0, 1.0, size=(1, m.rows))
        assert np.max(np.abs(matmul(s, x) - x @ w)) < 1e-12

    def test_pruned_pairs_read_as_zero(self, rng):
        m = self.make(rng)
        s = apply_sparsity(m, 0.0, 0.25, np.random.default_rng(3))
        w = np.where(s.prune_mask, 0.0, s.g_pos - s.g_neg)
        x = rng.uniform(0.0, 1.0, size=(1, m.rows))
        assert np.max(np.abs(matmul(s, x) - x @ w)) < 1e-12

    def test_all_pruned_reads_zero(self, rng):
        m = self.make(rng, rows=8, cols=4)
        forced = TiledMatrix(m.g_pos, m.g_neg,
                             prune_mask=np.ones((8, 4), dtype=bool))
        assert not matmul(forced, rng.uniform(0.0, 1.0, size=(1, 8))).any()

    def test_same_seed_same_masks(self, rng):
        m = self.make(rng)
        a = apply_sparsity(m, 0.2, 0.2, np.random.default_rng(9))
        b = apply_sparsity(m, 0.2, 0.2, np.random.default_rng(9))
        assert np.array_equal(a.input_dropout_mask, b.input_dropout_mask)
        assert np.array_equal(a.prune_mask, b.prune_mask)

    def test_fraction_domain(self, rng):
        m = self.make(rng, rows=4, cols=4)
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                apply_sparsity(m, bad, 0.0, np.random.default_rng(0))
            with pytest.raises(ValueError):
                apply_sparsity(m, 0.0, bad, np.random.default_rng(0))


class TestContainer:
    def test_round_trip(self, rng, tmp_path):
        w = rng.uniform(-1.0, 1.0, size=(300, 100))
        m = program(w, DeviceModel(levels=64), NO_DRAWS)
        s = apply_sparsity(m, 0.1, 0.05, np.random.default_rng(4))
        save_tiled(s, tmp_path / "m.bin")
        back = load_tiled(tmp_path / "m.bin")
        assert np.array_equal(back.g_pos, s.g_pos)
        assert np.array_equal(back.g_neg, s.g_neg)
        assert np.array_equal(back.prune_mask, s.prune_mask)
        assert np.array_equal(back.input_dropout_mask, s.input_dropout_mask)

    def test_reserialization_is_byte_identical(self, rng, tmp_path):
        m = program(rng.uniform(-1.0, 1.0, size=(17, 9)), DeviceModel(), rng)
        save_tiled(m, tmp_path / "a.bin")
        save_tiled(load_tiled(tmp_path / "a.bin"), tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == \
            (tmp_path / "b.bin").read_bytes()

    def test_file_round_trip(self, rng, tmp_path):
        # The size follows from the header: magic, version, header length,
        # JSON header, then each array's raw bytes and nothing else.
        m = program(rng.uniform(-1.0, 1.0, size=(10, 10)), DeviceModel(), rng)
        path = tmp_path / "m.bin"
        save_tiled(m, path)
        blob = path.read_bytes()
        n = int.from_bytes(blob[12:16], "little")
        assert blob[:8] == ckpt.MAGIC
        assert len(blob) == 16 + n + 2 * 8 * 100 + 100 + 10
        assert np.array_equal(load_tiled(path).g_pos, m.g_pos)

    def test_bad_magic_names_source(self, tmp_path):
        path = tmp_path / "demo.bin"
        path.write_bytes(b"XXXX" + bytes(30))
        with pytest.raises(ValueError, match="demo.bin"):
            load_tiled(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "m.bin"
        save_tiled(program(np.zeros((1, 1)), DeviceModel(), NO_DRAWS), path)
        blob = bytearray(path.read_bytes())
        blob[8] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_tiled(path)


class TestTiledMatrixValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            TiledMatrix(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_requires_two_dims(self):
        with pytest.raises(ValueError):
            TiledMatrix(np.zeros(4), np.zeros(4))

    def test_mask_shape_checks(self):
        g = np.zeros((4, 4))
        with pytest.raises(ValueError):
            TiledMatrix(g, g, prune_mask=np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            TiledMatrix(g, g, input_dropout_mask=np.zeros(2, dtype=bool))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300,
                                     1.0 + 2 ** -52, 1e308])
    @pytest.mark.parametrize("side", ["g_pos", "g_neg"])
    def test_conductances_outside_window_rejected(self, bad, side):
        g = {"g_pos": np.full((3, 2), 0.5), "g_neg": np.zeros((3, 2))}
        g[side][2, 1] = bad
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            TiledMatrix(g["g_pos"], g["g_neg"])

    def test_window_edges_accepted(self):
        m = TiledMatrix(np.ones((2, 2)), np.zeros((2, 2)))
        assert m.effective_weights().tolist() == [[1.0, 1.0], [1.0, 1.0]]
        assert TiledMatrix(np.zeros((0, 3)), np.zeros((0, 3))).rows == 0

    def test_arrays_frozen(self, rng):
        m = program(rng.uniform(0.0, 1.0, size=(4, 4)), DeviceModel(), rng)
        with pytest.raises(ValueError):
            m.g_pos[0, 0] = 0.5

    def test_effective_weights_apply_masks(self, rng):
        w = rng.uniform(-1.0, 1.0, size=(6, 5))
        m = program(w, DeviceModel(), NO_DRAWS)
        s = apply_sparsity(m, 0.3, 0.2, np.random.default_rng(7))
        eff = s.effective_weights()
        assert not eff[s.input_dropout_mask].any()
        assert not eff[s.prune_mask].any()
