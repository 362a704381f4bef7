"""Differential crossbar mapping of weight matrices.

A real matrix W with |w| <= 1 is programmed onto pairs of memristors,
g_pos carrying w >= 0 and g_neg carrying -w for w < 0 (the unused device
of each pair stays at ground, so at most one side of a pair is nonzero).
The array is partitioned into 256x64 tiles. A readout sums the partial
products of the 256-row blocks in row-block order, so every output's sum
has one fixed order. The 64-column tiles of a row block produce
independent outputs, so one product per row block reads them all.

One row rule keeps a readout's bits independent of how callers batch
its rows: OpenBLAS takes other kernels for a 1-row product (gemv) and,
on AVX2, for an odd one, so an odd batch is read with one zero row
appended and that output row dropped. This covers the 784-, 64- and
8-column crossbars the nets build. A 1-column one (the CNN's m3 and m2,
the fusion kernel) is a matrix-vector product whose row bits depend on
the row count mod 4, so both nets read it as a stack of per-plane
patch matrices, and each plane gets the bits it gets alone. On
SkylakeX, a last column tile wider than 8 and 1-4 past a multiple of 8
(a 100-column crossbar's 36) is not covered either.

Inputs are non-negative voltages, so a readout is one read phase: every
caller clamps its input to the [0, 1] window (the dense net, the CNN's
first layer) or feeds ReLU outputs (the CNN's later layers) or clamped
member outputs (the fusion stage).
"""

import numpy as np

from .device import apply_variation, quantize

TILE_ROWS = 256
TILE_COLS = 64

# Programmed state of a TiledMatrix, by constructor argument name.
STATE = ("g_pos", "g_neg", "prune_mask", "input_dropout_mask")


def _ceil_div(a, b):
    return -(-a // b)


def tile_grid(rows, cols):
    """Tile grid dimensions (row blocks, col blocks) for a rows x cols array."""
    return _ceil_div(rows, TILE_ROWS), _ceil_div(cols, TILE_COLS)


class TiledMatrix:
    """An immutable programmed crossbar: conductance pair arrays plus masks,
    and the readout matrix built from them when it is made.

    prune_mask marks device pairs read as g = 0 in both polarities;
    input_dropout_mask marks rows whose input never reaches the array.
    Conductances must lie in the normalized window [0, 1], NaN rejected,
    so a readout of finite inputs is finite.
    """

    def __init__(self, g_pos, g_neg, prune_mask=None, input_dropout_mask=None):
        g_pos = np.ascontiguousarray(g_pos, dtype=np.float64)
        g_neg = np.ascontiguousarray(g_neg, dtype=np.float64)
        if g_pos.shape != g_neg.shape or g_pos.ndim != 2:
            raise ValueError("conductance arrays must share a 2-D shape")
        for g in (g_pos, g_neg):
            if not (g.min(initial=0.0) >= 0.0 and g.max(initial=0.0) <= 1.0):
                raise ValueError("conductances outside [0, 1] (or NaN)")
        self.rows, self.cols = g_pos.shape
        self.g_pos = g_pos
        self.g_neg = g_neg
        if prune_mask is None:
            prune_mask = np.zeros(g_pos.shape, dtype=bool)
        if input_dropout_mask is None:
            input_dropout_mask = np.zeros(self.rows, dtype=bool)
        self.prune_mask = np.ascontiguousarray(prune_mask, dtype=bool)
        self.input_dropout_mask = np.ascontiguousarray(input_dropout_mask, dtype=bool)
        if self.prune_mask.shape != g_pos.shape:
            raise ValueError("prune mask shape mismatch")
        if self.input_dropout_mask.shape != (self.rows,):
            raise ValueError("dropout mask shape mismatch")
        self._readout = g_pos - g_neg
        self._readout[self.prune_mask] = 0.0
        self._readout[self.input_dropout_mask] = 0.0
        for a in (*self.state().values(), self._readout):
            a.setflags(write=False)

    def state(self):
        """Conductances and masks by name, as restore() takes them back."""
        return {name: getattr(self, name) for name in STATE}

    @property
    def tiles_per_polarity(self):
        gr, gc = tile_grid(self.rows, self.cols)
        return gr * gc

    def effective_weights(self):
        """Readout-visible weight matrix: g_pos - g_neg with masks applied."""
        return self._readout


def restore(state):
    """The TiledMatrix whose state() is state."""
    return TiledMatrix(*(state[name] for name in STATE))


def program(weights, dev, rng):
    """Program a weight matrix onto differential pairs through a device model.

    Each weight maps one-sidedly: |w| is programmed as
    apply_variation(quantize(|w|)) onto g_pos for w >= 0 and onto g_neg
    for w < 0; the other device of the pair stays at 0. One variation
    draw is consumed per pair (its programmed device), so stream usage
    does not depend on the sign pattern.

    Raises ValueError naming the offending index if any |w| > 1 or is NaN.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError("weights must be 2-D")
    amax = np.abs(w).max(initial=0.0)
    if not amax <= 1.0:  # NaN propagates into amax and fails too
        idx = tuple(int(i) for i in np.unravel_index(np.argmax(np.abs(w)), w.shape))
        raise ValueError("|w|=%g at index %r, must be <= 1" % (amax, idx))
    pos = w >= 0
    g = apply_variation(quantize(np.where(pos, w, -w), dev), dev, rng)
    return TiledMatrix(np.where(pos, g, 0.0), np.where(pos, 0.0, g))


def _blocked_product(x, w, rows, cols):
    # Row blocks in fixed order: each output adds its per-block partial
    # sums in that order. Column tiles only split outputs, which are
    # independent, so one product per row block reads all the tiles. A
    # partial last tile is read again on its own: BLAS takes other
    # kernels for narrow products, so its bits come from that read. An
    # odd batch gains a zero row, dropped from the result (the row rule).
    n = x.shape[-2]
    if n % 2:
        x = np.concatenate([x, np.zeros(x.shape[:-2] + (1, rows))], axis=-2)
    y = np.zeros(x.shape[:-1] + (cols,), dtype=np.float64)
    last = cols - cols % TILE_COLS
    for r0 in range(0, rows, TILE_ROWS):
        xb, wb = x[..., r0:r0 + TILE_ROWS], w[r0:r0 + TILE_ROWS]
        part = xb @ wb
        if 0 < last < cols:
            part[..., last:] = xb @ wb[:, last:]
        y += part
    return y[..., :n, :]


def matmul(m, xs):
    """Analog dot products ys[k, j] = sum_i xs[k, i] (g_pos[i,j] - g_neg[i,j]).

    xs has shape (n, rows), result (n, cols), read in one phase. Pruned
    pairs and dropped rows contribute nothing. A stack (..., n, rows)
    reads each (n, rows) batch on its own, giving each the bits it would
    get alone; result (..., n, cols).
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim < 2 or xs.shape[-1] != m.rows:
        raise ValueError("batch shape %r, expected (..., n, %d)"
                         % (xs.shape, m.rows))
    return _blocked_product(xs, m.effective_weights(), m.rows, m.cols)


def apply_sparsity(m, dropout_frac, prune_frac, rng):
    """Mask exactly round(frac * population) rows / device pairs.

    Selections are uniform without replacement from the given stream and
    replace any masks already present. Counts use round-half-up.
    """
    if not (0.0 <= dropout_frac < 1.0 and 0.0 <= prune_frac < 1.0):
        raise ValueError("fractions must lie in [0, 1)")
    n_drop = int(np.floor(dropout_frac * m.rows + 0.5))
    n_prune = int(np.floor(prune_frac * m.g_pos.size + 0.5))
    drop = np.zeros(m.rows, dtype=bool)
    if n_drop:
        drop[rng.choice(m.rows, size=n_drop, replace=False)] = True
    prune = np.zeros((m.rows, m.cols), dtype=bool)
    if n_prune:
        flat = rng.choice(m.g_pos.size, size=n_prune, replace=False)
        prune[np.unravel_index(flat, prune.shape)] = True
    return TiledMatrix(m.g_pos, m.g_neg, prune_mask=prune,
                       input_dropout_mask=drop)
