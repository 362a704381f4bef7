"""Seeded procedural digit corpus in the MNIST IDX layout.

SYNTHETIC DATA. Every image is a stroke template for one of the classes
0-9, pushed through a random affine warp (rotation, scale, shear,
translation), a random stroke width and a Gaussian blur, at 28x28 with
byte intensities. The corpus exists so the command line can run end to
end without MNIST. Quality or accuracy figures measured on it are not a
reproduction of the paper, and neither the test suite nor the acceptance
gate may be pointed at it.

The same (seed, n_train, n_test) always writes the same bytes.
"""

import math
import os
import struct

import numpy as np
from scipy import ndimage

SIDE = 28
# Templates are rendered once at this resolution over the unit square,
# then sampled through each image's affine map.
_TEMPLATE_SIDE = 112
_WIDTHS = (0.04, 0.055, 0.07)


# Trigonometry goes through libm, not numpy's SIMD loops, whose last
# bits can depend on the CPU: the corpus bytes must not.
def _arc(cx, cy, rx, ry, start_deg, end_deg, steps=16):
    step = (end_deg - start_deg) / (steps - 1)
    angles = [math.radians(start_deg + i * step) for i in range(steps)]
    return [(cx + rx * math.cos(t), cy + ry * math.sin(t)) for t in angles]


# One list of polylines per class, in unit-square coordinates with y
# pointing down and the glyph inside roughly [0.2, 0.8] x [0.1, 0.9].
STROKES = {
    0: [_arc(0.5, 0.5, 0.22, 0.36, 0, 360, 32)],
    1: [[(0.38, 0.25), (0.52, 0.12), (0.52, 0.88)],
        [(0.38, 0.88), (0.66, 0.88)]],
    2: [_arc(0.5, 0.32, 0.22, 0.2, 200, 380)
        + [(0.3, 0.88), (0.74, 0.88)]],
    3: [_arc(0.48, 0.3, 0.22, 0.19, 210, 450),
        _arc(0.48, 0.69, 0.24, 0.2, 270, 510)],
    4: [[(0.6, 0.12), (0.24, 0.62), (0.78, 0.62)],
        [(0.62, 0.35), (0.62, 0.9)]],
    5: [[(0.72, 0.12), (0.34, 0.12), (0.3, 0.46)],
        _arc(0.48, 0.66, 0.24, 0.23, 230, 500)],
    6: [[(0.66, 0.12), (0.42, 0.3), (0.3, 0.6)],
        _arc(0.5, 0.68, 0.2, 0.2, 0, 360, 24)],
    7: [[(0.26, 0.14), (0.76, 0.14), (0.44, 0.9)]],
    8: [_arc(0.5, 0.3, 0.18, 0.18, 0, 360, 24),
        _arc(0.5, 0.69, 0.22, 0.21, 0, 360, 24)],
    9: [_arc(0.5, 0.32, 0.2, 0.2, 0, 360, 24),
        [(0.7, 0.34), (0.62, 0.6), (0.5, 0.9)]],
}


def _segment_distance(px, py, a, b):
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    t = ((px - ax) * dx + (py - ay) * dy) / max(dx * dx + dy * dy, 1e-12)
    t = np.clip(t, 0.0, 1.0)
    ex, ey = px - (ax + t * dx), py - (ay + t * dy)
    return np.sqrt(ex * ex + ey * ey)


def render_templates():
    """(10, len(_WIDTHS), S, S) float templates in [0, 1], S = _TEMPLATE_SIDE."""
    s = _TEMPLATE_SIDE
    coords = (np.arange(s) + 0.5) / s
    py, px = np.meshgrid(coords, coords, indexing="ij")
    out = np.zeros((10, len(_WIDTHS), s, s))
    for digit, lines in STROKES.items():
        dist = np.full((s, s), np.inf)
        for line in lines:
            for a, b in zip(line[:-1], line[1:]):
                dist = np.minimum(dist, _segment_distance(px, py, a, b))
        for k, width in enumerate(_WIDTHS):
            # Soft edge one template pixel wide.
            out[digit, k] = np.clip((width - dist) * s + 0.5, 0.0, 1.0)
    return out


def draw(rng, n, templates=None):
    """n images (n, 28, 28) uint8 and labels (n,) uint8 from one stream."""
    if templates is None:
        templates = render_templates()
    labels = rng.integers(0, 10, size=n)
    width = rng.integers(0, len(_WIDTHS), size=n)
    angle = rng.uniform(-14.0, 14.0, size=n)
    scale = rng.uniform(0.82, 1.08, size=n)
    aspect = rng.uniform(0.85, 1.1, size=n)
    shear = rng.uniform(-0.25, 0.25, size=n)
    shift = rng.uniform(-0.07, 0.07, size=(n, 2))
    blur = rng.uniform(0.35, 0.75, size=n)

    # Inverse map: output pixel (unit coords, centred) -> template coords,
    # written out elementwise so no fused multiply-add can change a bit.
    cos = np.array([math.cos(math.radians(a)) for a in angle])
    sin = np.array([math.sin(math.radians(a)) for a in angle])
    m00 = (cos / (scale * aspect))[:, None]
    m01 = ((sin + shear * cos) / (scale * aspect))[:, None]
    m10 = (-sin / scale)[:, None]
    m11 = ((cos - shear * sin) / scale)[:, None]
    grid = (np.arange(SIDE) + 0.5) / SIDE - 0.5
    gy, gx = np.meshgrid(grid, grid, indexing="ij")
    px = gx.ravel()[None, :] - shift[:, :1]
    py = gy.ravel()[None, :] - shift[:, 1:]
    # float32 halves the cost of the per-pixel work below.
    tx = ((m00 * px + m01 * py + 0.5) * _TEMPLATE_SIDE - 0.5).astype(np.float32)
    ty = ((m10 * px + m11 * py + 0.5) * _TEMPLATE_SIDE - 0.5).astype(np.float32)

    # Bilinear gather from templates framed by a zero border, so samples
    # that fall outside the glyph box read zero.
    s = _TEMPLATE_SIDE + 2
    framed = np.pad(templates.reshape(-1, _TEMPLATE_SIDE, _TEMPLATE_SIDE),
                    ((0, 0), (1, 1), (1, 1))).astype(np.float32).ravel()
    x0 = np.clip(np.floor(tx), -1, _TEMPLATE_SIDE - 1)
    y0 = np.clip(np.floor(ty), -1, _TEMPLATE_SIDE - 1)
    fx = np.clip(tx - x0, 0.0, 1.0)
    fy = np.clip(ty - y0, 0.0, 1.0)
    ex, ey = 1.0 - fx, 1.0 - fy
    base = ((labels * len(_WIDTHS) + width)[:, None] * (s * s)
            + (y0.astype(np.int64) + 1) * s + (x0.astype(np.int64) + 1))
    img = ((np.take(framed, base) * ex + np.take(framed, base + 1) * fx) * ey
           + (np.take(framed, base + s) * ex
              + np.take(framed, base + s + 1) * fx) * fy)
    img = img.reshape(n, SIDE, SIDE)

    # Blur in three sigma bands so the stack filters in a few calls.
    band = np.digitize(blur, (0.48, 0.62))
    for b in range(3):
        sel = band == b
        if sel.any():
            sigma = float(np.median(blur[sel]))
            img[sel] = ndimage.gaussian_filter(img[sel], (0, sigma, sigma))
    peak = np.maximum(img.reshape(n, -1).max(axis=1), 1e-6)[:, None, None]
    img = np.clip(img / peak, 0.0, 1.0)
    raw = np.floor(img * 255.0 + 0.5).astype(np.uint8)
    return raw, labels.astype(np.uint8)


def write_idx(path, array):
    """Write an unsigned-byte IDX file (magic 0x08 type, rank from shape)."""
    array = np.ascontiguousarray(array, dtype=np.uint8)
    header = struct.pack(">I", 0x0800 | array.ndim)
    header += struct.pack(">" + "I" * array.ndim, *array.shape)
    with open(path, "wb") as f:
        f.write(header)
        f.write(array.tobytes())


def write_corpus(root, seed, n_train, n_test):
    """Write train/t10k IDX pairs under root.

    Train and test draw from separate substreams of the seed, so the
    test split does not change with the train size.
    """
    os.makedirs(root, exist_ok=True)
    templates = render_templates()
    for split, n, stream in (("train", n_train, 0), ("t10k", n_test, 1)):
        images, labels = draw(np.random.default_rng([seed, 0xD161, stream]),
                              n, templates)
        write_idx(os.path.join(root, f"{split}-images-idx3-ubyte"), images)
        write_idx(os.path.join(root, f"{split}-labels-idx1-ubyte"), labels)
    with open(os.path.join(root, "SYNTHETIC.txt"), "w") as f:
        f.write("Procedural digits from perfbench/corpus.py "
                f"(seed {seed}, {n_train} train, {n_test} test). "
                "Not MNIST: no paper comparison.\n")
