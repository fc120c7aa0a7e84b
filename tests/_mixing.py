"""Convex mixing of two 1D deformations by scaled copies.

Only the tests use it: no envelope route, relax or certificate mixes
deformations.
"""

from __future__ import annotations

from ymrelax.laminate import GradientField
from ymrelax.matcore import Mat


def mix_deformations(y1: GradientField, y2: GradientField, lam: float,
                     depth: int = 6):
    """Pack scaled copies of y1 on a fraction lam of the interval and of
    y2 on the rest, dyadically to the given depth; the unpacked residual
    (volume fraction 2^-depth) carries the shared affine map.

    Both inputs must be one-dimensional and share the same affine
    boundary datum.  Returns (field, residual_fraction); gradient
    statistics of the result match the lam-mixture of the inputs up to
    the reported residual.
    """
    if y1.n != 1 or y2.n != 1:
        raise ValueError("deformation mixing is implemented on the interval only")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must sit in [0, 1]")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    a1 = y1.value((1.0,))[0] - y1.value((0.0,))[0]
    a2 = y2.value((1.0,))[0] - y2.value((0.0,))[0]
    if abs(a1 - a2) > 1e-10 * max(1.0, abs(a1)):
        raise ValueError("inputs carry different affine boundary data")
    slope = a1

    def copy_pieces(y: GradientField, h: float, out: list):
        for i in range(y.pieces):
            out.append((h * (y.breaks[i + 1] - y.breaks[i]), y.grads[i]))

    widths_grads: list = []
    for y, span in ((y1, lam), (y2, 1.0 - lam)):
        if span <= 0.0:
            continue
        used = 0.0
        for j in range(1, depth + 1):
            h = span * (0.5 ** j)
            copy_pieces(y, h, widths_grads)
            used += h
        widths_grads.append((span - used, Mat.scalar(slope)))  # residual

    residual = 0.5 ** depth
    widths = [w for w, _ in widths_grads if w > 0.0]
    grads = [g for w, g in widths_grads if w > 0.0]
    field = GradientField.from_pieces(1, (1.0,), widths, grads,
                                      (y1.value((0.0,))[0],))
    return field, residual
