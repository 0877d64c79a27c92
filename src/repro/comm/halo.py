"""Halo pack/unpack buffers and boundary reflection, per side.

The pack layout matches the reference app's comms buffers: ``depth``
edge layers of the interior (including the halo corners along the packed
direction, so diagonal neighbours resolve after the standard
x-then-y exchange ordering).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.util.errors import ReproError


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"
    DOWN = "down"
    UP = "up"


def edge_slices(
    shape: tuple[int, int], h: int, depth: int, side: Side, ghost: bool
) -> tuple[slice, slice]:
    """Slices selecting the edge strip: interior layers or ghost layers.

    ``shape`` is the padded array's.  For x sides the strip spans all
    rows (halo corners included) so that the subsequent y exchange
    carries corner data onward.
    """
    if not (1 <= depth <= h):
        raise ReproError(f"depth must be in [1, {h}], got {depth}")
    ny, nx = shape[0] - 2 * h, shape[1] - 2 * h
    if side is Side.LEFT:
        cols = slice(h - depth, h) if ghost else slice(h, h + depth)
        return slice(None), cols
    if side is Side.RIGHT:
        cols = slice(h + nx, h + nx + depth) if ghost else slice(h + nx - depth, h + nx)
        return slice(None), cols
    if side is Side.DOWN:
        rows = slice(h - depth, h) if ghost else slice(h, h + depth)
        return rows, slice(None)
    if side is Side.UP:
        rows = slice(h + ny, h + ny + depth) if ghost else slice(h + ny - depth, h + ny)
        return rows, slice(None)
    raise ReproError(f"unknown side {side!r}")


def pack_edge(a: np.ndarray, h: int, depth: int, side: Side) -> np.ndarray:
    """Copy the outermost ``depth`` interior layers on ``side`` into a buffer."""
    return a[edge_slices(a.shape, h, depth, side, ghost=False)].flatten()


def unpack_edge(a: np.ndarray, h: int, depth: int, side: Side, buffer: np.ndarray) -> None:
    """Fill the ghost layers on ``side`` from a neighbour's packed buffer."""
    strip = edge_slices(a.shape, h, depth, side, ghost=True)
    target = a[strip]
    if buffer.size != target.size:
        raise ReproError(
            f"halo buffer of {buffer.size} values does not fit strip of {target.size}"
        )
    a[strip] = buffer.reshape(target.shape)


def reflect_side(a: np.ndarray, h: int, depth: int, side: Side) -> None:
    """Reflective (zero-flux) boundary on one physical side only."""
    ny, nx = a.shape[0] - 2 * h, a.shape[1] - 2 * h
    for d in range(1, depth + 1):
        if side is Side.LEFT:
            a[:, h - d] = a[:, h + d - 1]
        elif side is Side.RIGHT:
            a[:, h + nx + d - 1] = a[:, h + nx - d]
        elif side is Side.DOWN:
            a[h - d, :] = a[h + d - 1, :]
        elif side is Side.UP:
            a[h + ny + d - 1, :] = a[h + ny - d, :]
        else:
            raise ReproError(f"unknown side {side!r}")
