"""The one-shot noise draw that the simulators' chunked draws are compared
against."""

import math

import numpy as np

from skestim.core import ObservationGrid, draw_increments, philox_generator


def make_noise_path(seed: int, stream_id: int, grid: ObservationGrid) -> np.ndarray:
    """Every Brownian increment of the (seed, stream_id) run on a uniform
    grid, N(0, h) at its one substep width h, in one draw; the simulators
    draw the same normals a chunk at a time.

    Regenerating with the same (seed, stream_id, grid) is bit-identical:
    the counter-based Philox generator keyed on (seed, stream_id) makes
    replicates deterministic regardless of scheduling.
    """
    h = grid.spacing / grid.substeps_per_interval
    return draw_increments([philox_generator(seed, stream_id)], grid.total_substeps,
                           math.sqrt(h))[0]
