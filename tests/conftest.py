import numpy as np
import pytest

from spinmaps.register import DensityOperator, qubit_register, sector_buffer, sector_views


@pytest.fixture
def blocked_and_dense():
    """``make(rng, n)``: one random sector-diagonal state of n qubits, built
    blocked and built dense from the same blocks."""

    def make(rng, n, rank=3):
        flat = sector_buffer(n)
        for block in sector_views(flat, n):
            g = rng.standard_normal((len(block), rank)) + 1j * rng.standard_normal((len(block), rank))
            block[...] = g @ g.conj().T * rng.uniform(0.1, 1.0)
        flat /= sum(np.trace(b).real for b in sector_views(flat, n))
        blocked = DensityOperator.from_sectors(qubit_register(n), flat)
        return blocked, DensityOperator(qubit_register(n), blocked.matrix)

    return make
