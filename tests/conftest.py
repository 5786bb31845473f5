import numpy as np
import pytest

from spinmaps.register import DensityOperator, _sector_indices, qubit_register


@pytest.fixture
def blocked_and_dense():
    """``make(rng, n)``: one random sector-diagonal state of n qubits as
    ``(state, reference)``.  The reference is the state's ``2**n x 2**n``
    numpy matrix, scattered from random sector blocks by index; the state is
    built from a copy of it and is blocked.  Tests compute their expected
    values from the reference with numpy and the dense kernels only."""

    def make(rng, n, rank=3):
        reference = np.zeros((2**n, 2**n), dtype=complex)
        for idx in _sector_indices(n):
            g = rng.standard_normal((len(idx), rank)) + 1j * rng.standard_normal((len(idx), rank))
            reference[np.ix_(idx, idx)] = g @ g.conj().T * rng.uniform(0.1, 1.0)
        reference /= np.trace(reference).real
        blocked = DensityOperator(qubit_register(n), reference.copy())
        assert blocked.sectors is not None
        # the reference is a plain dense matrix, independent of the blocked buffer
        assert type(reference) is np.ndarray and reference.shape == (2**n, 2**n)
        assert not np.shares_memory(reference, blocked.sectors)
        return blocked, reference

    return make
