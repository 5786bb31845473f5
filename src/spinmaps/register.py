"""Hilbert-space bookkeeping for mixed qubit/qutrit ion registers.

Conventions used throughout the package:

* Ion 0 is the leftmost tensor factor; a basis index is the mixed-radix
  number built from the per-ion occupations, ion 0 most significant.
  :func:`basis_bits` is the one owner of the qubit levels of a basis index:
  excitation sectors, bond energies, hop pairs and frame phases read it.
* The qubit levels are ``|0> = down`` and ``|1> = up``; ``|1>`` is the spin
  excitation.  Hence ``sigma_z = |1><1| - |0><0| = diag(-1, +1)``.
* A qutrit ion carries the extra "parking" level ``|2>``.  2x2 operators
  are lifted into a qutrit by :func:`lift_qubit_operator`: they act on
  span{|0>, |1>} and annihilate ``|2>``, except gate unitaries, which keep
  it; identity factors keep ``|2>`` untouched.
* :func:`embed_operator` is the one embedder of a local operator into the
  register and :func:`apply_local_superop` the one local apply path.
* This module owns the superoperator convention, row-major ``A rho B <-> A (x) B^T``;
  only :func:`kraus_superop` folds a Kraus set, ``sum K (x) conj(K)``.
* :class:`DensityOperator` validates block by block.  On an all-qubit
  register whose matrix passes the exact count test
  ``count_nonzero(mat) == sum(count_nonzero(block))`` over the excitation
  sectors (every map of the paper conserves total S_z), the Hermiticity
  residual, the Hermitian part ``H`` and positivity are all computed on
  those sectors; no d x d temporary is made.  Any other matrix takes the
  dense path, where the sectors are still used for positivity when ``H``
  passes the count test; otherwise ``H`` is one dense block.  Each block is
  first tried by a Cholesky factorization just inside the floor, and
  ``eigvalsh`` decides when one fails.  The tolerances and messages are the
  same on every path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg.lapack import zpotrf

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_FLOOR = -1e-8
NORM_TOL = 1e-12

# 2x2 qubit operators in the (|0>, |1>) basis.
_SIGMA = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, 1j], [-1j, 0]], dtype=complex),
    "z": np.array([[-1, 0], [0, 1]], dtype=complex),
    "+": np.array([[0, 0], [1, 0]], dtype=complex),   # |1><0|
    "-": np.array([[0, 1], [0, 0]], dtype=complex),   # |0><1|
    "up": np.array([[0, 0], [0, 1]], dtype=complex),  # |1><1|
    "down": np.array([[1, 0], [0, 0]], dtype=complex),  # |0><0|
}


class RegisterError(ValueError):
    """Raised for malformed layouts, states or operators."""


def qubit_operator(axis: str) -> np.ndarray:
    """Return a copy of the 2x2 matrix for one of the supported axes."""
    try:
        return _SIGMA[axis].copy()
    except KeyError:
        raise RegisterError(f"unknown Pauli axis {axis!r}") from None


def lift_qubit_operator(op2: np.ndarray, dim: int, keep_parking: bool = False) -> np.ndarray:
    """Lift a 2x2 operator to an ion of dimension 2 or 3.

    On a qutrit the result acts on {|0>, |1>}; ``keep_parking`` leaves the
    parking level |2> untouched (exponentials of generators that annihilate
    |2>), otherwise |2> is annihilated.
    """
    if dim == 2:
        return op2
    out = np.zeros((3, 3), dtype=complex)
    out[:2, :2] = op2
    if keep_parking:
        out[2, 2] = 1.0
    return out


@dataclass(frozen=True)
class RegisterLayout:
    """Level structure of an ion register.

    ``ion_dims[i]`` is 2 for a qubit ion and 3 for a qutrit ion whose third
    level is the parking state.  ``ancilla_index`` optionally designates one
    ion as the ancilla used by engineered dissipation and the feedback
    protocols (by convention index 0 when present).
    """

    ion_dims: tuple[int, ...]
    ancilla_index: int | None = None

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.ion_dims)
        object.__setattr__(self, "ion_dims", dims)
        if not dims:
            raise RegisterError("register needs at least one ion")
        if any(d not in (2, 3) for d in dims):
            raise RegisterError(f"ion dimensions must be 2 or 3, got {dims}")
        if self.ancilla_index is not None and not 0 <= self.ancilla_index < len(dims):
            raise RegisterError(f"ancilla index {self.ancilla_index} out of range")

    @property
    def n_ions(self) -> int:
        return len(self.ion_dims)

    @property
    def dim(self) -> int:
        return int(np.prod(self.ion_dims))

    def index_of(self, occupation: Sequence[int]) -> int:
        """Mixed-radix basis index of a product state, ion 0 most significant."""
        if len(occupation) != self.n_ions:
            raise RegisterError(
                f"occupation has {len(occupation)} entries for {self.n_ions} ions"
            )
        idx = 0
        for level, d in zip(occupation, self.ion_dims):
            if not 0 <= level < d:
                raise RegisterError(f"level {level} out of range for ion of dim {d}")
            idx = idx * d + level
        return idx

    def occupation_of(self, index: int) -> tuple[int, ...]:
        """Inverse of :meth:`index_of`."""
        occ = []
        for d in reversed(self.ion_dims):
            occ.append(index % d)
            index //= d
        return tuple(reversed(occ))


def qubit_register(n: int, ancilla_index: int | None = None) -> RegisterLayout:
    """Layout of ``n`` qubit ions."""
    return RegisterLayout((2,) * n, ancilla_index)


@lru_cache(maxsize=None)
def basis_bits(n: int) -> np.ndarray:
    """Read-only ``(2**n, n)`` table: entry ``[b, i]`` is the level of qubit
    ion ``i`` in basis index ``b`` (ion 0 most significant)."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    bits.flags.writeable = False
    return bits


@lru_cache(maxsize=None)
def excitation_numbers(n: int) -> np.ndarray:
    """Number of up-spins for every computational basis index of n qubits."""
    counts = basis_bits(n).sum(axis=1)
    counts.flags.writeable = False
    return counts


@lru_cache(maxsize=None)
def _sector_indices(n: int) -> tuple[np.ndarray, ...]:
    """Read-only basis indices of each excitation sector ``k = 0..n`` of n qubits."""
    sectors = tuple(np.flatnonzero(excitation_numbers(n) == k) for k in range(n + 1))
    for idx in sectors:
        idx.flags.writeable = False
    return sectors


def system_with_ancilla(n_system: int, ancilla_dim: int = 3) -> RegisterLayout:
    """Ancilla ion at index 0 followed by ``n_system`` qubit spins."""
    return RegisterLayout((ancilla_dim,) + (2,) * n_system, ancilla_index=0)


@dataclass(frozen=True)
class PureState:
    """State vector on a register, unit norm to 1e-12."""

    layout: RegisterLayout
    vector: np.ndarray

    def __post_init__(self) -> None:
        vec = np.asarray(self.vector, dtype=complex).reshape(-1)
        object.__setattr__(self, "vector", vec)
        if vec.shape != (self.layout.dim,):
            raise RegisterError(
                f"vector length {vec.size} does not match layout dim {self.layout.dim}"
            )
        norm = np.linalg.norm(vec)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise RegisterError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")

    def density(self) -> "DensityOperator":
        return DensityOperator(self.layout, np.outer(self.vector, self.vector.conj()))


@dataclass(frozen=True)
class DensityOperator:
    """Positive, unit-trace operator on a register.

    Construction validates Hermiticity (1e-10), unit trace (1e-10) and
    positivity (smallest eigenvalue of the Hermitian part ``H`` >= -1e-8);
    each check fails on NaN.

    When ``mat`` itself passes the exact count test over the excitation
    sectors of an all-qubit register (no entry outside them), the
    Hermiticity residual and ``H`` are computed per sector; they equal the
    dense values exactly, since every off-sector entry is zero.  Otherwise
    both are computed densely, as is the trace on every path.

    Positivity is judged on a list of Hermitian blocks whose spectra together
    are the spectrum of ``H``.  On an all-qubit register the blocks are the
    excitation sectors, used only when the exact count test
    ``count_nonzero(H) == sum(count_nonzero(block))`` holds, i.e. ``H`` has
    no entry outside them; otherwise (qutrit ions, cross-sector coherence)
    the one block is ``H`` itself.  A block passes when ``block + s 1`` with
    ``s = 1e-8 - 1e-10`` has a Cholesky factor, which proves its smallest
    eigenvalue is above -1e-8: the factorization's backward error is far
    below the 1e-10 margin.  If any block fails, ``eigvalsh`` of every block
    decides and the error names the smallest eigenvalue over all blocks.
    No tolerance depends on the path taken.
    """

    layout: RegisterLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        d = self.layout.dim
        if mat.shape != (d, d):
            raise RegisterError(f"matrix shape {mat.shape} does not match dim {d}")
        blocks = _sector_blocks(self.layout, mat)
        if blocks is None:
            herm = np.max(np.abs(mat - mat.conj().T)) if d else 0.0
        else:
            herm = np.max([np.max(np.abs(b - b.conj().T)) for b in blocks])
        if not herm <= HERMITICITY_TOL:
            raise RegisterError(f"matrix deviates from Hermitian by {herm}")
        tr = np.trace(mat)
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise RegisterError(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
        if blocks is None:
            # The Hermitian part is built in the adjoint's own buffer, after
            # the residual, so validation never holds more than two extra
            # d x d arrays; sharing one adjoint with the residual would hold more.
            h = mat.conj().T
            h += mat
            h *= 0.5
            blocks = _hermitian_blocks(self.layout, h)
        else:
            blocks = [0.5 * (b + b.conj().T) for b in blocks]
        if all(_clears_floor(block) for block in blocks):
            return
        lo = float(np.min(np.concatenate([np.linalg.eigvalsh(b) for b in blocks])))
        if not lo >= POSITIVITY_FLOOR:
            raise RegisterError(f"smallest eigenvalue {lo} below {POSITIVITY_FLOOR}")

    def tensor(self) -> np.ndarray:
        """Matrix reshaped to one ket and one bra axis per ion."""
        dims = self.layout.ion_dims
        return self.matrix.reshape(dims + dims)


# Diagonal shift of the Cholesky test: 1e-10 inside the positivity floor.
_CHOLESKY_SHIFT = -POSITIVITY_FLOOR - 1e-10


def _sector_blocks(layout: RegisterLayout, m: np.ndarray) -> list[np.ndarray] | None:
    """Excitation-sector diagonal blocks of ``m`` on an all-qubit register when
    the exact count test ``count_nonzero(m) == sum(count_nonzero(block))``
    shows every nonzero (or NaN) entry inside them, otherwise ``None``."""
    if set(layout.ion_dims) != {2}:
        return None
    blocks = [m[np.ix_(idx, idx)] for idx in _sector_indices(layout.n_ions)]
    if sum(np.count_nonzero(b) for b in blocks) == np.count_nonzero(m):
        return blocks
    return None


def _hermitian_blocks(layout: RegisterLayout, h: np.ndarray) -> list[np.ndarray]:
    """Diagonal blocks of the Hermitian ``h`` whose spectra together are its
    spectrum: its :func:`_sector_blocks` when the count test holds, else ``[h]``."""
    return _sector_blocks(layout, h) or [h]


def _clears_floor(block: np.ndarray) -> bool:
    """True when ``block + _CHOLESKY_SHIFT * 1`` has a Cholesky factor."""
    shifted = block.copy()
    shifted[np.diag_indices_from(shifted)] += _CHOLESKY_SHIFT
    # The transpose of the C-ordered buffer is Fortran-ordered, so LAPACK
    # factors it in place; it is conj(shifted), which has the same spectrum.
    return zpotrf(shifted.T, overwrite_a=True, clean=False)[1] == 0


@dataclass(frozen=True)
class PauliString:
    """Product of single-ion qubit operators with a complex prefactor.

    Factors are ``(ion_index, axis)`` pairs with distinct ions and axes from
    ``{x, y, z, +, -, up, down}`` (``up``/``down`` are the |1><1| and |0><0|
    projectors).  On qutrit ions the factor acts on the qubit block and
    annihilates the parking level.
    """

    factors: tuple[tuple[int, str], ...]
    coefficient: complex = 1.0

    def __post_init__(self) -> None:
        facs = tuple((int(i), str(ax)) for i, ax in self.factors)
        object.__setattr__(self, "factors", facs)
        ions = [i for i, _ in facs]
        if len(set(ions)) != len(ions):
            raise RegisterError("PauliString ion indices must be distinct")
        for _, ax in facs:
            if ax not in _SIGMA or ax == "i":
                raise RegisterError(f"unknown Pauli axis {ax!r}")

    def ions(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.factors)

    def axis_on(self, ion: int) -> str | None:
        for i, ax in self.factors:
            if i == ion:
                return ax
        return None


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Symbolic product ``a . b`` (operator composition, a applied after b).

    The single-qubit algebra over the supported axes is closed up to complex
    scalars; identity factors drop out and an exactly vanishing product is
    returned as the empty string with coefficient 0.
    """
    coeff = complex(a.coefficient) * complex(b.coefficient)
    factors: list[tuple[int, str]] = []
    for ion in sorted(set(a.ions()) | set(b.ions())):
        ax_a, ax_b = a.axis_on(ion), b.axis_on(ion)
        if ax_b is None:
            factors.append((ion, ax_a))
            continue
        if ax_a is None:
            factors.append((ion, ax_b))
            continue
        prod = _SIGMA[ax_a] @ _SIGMA[ax_b]
        if np.allclose(prod, 0):
            return PauliString((), 0.0)
        for name, mat in _SIGMA.items():
            scale = prod[np.abs(mat) > 0.5] / mat[np.abs(mat) > 0.5] if np.any(np.abs(mat) > 0.5) else []
            if len(scale) and np.allclose(prod, scale[0] * mat):
                coeff *= scale[0]
                if name != "i":
                    factors.append((ion, name))
                break
        else:  # pragma: no cover - algebra is closed
            raise RegisterError("product left the Pauli axis algebra")
    return PauliString(tuple(factors), coeff)


def basis_state(layout: RegisterLayout, occupation: Sequence[int]) -> PureState:
    """Computational product state with the given per-ion levels."""
    vec = np.zeros(layout.dim, dtype=complex)
    vec[layout.index_of(occupation)] = 1.0
    return PureState(layout, vec)


def embed(op: PauliString, layout: RegisterLayout) -> np.ndarray:
    """Dense matrix of a Pauli string on the full register.

    Uninvolved ions carry the identity (including the parking level of
    qutrits); involved qutrit ions carry the qubit-block operator that
    annihilates |2>.
    """
    check_sites(op.ions(), layout.n_ions)
    dims = layout.ion_dims
    lifted = [lift_qubit_operator(_SIGMA[ax], dims[ion]) for ion, ax in op.factors]
    return embed_operator(kron_product(lifted, op.coefficient), op.ions(), dims)


def kron_product(mats: Iterable[np.ndarray], coefficient: complex = 1.0) -> np.ndarray:
    """``coefficient * mats[0] (x) mats[1] (x) ...``; ``[[coefficient]]`` if empty."""
    return reduce(np.kron, mats, np.array([[coefficient]], dtype=complex))


def check_sites(sites: Sequence[int], n: int) -> None:
    """Raise :class:`RegisterError` unless ``sites`` are distinct ions in ``range(n)``."""
    if len(set(sites)) != len(sites) or not all(0 <= s < n for s in sites):
        raise RegisterError(f"sites {tuple(sites)} are not distinct ions of a {n}-ion register")


def _moved_axes(n: int, sites: Sequence[int]) -> tuple[list[int], list[int]]:
    """Permutation bringing ket/bra axes of ``sites`` to the front."""
    check_sites(sites, n)
    rest = [i for i in range(n) if i not in sites]
    ket = list(sites) + rest
    bra = [n + i for i in ket]
    return ket, bra


def embed_operator(
    op: np.ndarray, sites: Sequence[int], dims: Sequence[int]
) -> np.ndarray:
    """Dense embedding of a local operator at ``sites`` (identity elsewhere).

    ``op`` is indexed in the order of ``sites``, which need be neither sorted
    nor contiguous.
    """
    dims = tuple(dims)
    ket, bra = _moved_axes(len(dims), sites)
    d = int(np.prod(dims))
    d_loc = int(np.prod([dims[s] for s in sites]))
    if op.shape != (d_loc, d_loc):
        raise RegisterError(f"operator shape {op.shape} does not fit sites {sites}")
    full = np.kron(op, np.eye(d // d_loc, dtype=complex))
    t = full.reshape([dims[i] for i in ket] * 2)
    return t.transpose(np.argsort(ket + bra)).reshape(d, d)


def kraus_superop(kraus: Iterable[np.ndarray]) -> np.ndarray:
    """Row-major superoperator ``sum_k K (x) conj(K)`` of ``rho -> sum_k K rho K^dag``."""
    return sum(np.kron(k, k.conj()) for k in kraus)


def apply_local_superop(
    rho_mat: np.ndarray, superop: np.ndarray, sites: Sequence[int], dims: Sequence[int]
) -> np.ndarray:
    """Apply a row-major superoperator of shape ``(d_loc**2, d_loc**2)`` supported
    on ``sites``; the full state is permuted only once per application."""
    dims = tuple(dims)
    ket, bra = _moved_axes(len(dims), sites)
    d = int(np.prod(dims))
    d_loc = int(np.prod([dims[s] for s in sites]))
    if superop.shape != (d_loc * d_loc, d_loc * d_loc):
        raise RegisterError(f"superoperator shape {superop.shape} does not fit sites {sites}")
    d_rest = d // d_loc
    perm = ket + bra
    t = rho_mat.reshape(dims + dims).transpose(perm)
    t = t.reshape(d_loc, d_rest, d_loc, d_rest).transpose(0, 2, 1, 3)
    t = t.reshape(d_loc * d_loc, d_rest * d_rest)
    t = (superop @ t).reshape(d_loc, d_loc, d_rest, d_rest).transpose(0, 2, 1, 3)
    t = t.reshape([dims[i] for i in ket] * 2)
    return t.transpose(np.argsort(perm)).reshape(d, d)


def apply_local_kraus(
    rho_mat: np.ndarray, kraus: Iterable[np.ndarray], sites: Sequence[int], dims: Sequence[int]
) -> np.ndarray:
    """Apply ``rho -> sum_k K rho K^dag`` with every K supported on ``sites``."""
    return apply_local_superop(rho_mat, kraus_superop(kraus), sites, dims)


def partial_trace(rho: DensityOperator, ions: Iterable[int]) -> DensityOperator:
    """Trace out the given ions, returning the reduced state on the rest."""
    traced = sorted(set(int(i) for i in ions))
    layout = rho.layout
    for i in traced:
        if not 0 <= i < layout.n_ions:
            raise RegisterError(f"ion {i} out of range")
    keep = [i for i in range(layout.n_ions) if i not in traced]
    if not keep:
        raise RegisterError("cannot trace out the whole register")
    t = rho.tensor()
    n = layout.n_ions
    for offset, i in enumerate(traced):
        ax = i - offset
        t = np.trace(t, axis1=ax, axis2=ax + (n - offset))
    anc = layout.ancilla_index
    new_layout = RegisterLayout(
        tuple(layout.ion_dims[i] for i in keep),
        ancilla_index=keep.index(anc) if anc in keep else None,
    )
    d = new_layout.dim
    return DensityOperator(new_layout, t.reshape(d, d))


def expectation(rho: DensityOperator, op: PauliString | np.ndarray) -> complex:
    """Tr(op rho); real to 1e-10 for Hermitian op."""
    mat = embed(op, rho.layout) if isinstance(op, PauliString) else np.asarray(op)
    if mat.shape != rho.matrix.shape:
        raise RegisterError(
            f"operator shape {mat.shape} does not match state {rho.matrix.shape}"
        )
    return complex(np.einsum("ij,ji->", mat, rho.matrix))
