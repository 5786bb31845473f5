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
  register and :func:`apply_local` the one local apply of a state, which
  picks the kernel for its form; :func:`local_sum` adds a sum of local
  generators on the same form.  :func:`apply_local_superop` is the dense
  kernel: it works tile by tile through a transposed view of the state,
  never permuting it, and may write into its input.
  :func:`hermitize` is ``(m + m^dag) / 2`` in place, also by tiles.
  :func:`relabel` applies, on either form, a channel whose Kraus operators
  send basis states to basis states times phases (a stabilization half-round).
* This module owns the superoperator convention, row-major ``A rho B <-> A (x) B^T``;
  only :func:`kraus_superop` folds a Kraus set, ``sum K (x) conj(K)``.
* A :class:`DensityOperator` is stored in one of two forms, by one rule:
  a state of an all-qubit register with no entry outside its
  excitation-sector blocks is stored blocked, as one flat buffer of them
  (``C(2N, N)`` entries on N qubits, :func:`sector_views`); any other state
  is stored dense, as its ``d x d`` matrix.  The constructor applies the
  rule, so no producer needs to know it.  :func:`sector_rows` is the one
  scatter of blocks into dense rows: ``DensityOperator.matrix`` takes all of
  them, a state dump one band at a time.
* :func:`apply_sector_superop` is the local apply of the blocked form.  Every
  map of the package conserves total ``S_z``, so its superoperator only
  couples local entries ``|p><q|`` and ``|s><t|`` of equal charge
  ``n(p) - n(q) = n(s) - n(t)``.  With the rest of the register fixed at
  ``|R><C|``, the entry ``|p R><q C|`` lies in a sector block exactly when
  ``n(C) - n(R)`` equals that charge, so the entries of one charge and one
  ``(R, C)`` are all stored or all zero, and the apply is exact on the
  stored ones: per charge, one gather of them, one product with the
  superoperator's charge block (sizes 1, 4, 6, 4, 1 on a pair) and one
  scatter, over a plan of flat positions cached per ``(N, sites)``.  The
  charge blocks are taken once per call for all placements (:func:`_charge_blocks`).
  :func:`apply_local` fuses consecutive open-chain pairs of a sweep into
  windows of ``_WINDOW_SITES = 3`` sites, one composed superoperator each
  (:func:`_windows`; charge blocks 1, 6, 15, 20, 15, 6, 1), so an open chain
  of N spins takes ``ceil((N - 1) / 2)`` passes and plans instead of N - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Iterable, Sequence

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
        return math.prod(self.ion_dims)  # a Python int: np.prod wraps in int64 past 63 qubits

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


@lru_cache(maxsize=None)
def _sector_offsets(n: int) -> tuple[int, ...]:
    """Start of each sector block in a flat sector buffer of n qubits, then its
    length ``C(2n, n)``."""
    return tuple(np.cumsum([0] + [len(idx) ** 2 for idx in _sector_indices(n)]).tolist())


@lru_cache(maxsize=None)
def _sector_positions(n: int) -> np.ndarray:
    """Read-only rank of every basis index of n qubits within its sector."""
    pos = np.empty(2**n, dtype=np.intp)
    for idx in _sector_indices(n):
        pos[idx] = np.arange(len(idx))
    pos.flags.writeable = False
    return pos


def sector_buffer(n: int) -> np.ndarray:
    """A zero flat sector buffer of n qubits: ``C(2n, n)`` complex entries."""
    return np.zeros(_sector_offsets(n)[-1], dtype=complex)


def sector_views(flat: np.ndarray, n: int) -> list[np.ndarray]:
    """The square excitation-sector blocks ``k = 0..n`` of a flat sector buffer
    of n qubits, as views: block ``k`` is ``rho[np.ix_(idx_k, idx_k)]`` for the
    basis indices ``idx_k`` of sector k in ascending order."""
    off = _sector_offsets(n)
    return [
        flat[a:b].reshape(len(idx), len(idx))
        for a, b, idx in zip(off, off[1:], _sector_indices(n))
    ]


def sector_rows(flat: np.ndarray, n: int, start: int, stop: int) -> np.ndarray:
    """Rows ``start..stop-1`` of the ``2**n x 2**n`` matrix of a flat sector
    buffer of n qubits, scattered from its blocks; zero outside them.  The rows
    of sector k in the band are ``idx_k[a:b]``, so they take rows ``a..b-1``
    of its block."""
    rows = np.zeros((stop - start, 2**n), dtype=complex)
    for idx, block in zip(_sector_indices(n), sector_views(flat, n)):
        a, b = np.searchsorted(idx, (start, stop))
        rows[np.ix_(idx[a:b] - start, idx)] = block[a:b]
    return rows


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
        """``|v><v|``, blocked when the register is all qubits and ``v`` lies in
        one excitation sector (basis and Dicke states), dense otherwise."""
        vec, n = self.vector, self.layout.n_ions
        if self.layout.ion_dims == (2,) * n:
            k = np.unique(excitation_numbers(n)[np.flatnonzero(vec)])
            if len(k) == 1:
                flat = sector_buffer(n)
                part = vec[_sector_indices(n)[k[0]]]
                sector_views(flat, n)[k[0]][...] = np.outer(part, part.conj())
                return DensityOperator.from_sectors(self.layout, flat)
        return DensityOperator(self.layout, np.outer(vec, vec.conj()))


class DensityOperator:
    """Positive, unit-trace operator on a register, in one of two forms.

    * Blocked: ``sectors``, one flat buffer of the excitation-sector blocks
      of an all-qubit register (:func:`sector_views`), read-only.  Every
      state of such a register with no entry outside the blocks has this
      form: ``DensityOperator(layout, matrix)`` stores the blocks when the
      exact count test ``count_nonzero(matrix) == count_nonzero(blocks)``
      holds (NaN counts as nonzero) and drops the matrix, and
      :meth:`from_sectors` takes a buffer directly.  ``matrix`` is then built
      from the blocks on demand and is not cached.
    * Dense: the ``d x d`` matrix of a state with an entry outside the
      sectors or with a qutrit ion.

    Construction validates Hermiticity (1e-10), unit trace (1e-10) and
    positivity (smallest eigenvalue of the Hermitian part ``H`` >= -1e-8);
    each check fails on NaN, and each error names its value and tolerance.
    There is one path over the stored blocks, a dense matrix being one
    block: the Hermiticity residual is the largest tiled residual of a
    block, the trace is the sum of the block traces and ``H`` is taken per
    block.  On the blocked form they equal the dense values, since every
    entry outside the blocks is zero.

    A Hermitian block passes when ``block + s 1`` with ``s = 1e-8 - 1e-10``
    has a Cholesky factor, which proves its smallest eigenvalue is above
    -1e-8: the factorization's backward error is far below the 1e-10
    margin.  The test overwrites each block, so if any fails the blocks are
    built again and ``eigvalsh`` of every block decides; the error names the
    smallest eigenvalue over all blocks.  No tolerance depends on the form.
    """

    __slots__ = ("layout", "_matrix", "sectors")

    def __init__(self, layout: RegisterLayout, matrix: np.ndarray) -> None:
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, "sectors", None)
        self.__post_init__()

    @classmethod
    def from_sectors(cls, layout: RegisterLayout, sectors: np.ndarray) -> "DensityOperator":
        """Blocked state from a flat sector buffer, which it takes over read-only."""
        rho = cls.__new__(cls)
        object.__setattr__(rho, "layout", layout)
        object.__setattr__(rho, "_matrix", None)
        object.__setattr__(rho, "sectors", np.asarray(sectors, dtype=complex))
        rho.__post_init__()
        rho.sectors.flags.writeable = False
        return rho

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"DensityOperator is immutable; cannot set {name!r}")

    def __post_init__(self) -> None:
        """Store a matrix in its form, then validate; both constructors call it,
        under the name that tracing wraps."""
        layout, n, d = self.layout, self.layout.n_ions, self.layout.dim
        if self.sectors is None:
            mat = np.asarray(self._matrix, dtype=complex)
            if mat.shape != (d, d):
                raise RegisterError(f"matrix shape {mat.shape} does not match dim {d}")
            flat = _sector_blocks(layout, mat)
            if flat is not None:
                flat.flags.writeable = False
                mat = None
            object.__setattr__(self, "_matrix", mat)
            object.__setattr__(self, "sectors", flat)
        flat = self.sectors
        if flat is not None and (
            layout.ion_dims != (2,) * n or flat.shape != (_sector_offsets(n)[-1],)
        ):
            raise RegisterError(
                f"sector buffer of shape {flat.shape} does not fit ion dims {layout.ion_dims}"
            )
        blocks = [self._matrix] if flat is None else sector_views(flat, n)
        residuals = [_hermiticity_residual(b) for b in blocks]
        herm = np.max(residuals)
        tr = sum(np.trace(b) for b in blocks)
        if not herm <= HERMITICITY_TOL:
            raise RegisterError(
                f"matrix deviates from Hermitian by {herm} (tolerance {HERMITICITY_TOL})"
            )
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise RegisterError(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
        # A block with residual 0 is its own Hermitian part, so it is factored as it is.
        if all(_clears_floor(b.copy() if r == 0 else hermitize(b.copy()))
               for b, r in zip(blocks, residuals)):
            return
        lo = float(np.min(np.concatenate([np.linalg.eigvalsh(hermitize(b.copy())) for b in blocks])))
        if not lo >= POSITIVITY_FLOOR:
            raise RegisterError(f"smallest eigenvalue {lo} below {POSITIVITY_FLOOR}")

    @property
    def matrix(self) -> np.ndarray:
        """The ``d x d`` matrix; on the blocked form a fresh array each time."""
        if self.sectors is None:
            return self._matrix
        return sector_rows(self.sectors, self.layout.n_ions, 0, self.layout.dim)

    def sector_block(self, k: int) -> np.ndarray:
        """Diagonal block of excitation sector ``k`` of an all-qubit register: a
        read-only view on the blocked form, a copy on the dense one."""
        n = self.layout.n_ions
        if self.layout.ion_dims != (2,) * n:
            raise RegisterError(
                f"excitation sectors need an all-qubit register, got {self.layout.ion_dims}"
            )
        if not 0 <= k <= n:
            raise RegisterError(f"no excitation sector {k} on {n} qubits")
        idx = _sector_indices(n)[k]
        if self.sectors is None:
            return self._matrix[np.ix_(idx, idx)]
        off = _sector_offsets(n)
        return self.sectors[off[k] : off[k + 1]].reshape(len(idx), len(idx))


# Diagonal shift of the Cholesky test: 1e-10 inside the positivity floor.
_CHOLESKY_SHIFT = -POSITIVITY_FLOOR - 1e-10


def _sector_blocks(layout: RegisterLayout, m: np.ndarray) -> np.ndarray | None:
    """Flat sector buffer of ``m`` on an all-qubit register when the exact
    count test ``count_nonzero(m) == count_nonzero(buffer)`` shows every
    nonzero (or NaN) entry inside the excitation sectors, otherwise ``None``."""
    n = layout.n_ions
    if layout.ion_dims != (2,) * n:
        return None
    nonzero = np.count_nonzero(m)
    if nonzero > _sector_offsets(n)[-1]:  # more than the sectors hold
        return None
    flat = sector_buffer(n)
    for idx, block in zip(_sector_indices(n), sector_views(flat, n)):
        block[...] = m[np.ix_(idx, idx)]
    return flat if np.count_nonzero(flat) == nonzero else None


def _clears_floor(block: np.ndarray) -> bool:
    """True when ``block + _CHOLESKY_SHIFT * 1`` has a Cholesky factor; the
    C-ordered ``block`` is shifted and factored in place, so it is lost."""
    block[np.diag_indices_from(block)] += _CHOLESKY_SHIFT
    # The transpose of the C-ordered buffer is Fortran-ordered, so LAPACK
    # factors it in place; it is conj(block), which has the same spectrum.
    return zpotrf(block.T, overwrite_a=True, clean=False)[1] == 0


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


def embed_operator(
    op: np.ndarray, sites: Sequence[int], dims: Sequence[int]
) -> np.ndarray:
    """Dense embedding of a local operator at ``sites`` (identity elsewhere).

    ``op`` is indexed in the order of ``sites``, which need be neither sorted
    nor contiguous.
    """
    dims, n = tuple(dims), len(dims)
    check_sites(sites, n)
    ket = list(sites) + [i for i in range(n) if i not in sites]
    d = int(np.prod(dims))
    d_loc = int(np.prod([dims[s] for s in sites]))
    if op.shape != (d_loc, d_loc):
        raise RegisterError(f"operator shape {op.shape} does not fit sites {sites}")
    full = np.kron(op, np.eye(d // d_loc, dtype=complex))
    t = full.reshape([dims[i] for i in ket] * 2)
    return t.transpose(np.argsort(ket + [n + i for i in ket])).reshape(d, d)


def kraus_superop(kraus: Iterable[np.ndarray]) -> np.ndarray:
    """Row-major superoperator ``sum_k K (x) conj(K)`` of ``rho -> sum_k K rho K^dag``."""
    return sum(np.kron(k, k.conj()) for k in kraus)


# Largest tile of the local apply and of :func:`hermitize`, in complex entries
# (64 KB).  A tile's temporaries then reuse freed heap memory; 256-512 KB tiles
# went through glibc's mmap threshold once per tile, about 3x slower at N = 12.
_TILE_ENTRIES = 2**12


@lru_cache(maxsize=None)
def _tile_plan(sites: tuple[int, ...], dims: tuple[int, ...]) -> tuple[tuple, tuple]:
    """Axis order (outer, site kets, site bras, other rest axes) of the state's
    ``dims + dims`` view, and the outer shape: rest kets, then rest bras,
    until one tile (one outer index) holds at most ``_TILE_ENTRIES`` entries."""
    n = len(dims)
    check_sites(sites, n)
    inner = [ax for ax in range(2 * n) if ax % n not in sites]
    outer, tile = [], int(np.prod(dims)) ** 2
    while inner and tile > _TILE_ENTRIES:
        outer.append(inner.pop(0))
        tile //= dims[outer[-1] % n]
    order = outer + list(sites) + [n + s for s in sites] + inner
    return tuple(order), tuple(dims[ax % n] for ax in outer)


def apply_local_superop(
    rho_mat: np.ndarray, superop: np.ndarray, sites: Sequence[int], dims: Sequence[int],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply a row-major superoperator of shape ``(d_loc**2, d_loc**2)`` supported
    on ``sites`` into ``out`` (fresh if ``None``; may be ``rho_mat`` itself).
    Each tile of the :func:`_tile_plan` view is multiplied and written back;
    tiles do not overlap and are read in full first, so in place is exact."""
    dims = tuple(dims)
    order, outer = _tile_plan(tuple(sites), dims)
    d_loc = int(np.prod([dims[s] for s in sites]))
    if superop.shape != (d_loc * d_loc, d_loc * d_loc):
        raise RegisterError(f"superoperator shape {superop.shape} does not fit sites {sites}")
    if out is None:
        out = np.empty(rho_mat.shape, np.result_type(rho_mat, superop))
    src = rho_mat.reshape(dims + dims).transpose(order)
    dst = out.reshape(dims + dims)
    if not np.may_share_memory(dst, out):  # reshape had to copy: writes would be lost
        raise RegisterError("out cannot be viewed as the register's dims + dims tensor")
    dst = dst.transpose(order)
    for idx in np.ndindex(outer):
        tile = src[idx]
        dst[idx] = (superop @ tile.reshape(d_loc * d_loc, -1)).reshape(tile.shape)
    return out


@lru_cache(maxsize=None)
def _charge_moving(n_sites: int) -> np.ndarray:
    """Read-only mask of the row-major superoperator entries ``[(s, t), (p, q)]``
    on ``n_sites`` qubits that change the local charge: ``n(s) - n(t) != n(p) - n(q)``."""
    counts = excitation_numbers(n_sites)
    charge = (counts[:, None] - counts[None, :]).reshape(-1)
    moving = charge[:, None] != charge[None, :]
    moving.flags.writeable = False
    return moving


@lru_cache(maxsize=None)
def _sector_plan(n: int, sites: tuple[int, ...]) -> tuple[tuple[list[int], np.ndarray], ...]:
    """Gather plan of :func:`apply_sector_superop` on qubit ``sites`` of n: for
    each local charge ``c`` that the buffer holds, the superoperator indices
    ``(p, q)`` with ``n(p) - n(q) = c`` and an ``intp`` array of flat-buffer
    positions, one row per ``(p, q)`` and one column per pair of rest states
    ``(R, C)`` with ``n(C) - n(R) = c``: the entry ``|p R><q C|``.  Rows are
    built from per-sector position vectors of each site state."""
    check_sites(sites, n)
    n_loc, rest = len(sites), [i for i in range(n) if i not in sites]
    weight = 1 << np.arange(n - 1, -1, -1)
    index = (basis_bits(n_loc) @ weight[list(sites)])[:, None] + basis_bits(n - n_loc) @ weight[rest]
    local, rest_counts = excitation_numbers(n_loc), excitation_numbers(n - n_loc)
    pos, off, sectors = _sector_positions(n), _sector_offsets(n), _sector_indices(n)
    # ranks[p][m]: positions, in sector m + n(p), of site state p with each rest state of m
    ranks = [[pos[index[p, rest_counts == m]] for m in range(n - n_loc + 1)] for p in range(2**n_loc)]
    plan = []
    for c in range(-n_loc, n_loc + 1):
        pairs = [(p, q) for p in range(2**n_loc) for q in range(2**n_loc) if local[p] - local[q] == c]
        kets = [m for m in range(n - n_loc + 1) if 0 <= m + c <= n - n_loc]
        if not kets:
            continue
        idx = np.array([
            np.concatenate([
                (off[m + local[p]] + len(sectors[m + local[p]]) * ranks[p][m][:, None]
                 + ranks[q][m + c]).ravel()
                for m in kets
            ])
            for p, q in pairs
        ], dtype=np.intp)
        plan.append(([p * 2**n_loc + q for p, q in pairs], idx))
    return tuple(plan)


def _charge_blocks(
    superop: np.ndarray, placements: Iterable[Sequence[int]], n: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(S_c, idx_c)`` per local charge ``c`` of the :func:`_sector_plan` of each
    sites tuple of ``placements`` of n, in order: the charge block of the
    row-major ``superop``, taken once as a plan's rows depend on n and the
    number of sites only, and the flat-buffer positions it acts on.  Raises
    :class:`RegisterError` if ``superop`` does not fit a placement."""
    terms, blocks = [], None
    for sites in placements:
        sites = tuple(sites)
        plan = _sector_plan(n, sites)
        if superop.shape != (4 ** len(sites),) * 2:
            raise RegisterError(f"superoperator shape {superop.shape} does not fit sites {sites}")
        if blocks is None:
            blocks = [superop[np.ix_(rows, rows)] for rows, _ in plan]
        terms += [(block, idx) for block, (_, idx) in zip(blocks, plan)]
    return terms


def apply_sector_superop(
    flat: np.ndarray, superop: np.ndarray, placements: Iterable[Sequence[int]], n: int
) -> np.ndarray:
    """Apply a row-major superoperator at each qubit sites tuple of ``placements``
    in order to the flat sector buffer of an n-qubit state, in place:
    ``flat[idx_c] = S_c @ flat[idx_c]`` over :func:`_charge_blocks`.  It must
    move no charge (:func:`_sector_form` checks): the buffer holds no entry for it."""
    for block, idx in _charge_blocks(superop, placements, n):
        flat[idx] = block @ flat[idx]
    return flat


# Sites of one window of the sector kernel: a run of consecutive open-chain
# pairs is applied _WINDOW_SITES - 1 pairs at a time, as one superoperator.
_WINDOW_SITES = 3


@lru_cache(maxsize=64)
def _window_superop(pair: bytes, n_pairs: int) -> np.ndarray:
    """Row-major superoperator on ``n_pairs + 1`` qubits of the pair
    superoperator (raw complex bytes) at ``(0, 1)``, then ``(1, 2)``, and so on.
    A superoperator on k qubits is an operator on the 2k qubits of ``vec(rho)``,
    kets then bras, so each pair is embedded at ``(j, j + 1, k + j, k + j + 1)``."""
    k, superop = n_pairs + 1, np.frombuffer(pair, dtype=complex).reshape(16, 16)
    window = reduce(
        lambda acc, j: embed_operator(superop, (j, j + 1, k + j, k + j + 1), (2,) * 2 * k) @ acc,
        range(n_pairs), np.eye(4**k, dtype=complex))
    window.flags.writeable = False
    return window


def _windows(superop: np.ndarray, placements: Iterable[Sequence[int]]) -> list[tuple[np.ndarray, list]]:
    """``placements`` of a pair ``superop`` as runs of ``(superop, placements)``
    to apply in order: each run of consecutive open-chain pairs ``(i, i + 1),
    (i + 1, i + 2), ...`` is cut into windows of at most ``_WINDOW_SITES - 1``
    pairs, and a window of several pairs becomes one placement of their
    composed superoperator (:func:`_window_superop`).  Any other placement,
    and a superoperator on other than two sites, stays as it is."""
    placements = [tuple(sites) for sites in placements]
    if superop.shape != (16, 16):
        return [(superop, placements)]
    chunks: list[list[tuple[int, ...]]] = []
    for sites in placements:
        last = chunks[-1][-1] if chunks else ()
        # a placement of other than two sites is left for the kernel to reject
        if (len(last) == len(sites) == 2 and len(chunks[-1]) < _WINDOW_SITES - 1
                and last[0] + 1 == last[1] == sites[0] == sites[1] - 1):
            chunks[-1].append(sites)
        else:
            chunks.append([sites])
    runs: list[tuple[np.ndarray, list]] = []
    key = np.ascontiguousarray(superop, dtype=complex).tobytes()
    for chunk in chunks:
        local, sites = superop, chunk[0]
        if len(chunk) > 1:
            local, sites = _window_superop(key, len(chunk)), tuple(range(chunk[0][0], chunk[-1][1] + 1))
        if runs and runs[-1][0] is local:
            runs[-1][1].append(sites)
        else:
            runs.append((local, [sites]))
    return runs


def _sector_form(rho: DensityOperator, superop: np.ndarray) -> bool:
    """True when ``rho`` is blocked and ``superop`` is a qubit superoperator
    that moves no charge, so that the sector kernel applies it exactly."""
    k = (len(superop).bit_length() - 1) // 2  # a k-qubit superoperator is 4**k square
    return rho.sectors is not None and superop.shape == (4**k, 4**k) and not np.any(
        superop[_charge_moving(k)])


def apply_local(
    rho: DensityOperator, superop: np.ndarray, placements: Iterable[Sequence[int]]
) -> DensityOperator:
    """Apply a row-major local superoperator at each sites tuple of ``placements``
    in order, in place on one copy of ``rho``'s stored form, then re-Hermitize
    it and return it validated.  A blocked state under a qubit superoperator
    that moves no charge takes the sector kernel :func:`apply_sector_superop`
    and stays blocked, with consecutive open-chain pairs fused into windows
    (:func:`_windows`); any other takes the tiled :func:`apply_local_superop`
    pair by pair."""
    n, dims = rho.layout.n_ions, rho.layout.ion_dims
    if _sector_form(rho, superop):
        flat = rho.sectors.copy()
        for local, sites in _windows(superop, placements):
            apply_sector_superop(flat, local, sites, n)
        for block in sector_views(flat, n):
            hermitize(block)
        return DensityOperator.from_sectors(rho.layout, flat)
    mat = rho.matrix if rho.sectors is not None else rho.matrix.copy()  # a blocked .matrix is fresh
    for sites in placements:
        apply_local_superop(mat, superop, sites, dims, out=mat)
    return DensityOperator(rho.layout, hermitize(mat))


def local_sum(
    rho: DensityOperator, superop: np.ndarray, placements: Iterable[Sequence[int]]
) -> tuple[np.ndarray, Callable[[np.ndarray, np.ndarray], None]]:
    """The sum over the sites tuples of ``placements`` of a row-major local
    superoperator, such as a bond generator, on the form :func:`apply_local`
    picks for ``rho``.  Returns ``(start, add)``: ``start`` is ``rho`` in that
    form (its sector buffer or its matrix; never to be written) and
    ``add(y, acc)`` adds the sum applied to ``y`` into ``acc``, both arrays of
    that form.  On the sector buffer each term is ``acc[idx_c] += S_c @ y[idx_c]``
    over :func:`_charge_blocks`, which are taken once, here; on a matrix each
    is an output of the tiled :func:`apply_local_superop`."""
    n, dims = rho.layout.n_ions, rho.layout.ion_dims
    placements = [tuple(sites) for sites in placements]
    if _sector_form(rho, superop):
        terms = _charge_blocks(superop, placements, n)

        def add(y: np.ndarray, acc: np.ndarray) -> None:
            for block, idx in terms:
                acc[idx] += block @ y[idx]

        return rho.sectors, add

    def add(y: np.ndarray, acc: np.ndarray) -> None:
        for sites in placements:
            acc += apply_local_superop(y, superop, sites, dims)

    return rho.matrix, add


def relabel(
    rho: DensityOperator, path: np.ndarray, target: np.ndarray, phase: np.ndarray
) -> DensityOperator:
    """The channel whose Kraus operators each send basis state ``i`` to
    ``phase[i] |target[i]>`` if ``path[i]`` is the operator's number, else to
    zero: ``sum phase[i] conj(phase[j]) rho[i, j] |target[i]><target[j]|`` over
    ``path[i] == path[j]``.  Targets must be distinct within a path.  One
    gather and one scatter per (path, stored block) into a fresh buffer of
    the input's form, then re-Hermitized and validated; a blocked state stays
    blocked, so a path must take each sector into one sector."""
    n, d = rho.layout.n_ions, rho.layout.dim
    if not len(path) == len(target) == len(phase) == d:
        raise RegisterError(f"relabel needs a path, target and phase per basis state of dim {d}")
    if rho.sectors is None:
        out = np.zeros((d, d), dtype=complex)
        sources, indices, dests = [rho.matrix], [np.arange(d)], [out]
        block_of, pos = np.zeros(d, dtype=np.intp), np.arange(d)
    else:
        out = sector_buffer(n)
        sources, indices, dests = sector_views(rho.sectors, n), _sector_indices(n), sector_views(out, n)
        block_of, pos = excitation_numbers(n), _sector_positions(n)
    for block, idx in zip(sources, indices):
        for p in np.unique(path[idx]):
            local = np.flatnonzero(path[idx] == p)
            t, w = target[idx[local]], phase[idx[local]]
            dest = np.unique(block_of[t])
            if len(dest) != 1:
                raise RegisterError(f"relabel path {p} splits a sector block")
            dests[dest[0]][np.ix_(pos[t], pos[t])] += w[:, None] * block[np.ix_(local, local)] * w.conj()
    for block in dests:
        hermitize(block)
    if rho.sectors is None:
        return DensityOperator(rho.layout, out)
    return DensityOperator.from_sectors(rho.layout, out)


def _mirrored_tiles(mat: np.ndarray):
    """Pairs of tiles ``(mat[I, J], mat[J, I])`` of the square ``mat`` over the
    tile rows ``I`` and columns ``J >= I``, as views."""
    edge = int(_TILE_ENTRIES**0.5)
    for i in range(0, len(mat), edge):
        for j in range(i, len(mat), edge):
            yield mat[i : i + edge, j : j + edge], mat[j : j + edge, i : i + edge]


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Overwrite the square ``mat`` with ``0.5 * (mat + mat.conj().T)``, bytewise,
    one mirrored pair of tiles at a time, both computed from the old values."""
    for upper, lower in _mirrored_tiles(mat):
        new_upper = 0.5 * (upper + lower.conj().T)
        lower[...] = 0.5 * (lower + upper.conj().T)
        upper[...] = new_upper
    return mat


def _hermiticity_residual(mat: np.ndarray) -> float:
    """``max |mat - mat^dag|`` of the square ``mat``, one mirrored pair of tiles
    at a time (``|L - U^dag|`` mirrors ``|U - L^dag|``); NaN if any entry is."""
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, and NaN fails the check
        tiles = [np.max(np.abs(u - l.conj().T)) for u, l in _mirrored_tiles(mat)]
    return np.max(tiles) if tiles else 0.0


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
    t = rho.matrix.reshape(layout.ion_dims * 2)
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
    state = rho.matrix
    if mat.shape != state.shape:
        raise RegisterError(f"operator shape {mat.shape} does not match state {state.shape}")
    return complex(np.einsum("ij,ji->", mat, state))
