"""Phase-space conventions and the classical action of linear optical circuits.

Quadratures of an M-mode system are ordered as ``(q_1, ..., q_M, p_1, ...,
p_M)``, so the symplectic form is the block matrix ``[[0, I], [-I, 0]]``.  A
linear optical unitary moves coherent-state mean vectors by a real 2M x 2M
matrix that is simultaneously orthogonal and symplectic; equivalently by an
M x M complex unitary whose real and imaginary parts fill the four blocks.
Energy is counted in photon units: a mean vector ``x`` carries energy
``||x||^2 / 2``.

All operations here are pure; random sampling takes an explicit seed or
``numpy.random.Generator`` so values can be shared freely across threads.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import types
import typing
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    MalformedBlocks,
    ModeIndexOutOfRange,
    NonUnitaryInput,
)

GROUP_TOL = 1e-10
"""Frobenius tolerance on orthogonality and symplecticity of group elements."""

UNITARITY_TOL = 1e-6
"""Gate on the squared Frobenius residual ||G^dag G - I||_F^2 of a transfer."""

BLOCK_TOL = 1e-8
"""Tolerance on the [[A, B], [-B, A]] block structure during extraction."""


def as_rng(seed=None) -> np.random.Generator:
    """Coerce ``seed`` (int, sequence of ints, Generator or None) to a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def substream(seed, *key: int) -> np.random.Generator:
    """Deterministic child generator for ``seed`` extended by an integer key path.

    A ``Generator`` input spawns a child stream; ``None`` gives a fresh
    nondeterministic stream.
    """
    if isinstance(seed, np.random.Generator):
        return seed.spawn(1)[0]
    if seed is None:
        return np.random.default_rng()
    return np.random.default_rng(list(_child_seed(seed, *key)))


def _child_seed(seed, *key: int):
    """``seed`` extended by an integer key path, as a seed rather than a generator.

    For an int or tuple seed ``substream(_child_seed(seed, *a), *b)`` is
    ``substream(seed, *a, *b)``.  A ``Generator`` is first replaced by entropy
    drawn from a ``substream`` child, so the result is a plain tuple that can
    be handed on and replayed.  ``None`` stays ``None``.
    """
    if seed is None:
        return None
    if isinstance(seed, np.random.Generator):
        seed = tuple(substream(seed).integers(2**32, size=4).tolist())
    base = tuple(seed) if isinstance(seed, (tuple, list)) else (int(seed),)
    return (*base, *(int(k) for k in key))


def symplectic_form(mode_count: int) -> np.ndarray:
    """Return the 2M x 2M symplectic form for the (q..., p...) ordering."""
    if mode_count < 1:
        raise InvalidParameter(f"mode_count must be >= 1, got {mode_count}")
    eye = np.eye(mode_count)
    zero = np.zeros((mode_count, mode_count))
    return np.block([[zero, eye], [-eye, zero]])


def _matrix(value) -> np.ndarray:
    """Extract the underlying ndarray from a wrapper or pass an array through."""
    if isinstance(value, (SymplecticOrthogonal, ComplexTransfer)):
        return value.entries
    return np.asarray(value)


@dataclass(frozen=True, eq=False)
class SymplecticOrthogonal:
    """A real 2M x 2M matrix in O(2M) intersected with Sp(2M, R).

    These matrices form the classical action of linear optical unitaries on
    mean vectors.  Construction validates orthogonality, symplecticity and the
    [[A, B], [-B, A]] block structure to ``tol`` in Frobenius norm.  ``tol``
    is kept as a field, so a decoded record validates as its original did.
    """

    entries: np.ndarray
    tol: float = GROUP_TOL

    def __post_init__(self):
        tol = float(self.tol)
        object.__setattr__(self, "tol", tol)
        m = np.array(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise DimensionMismatch(f"expected a 2M x 2M matrix, got shape {m.shape}")
        n = m.shape[0] // 2
        if n == 0:  # the zero-mode identity: embedding target of an empty junta
            m.setflags(write=False)
            object.__setattr__(self, "entries", m)
            return
        eye = np.eye(2 * n)
        if np.linalg.norm(m.T @ m - eye) > tol:
            raise InvalidParameter("matrix is not orthogonal within tolerance")
        omega = symplectic_form(n)
        if np.linalg.norm(m.T @ omega @ m - omega) > tol:
            raise InvalidParameter("matrix is not symplectic within tolerance")
        a, b = m[:n, :n], m[:n, n:]
        if (
            np.linalg.norm(m[n:, :n] + b) > max(tol, BLOCK_TOL)
            or np.linalg.norm(m[n:, n:] - a) > max(tol, BLOCK_TOL)
        ):
            raise MalformedBlocks("blocks do not have the [[A, B], [-B, A]] form")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def mode_count(self) -> int:
        return self.entries.shape[0] // 2

    def __matmul__(self, other: "SymplecticOrthogonal") -> "SymplecticOrthogonal":
        return SymplecticOrthogonal(self.entries @ _matrix(other))

    def inverse(self) -> "SymplecticOrthogonal":
        return SymplecticOrthogonal(self.entries.T)


@dataclass(frozen=True, eq=False)
class ComplexTransfer:
    """An M x M complex matrix; the raw optimization variable.

    Carries no intrinsic invariant.  At solutions it is unitary, which is
    checked against the squared Frobenius residual ``||G^dag G - I||_F^2``.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InvalidParameter("transfer matrix has non-finite entries")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def mode_count(self) -> int:
        return self.entries.shape[0]

    def unitarity_residual(self) -> float:
        return _unitarity_defect(self.entries)[1]

    def is_unitary(self) -> bool:
        return self.unitarity_residual() <= UNITARITY_TOL


@dataclass(frozen=True, eq=False)
class JuntaSpec:
    """A circuit acting nontrivially on a subset of modes only.

    ``junta_modes`` are 1-based labels in 1..M; ``inner`` is the action on the
    selected modes (listed in ascending order).  The embedded matrix is exactly
    the identity on the quadratures of every other mode.
    """

    mode_count: int
    junta_modes: tuple
    inner: SymplecticOrthogonal

    def __post_init__(self):
        modes = tuple(sorted(int(m) for m in self.junta_modes))
        if len(set(modes)) != len(modes):
            raise InvalidParameter("junta modes must be distinct")
        for m in modes:
            if not 1 <= m <= self.mode_count:
                raise ModeIndexOutOfRange(f"mode {m} outside 1..{self.mode_count}")
        if self.inner.mode_count != len(modes):
            raise DimensionMismatch(
                f"inner matrix acts on {self.inner.mode_count} modes, expected {len(modes)}"
            )
        object.__setattr__(self, "junta_modes", modes)


@functools.lru_cache(maxsize=32)
def _identity(size: int) -> np.ndarray:
    """Read-only ``size x size`` identity, built once per size."""
    eye = np.eye(size)
    eye.setflags(write=False)
    return eye


def _unitarity_defect(g: np.ndarray):
    """``(H, ||H||_F^2)`` with ``H = G^dag G - I``: the unitarity residual and its matrix."""
    h = g.conj().T @ g - _identity(g.shape[0])
    return h, float((np.abs(h) ** 2).sum())


def _realify_raw(g: np.ndarray) -> np.ndarray:
    """Block matrix [[Re G, Im G], [-Im G, Re G]] without any unitarity check.

    Fills one preallocated array; ``np.block`` gives the same bits at several
    times the cost, which shows in the optimizer's inner loop.
    """
    rows, cols = g.shape
    out = np.empty((2 * rows, 2 * cols), dtype=g.real.dtype)
    out[:rows, :cols] = out[rows:, cols:] = g.real
    out[:rows, cols:] = g.imag
    np.negative(g.imag, out=out[rows:, :cols])
    return out


def realify(transfer) -> SymplecticOrthogonal:
    """Map an M x M unitary to its real 2M x 2M orthogonal symplectic action.

    Raises:
        NonUnitaryInput: if ``||G^dag G - I||_F^2`` exceeds ``UNITARITY_TOL``.
    """
    g = np.asarray(_matrix(transfer), dtype=complex)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {g.shape}")
    _, residual_sq = _unitarity_defect(g)
    if residual_sq > UNITARITY_TOL:
        raise NonUnitaryInput(
            f"squared unitarity residual {residual_sq:.3e} exceeds {UNITARITY_TOL:.1e}"
        )
    # An input passing the gate but far from exactly unitary still defines a
    # near-orthogonal block matrix; widen the group tolerance to match.
    tol = max(GROUP_TOL, 2.0 * np.sqrt(2.0 * residual_sq))
    return SymplecticOrthogonal(_realify_raw(g), tol=tol)


def complexify(orthogonal) -> ComplexTransfer:
    """Extract the complex M x M matrix from a block matrix [[A, B], [-B, A]].

    The extraction is exact: ``realify(complexify(O))`` reproduces ``O``.

    Raises:
        MalformedBlocks: if the block structure is violated beyond 1e-8.
    """
    m = np.asarray(_matrix(orthogonal), dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise DimensionMismatch(f"expected a 2M x 2M matrix, got shape {m.shape}")
    n = m.shape[0] // 2
    a, b = m[:n, :n], m[:n, n:]
    defect = max(np.abs(m[n:, :n] + b).max(initial=0.0), np.abs(m[n:, n:] - a).max(initial=0.0))
    if defect > BLOCK_TOL:
        raise MalformedBlocks(f"block structure violated by {defect:.3e}")
    return ComplexTransfer(a + 1j * b)


def haar_unitary(mode_count: int, rng=None) -> np.ndarray:
    """Haar-distributed M x M unitary via QR of a complex Gaussian matrix.

    The diagonal phases of R are fixed so the distribution is exactly Haar.
    """
    if mode_count < 1:
        raise InvalidParameter("mode_count must be >= 1")
    rng = as_rng(rng)
    z = rng.standard_normal((mode_count, mode_count)) + 1j * rng.standard_normal(
        (mode_count, mode_count)
    )
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_linear_optical(mode_count: int, seed=None) -> SymplecticOrthogonal:
    """Uniformly random linear optical action on ``mode_count`` modes."""
    return realify(haar_unitary(mode_count, as_rng(seed)))


def random_junta(mode_count: int, size: int, seed=None, junta_modes: Sequence[int] | None = None):
    """Random circuit acting nontrivially on ``size`` of ``mode_count`` modes.

    Returns ``(spec, embedded)`` where ``spec.junta_modes`` is the drawn (or
    given) mode subset and ``embedded`` the full-size matrix.
    """
    if not 1 <= size <= mode_count:
        raise InvalidParameter(f"junta size must be in [1, {mode_count}], got {size}")
    rng = as_rng(seed)
    if junta_modes is None:
        chosen = tuple(sorted(rng.choice(mode_count, size=size, replace=False) + 1))
    else:
        chosen = tuple(sorted(int(m) for m in junta_modes))
        if len(chosen) != size:
            raise InvalidParameter("junta_modes length must equal size")
    inner = random_linear_optical(size, rng)
    spec = JuntaSpec(mode_count, chosen, inner)
    return spec, embed_junta(spec)


def embed_junta(spec: JuntaSpec) -> SymplecticOrthogonal:
    """Embed an action on a mode subset as a full 2M x 2M matrix.

    Rows and columns of modes outside the subset are exactly identity rows and
    columns.
    """
    m = spec.mode_count
    full = np.eye(2 * m)
    if spec.junta_modes:
        idx = [j - 1 for j in spec.junta_modes] + [m + j - 1 for j in spec.junta_modes]
        full[np.ix_(idx, idx)] = spec.inner.entries
    return SymplecticOrthogonal(full)


def _overlap_exponent(x: np.ndarray, delta: np.ndarray):
    """``(y, q)`` with rows ``y = delta x`` and ``q = |y|^2`` over the last axis.

    ``x`` stacks mean vectors along its last axis and ``delta = O_U - O_V``.
    The two output coherent states then overlap as ``exp(-q / 2)``; the
    empirical risk forms it on complex amplitudes (``risk._risk_core``).
    """
    y = x @ delta.T
    return y, np.einsum("...i,...i->...", y, y)


def fidelity(x, target, hypothesis) -> float:
    """Overlap ``|<x| U^dag V |x>|^2`` of the two transformed coherent states.

    Equals ``exp(-x^T L x / 2)`` with ``L = (O_U - O_V)^T (O_U - O_V)``, so it
    is symmetric in the two circuits and invariant under joint left
    multiplication by any orthogonal matrix.
    """
    xv = np.asarray(x, dtype=float)
    o_u = np.asarray(_matrix(target), dtype=float)
    o_v = np.asarray(_matrix(hypothesis), dtype=float)
    if o_u.shape != o_v.shape or o_u.shape[0] != xv.size:
        raise DimensionMismatch(
            f"incompatible shapes: x {xv.shape}, target {o_u.shape}, hypothesis {o_v.shape}"
        )
    _, q = _overlap_exponent(xv, o_u - o_v)
    return float(np.exp(-0.5 * q))


def frobenius_distance_squared(a, b) -> float:
    """||A - B||_F^2; the figure-of-merit used for learned-circuit quality."""
    d = _matrix(a) - _matrix(b)
    return float(np.sum(np.abs(d) ** 2))


def spectral_distance(a, b) -> float:
    """Spectral-norm distance ||A - B||; the norm entering Lipschitz bounds."""
    d = _matrix(a) - _matrix(b)
    return float(np.linalg.norm(d, 2))


def to_json(record):
    """JSON-ready value of a record, walking its dataclass fields.

    Keys are field names.  Real arrays become row-major nested lists, complex
    arrays ``{"re", "im"}`` pairs of them, enums their value and tuples lists;
    nested records recurse.
    """
    if dataclasses.is_dataclass(record):
        return {f.name: to_json(getattr(record, f.name)) for f in dataclasses.fields(record)}
    if isinstance(record, np.ndarray):
        if np.iscomplexobj(record):
            return {"re": record.real.tolist(), "im": record.imag.tolist()}
        return record.tolist()
    if isinstance(record, enum.Enum):
        return record.value
    if isinstance(record, (tuple, list)):
        return [to_json(item) for item in record]
    return record.item() if isinstance(record, np.generic) else record


def from_json(cls, data: dict):
    """The record of type ``cls`` that ``to_json`` encoded as ``data``.

    Each field is decoded by its type hint, as ``cli.config_from_ini`` decodes
    INI text; the record's own validation then runs as on any construction.
    """
    kinds = typing.get_type_hints(cls)
    return cls(**{f.name: _decode(kinds[f.name], data[f.name]) for f in dataclasses.fields(cls)})


def _decode(kind, value):
    """Value of field type ``kind`` from its JSON form; untyped lists become tuples."""
    if value is None:
        return None
    if typing.get_origin(kind) in (typing.Union, types.UnionType):
        kind = next(arg for arg in typing.get_args(kind) if arg is not type(None))
    if kind is np.ndarray:
        if not isinstance(value, dict):
            return np.asarray(value, dtype=float)
        z = np.empty(np.shape(value["re"]), dtype=complex)
        z.real, z.imag = value["re"], value["im"]
        return z
    if dataclasses.is_dataclass(kind):
        return from_json(kind, value)
    if isinstance(value, list):
        args = typing.get_args(kind)
        return tuple(_decode(args[0] if args else None, item) for item in value)
    return value if kind is None else kind(value)
