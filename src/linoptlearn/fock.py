"""Truncated Fock-space brute force for one- and two-mode circuits.

Everything here is built from ladder matrices on a per-mode photon cutoff:
coherent states by exponentiating the displacement generator onto the vacuum,
circuit unitaries by exponentiating the number-conserving quadratic
Hamiltonian obtained from the principal logarithm of the transfer matrix.
The overlap it produces validates the closed-form Gaussian fidelity through a
completely independent route.

With quadratures ``q = (a + a^dag)/sqrt(2)``, ``p = -i (a - a^dag)/sqrt(2)``,
a mean vector ``x`` corresponds to per-mode amplitudes
``alpha_j = (x_j + i x_{M+j}) / sqrt(2)``, and a transfer matrix
``G = exp(iK)`` acts through ``U = exp(-i sum_jk conj(K)_jk a_j^dag a_k)``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg import expm_multiply

from .core import _matrix, complexify
from .errors import DimensionMismatch, InvalidParameter, LogarithmBranchFailure, TruncationRisk

DEFAULT_CUTOFFS = {1: 40, 2: 25}


@dataclass(frozen=True)
class FockSpace:
    """Truncated Fock space of one or two modes with a per-mode photon cutoff."""

    modes: int
    cutoff: int

    def __post_init__(self):
        if self.modes not in (1, 2):
            raise InvalidParameter("Fock-space brute force supports 1 or 2 modes only")
        if self.cutoff < 2:
            raise InvalidParameter("cutoff must be >= 2")

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** self.modes

    @cached_property
    def destroy(self) -> tuple:
        """Sparse annihilation matrix per mode; the adjoint is its conjugate transpose."""
        n = self.cutoff + 1
        single = scipy.sparse.diags(np.sqrt(np.arange(1, n)), offsets=1, format="csr")
        eye = scipy.sparse.identity(n, format="csr")
        if self.modes == 1:
            return (single,)
        return (
            scipy.sparse.kron(single, eye, format="csr"),
            scipy.sparse.kron(eye, single, format="csr"),
        )

    @cached_property
    def number_total(self) -> scipy.sparse.csr_matrix:
        total = None
        for a in self.destroy:
            term = (a.conj().T @ a).tocsr()
            total = term if total is None else total + term
        return total

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def amplitudes(self, x) -> np.ndarray:
        """Per-mode complex amplitudes of a mean vector."""
        xv = np.asarray(x, dtype=float)
        if xv.size != 2 * self.modes:
            raise DimensionMismatch(f"mean vector must have length {2 * self.modes}")
        return (xv[: self.modes] + 1j * xv[self.modes :]) / np.sqrt(2.0)


def fock_space(modes: int, cutoff: int | None = None) -> FockSpace:
    """A FockSpace with the default per-mode cutoff (40 one-mode, 25 two-mode)."""
    return FockSpace(modes, cutoff if cutoff is not None else DEFAULT_CUTOFFS[modes])


def _displacement_generator(x, space: FockSpace) -> scipy.sparse.csr_matrix:
    alpha = space.amplitudes(x)
    gen = None
    for amp, a in zip(alpha, space.destroy):
        term = (amp * a.conj().T - np.conj(amp) * a).tocsr()
        gen = term if gen is None else gen + term
    return gen


def _check_truncation(x, space: FockSpace):
    xv = np.asarray(x, dtype=float)
    energy = float(xv @ xv) / 2.0
    if energy > space.cutoff / 4.0:
        raise TruncationRisk(
            f"state energy {energy:g} too large for per-mode cutoff {space.cutoff}"
        )


def coherent_vector(x, space: FockSpace) -> np.ndarray:
    """Coherent state with mean vector ``x``: displacement exponential on vacuum.

    Raises:
        TruncationRisk: when ``||x||^2 / 2 > cutoff / 4``.
    """
    _check_truncation(x, space)
    return expm_multiply(_displacement_generator(x, space), space.vacuum())


def _circuit_generator(orthogonal, space: FockSpace) -> scipy.sparse.csr_matrix:
    """Number-conserving quadratic generator Theta with U = expm(-i Theta)."""
    g = complexify(np.asarray(_matrix(orthogonal), dtype=float)).entries
    if g.shape[0] != space.modes:
        raise DimensionMismatch(f"matrix acts on {g.shape[0]} modes, space has {space.modes}")
    # Principal logarithm via a Schur form (orthonormal even with degenerate
    # eigenvalues); eigenvalues at -1 sit on the branch cut and are nudged.
    t, q = scipy.linalg.schur(g, output="complex")
    eigs = np.diagonal(t).copy()
    if np.abs(t - np.diag(eigs)).max() > 1e-8:
        raise InvalidParameter("transfer matrix is not normal; is the input unitary?")
    phases = np.angle(eigs)
    on_cut = np.abs(eigs + 1.0) < 1e-9
    if np.any(on_cut):
        warnings.warn(
            "eigenvalue at -1 lies on the logarithm branch cut; phase perturbed by 1e-9",
            LogarithmBranchFailure,
        )
        phases = np.where(on_cut, np.pi - 1e-9, phases)
    k = (q * phases) @ q.conj().T
    h = k.conj()  # U^dag a U = conj(G) a  requires  H = conj(K)
    gen = scipy.sparse.csr_matrix((space.dim, space.dim), dtype=complex)
    for j, aj in enumerate(space.destroy):
        for l, al in enumerate(space.destroy):
            if h[j, l] == 0:
                continue
            gen = gen + (h[j, l] * (aj.conj().T @ al)).tocsr()
    return gen


def gaussian_unitary(orthogonal, space: FockSpace) -> np.ndarray:
    """Dense Fock-space unitary realizing the given transfer matrix.

    The generator is number conserving, so the result commutes with the total
    photon number and is exactly unitary on every complete photon-number
    sector of the truncated space.
    """
    gen = _circuit_generator(orthogonal, space)
    return scipy.linalg.expm(-1j * gen.toarray())


def apply_circuit(orthogonal, state: np.ndarray, space: FockSpace) -> np.ndarray:
    """Action of the circuit unitary on a state vector, without densifying."""
    return expm_multiply(-1j * _circuit_generator(orthogonal, space).tocsc(), state)


def oracle_fidelity(x, target, hypothesis, space: FockSpace | None = None) -> float:
    """``|<x| U^dag V |x>|^2`` computed entirely in the truncated Fock space."""
    o_u = np.asarray(_matrix(target), dtype=float)
    if space is None:
        space = fock_space(o_u.shape[0] // 2)
    psi = coherent_vector(x, space)
    out_u = apply_circuit(target, psi, space)
    out_v = apply_circuit(hypothesis, psi, space)
    return float(np.abs(np.vdot(out_u, out_v)) ** 2)


def photon_number_distribution(state: np.ndarray, space: FockSpace) -> np.ndarray:
    """Probability of each total photon number 0 .. modes * cutoff."""
    probs = np.abs(state) ** 2
    if space.modes == 1:
        return probs
    n = space.cutoff + 1
    grid = np.add.outer(np.arange(n), np.arange(n)).ravel()
    out = np.zeros(2 * space.cutoff + 1)
    np.add.at(out, grid, probs)
    return out
