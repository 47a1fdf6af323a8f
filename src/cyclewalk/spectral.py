"""Spectra of the pair superoperators: characteristic quartic, eigenvalues
and the persistent-eigenvalue classification.

:func:`char_poly` broadcasts over momentum-index arrays like the pair
constructions of :mod:`cyclewalk.fourier`; :func:`eigenvalues` takes a
whole stack in the :func:`~cyclewalk.fourier.all_pair_matrices` layout
(pair (k, k') at row k*N + k') and diagonalises it in one call.

Every pair matrix is a Frobenius contraction, so all eigenvalues lie in the
closed unit disk.  For 0 < p < 1 the only unit-modulus eigenvalues are +1
(exactly on diagonal pairs k = k') and -1 (exactly on antipodal pairs
|k' - k| = N/2, even N).  All other pairs decay geometrically; the spectral
gap of the walk is taken over those non-persistent pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NumericalCheckError, WalkConfig, _check_momenta
from .fourier import _pair_angles, all_pair_matrices

__all__ = [
    "SpectrumReport",
    "char_poly",
    "eigenvalues",
    "spectral_gap",
    "classify_pair",
]

#: |lambda| within this of 1 counts as unit modulus.
UNIT_MODULUS_TOL = 1e-9

CLASS_DIAGONAL = "diagonal-pair"
CLASS_ANTIPODAL = "antipodal-pair"
CLASS_GENERIC = "generic"


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    eigenvalues: np.ndarray
    spectral_radius: float
    has_unit_eigenvalue: bool
    has_minus_one: bool
    classification: str

    @property
    def placement_ok(self) -> bool:
        """Persistent eigenvalues sit where the pair class puts them: +1
        exactly on diagonal pairs, -1 exactly on antipodal pairs.  At p = 0
        other pairs carry unit-modulus eigenvalues too."""
        return (self.has_unit_eigenvalue == (self.classification == CLASS_DIAGONAL)
                and self.has_minus_one == (self.classification == CLASS_ANTIPODAL))


def classify_pair(k: int, k_prime: int, n_nodes: int) -> str:
    if k == k_prime:
        return CLASS_DIAGONAL
    if n_nodes % 2 == 0 and abs(k_prime - k) == n_nodes // 2:
        return CLASS_ANTIPODAL
    return CLASS_GENERIC


def char_poly(k, k_prime, config: WalkConfig) -> np.ndarray:
    """Coefficients of det(lambda I - L_{k,k'}) in closed form, highest
    degree first, shape broadcast(k, k').shape + (5,).

    With q = 1 - p, c+ = cos 2 pi (k'+k)/N and c- = cos 2 pi (k'-k)/N:

        lambda^4 + (q c+ - c-) lambda^3 - 2 q c+ c- lambda^2
                 + q (c+ - q c-) lambda + q^2

    The constant term q^2 is the product of the eigenvalue moduli; it pins
    how much total contraction one step applies.
    """
    _check_momenta(config.n_nodes, k, k_prime)
    q = 1.0 - config.decoherence_rate
    cp, _, cm, _ = _pair_angles(k, k_prime, config.n_nodes)
    return np.stack(np.broadcast_arrays(
        1.0, q * cp - cm, -2.0 * q * cp * cm, q * (cp - q * cm), q * q), axis=-1)


def eigenvalues(matrices: np.ndarray, n_nodes: int) -> list:
    """SpectrumReport of each pair of an (N^2, 4, 4) stack laid out as
    :func:`~cyclewalk.fourier.all_pair_matrices` lays it out (pair (k, k')
    at row k*N + k'), from one batched eigensolve, in row order.

    Each row is put in canonical order, by real part and then by imaginary
    part, both keys rounded to 9 decimals (the values are not), so equal
    spectra give equal rows whatever order the eigensolver returned.
    """
    if matrices.shape != (n_nodes * n_nodes, 4, 4):
        raise ValueError(f"expected an ({n_nodes * n_nodes}, 4, 4) pair stack, "
                         f"got shape {matrices.shape}")
    try:
        eig = np.linalg.eigvals(matrices)
    except np.linalg.LinAlgError as exc:
        raise NumericalCheckError(
            f"eigensolver failed on the pair stack (N={n_nodes}): {exc}") from exc
    # numpy orders complex numbers by real part, then imaginary part
    order = eig.round(9).argsort(axis=-1, kind="stable")
    eig = eig[np.arange(len(eig))[:, None], order]
    radius = np.abs(eig).max(axis=1)
    unit = np.abs(eig - 1.0).min(axis=1) < UNIT_MODULUS_TOL
    minus_one = np.abs(eig + 1.0).min(axis=1) < UNIT_MODULUS_TOL
    return [
        SpectrumReport(eigenvalues=eig[q], spectral_radius=float(radius[q]),
                       has_unit_eigenvalue=bool(unit[q]), has_minus_one=bool(minus_one[q]),
                       classification=classify_pair(*divmod(q, n_nodes), n_nodes))
        for q in range(len(eig))
    ]


def spectral_gap(config: WalkConfig) -> float:
    """1 minus the largest eigenvalue modulus over non-persistent pairs.

    Diagonal pairs (and antipodal pairs for even N) carry eigenvalues of
    modulus 1 forever and are excluded; the gap over the remaining pairs
    controls the geometric convergence rate of the position distribution.
    Positive for 0 < p <= 1.  At p = 0 unit-modulus eigenvalues persist on
    the other pairs too, so there is no decay: the gap is 0.0, returned
    without an eigensolve.
    """
    if config.decoherence_rate == 0.0:
        return 0.0
    reports = eigenvalues(all_pair_matrices(config)[0], config.n_nodes)
    return 1.0 - max((r.spectral_radius for r in reports
                      if r.classification == CLASS_GENERIC), default=0.0)
