"""Spectra of the pair superoperators: characteristic quartic, eigenvalues
and the persistent-eigenvalue classification.

:func:`char_poly` broadcasts over arrays of (k, k', N, p) and
:func:`classify_pair` over momentum-index arrays, like the pair
constructions of :mod:`cyclewalk.fourier`;
:func:`eigenvalues` takes a whole stack in the
:func:`~cyclewalk.fourier.all_pair_matrices` layout (pair (k, k') at row
k*N + k'), diagonalises it in one call and returns one
:class:`SpectrumReport` whose fields are arrays over the pairs.

Every pair matrix is a Frobenius contraction, so all eigenvalues lie in the
closed unit disk.  For 0 < p < 1 the only unit-modulus eigenvalues are +1
(exactly on diagonal pairs k = k') and -1 (exactly on antipodal pairs
|k' - k| = N/2, even N); all other pairs decay, and the spectral gap is taken
over them.  Only :func:`spectral_structure` rules on this structure, for the
``spectrum`` summary and check and :func:`spectral_gap`, by one rule: within
UNIT_MODULUS_TOL of +1, of -1 or of |z| = 1 is +1, -1 or unit modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NumericalCheckError, WalkConfig, _check_momenta
from .fourier import _pair_angles, _pair_momenta, all_pair_matrices

__all__ = [
    "SpectrumReport",
    "char_poly",
    "eigenvalues",
    "spectral_gap",
    "spectral_structure",
    "classify_pair",
]

#: |lambda| within this of 1 counts as unit modulus.
UNIT_MODULUS_TOL = 1e-9
#: A spectral radius up to this above 1 still counts as inside the unit disk.
UNIT_DISK_TOL = 1e-10

CLASS_DIAGONAL = "diagonal-pair"
CLASS_ANTIPODAL = "antipodal-pair"
CLASS_GENERIC = "generic"

#: The verdicts of :func:`spectral_structure`; a stack passes when all hold.
VERDICTS = ("radius_within_unit_disk", "generic_radius_below_one",
            "persistent_eigenvalue_placement_ok")


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Spectra of a stack of M pairs, entry q of each field for pair q:
    ``eigenvalues`` has shape (M, 4), every other field shape (M,)."""

    eigenvalues: np.ndarray
    spectral_radius: np.ndarray
    classification: np.ndarray


def _unit_flags(eig: np.ndarray):
    """The one +-1 rule: masks of eig within UNIT_MODULUS_TOL of +1, -1 and |z| = 1."""
    return tuple(np.abs(gap) < UNIT_MODULUS_TOL
                 for gap in (eig - 1.0, eig + 1.0, np.abs(eig) - 1.0))


def classify_pair(k, k_prime, n_nodes: int):
    """Class of pair (k, k'), broadcast over index arrays (a str for scalars).

    Raises ValueError unless N is an integer >= 2 and k, k' integers in 0..N-1.
    """
    _check_momenta(n_nodes, k, k_prime)
    k, k_prime = np.asarray(k), np.asarray(k_prime)
    antipodal = (n_nodes % 2 == 0) & (np.abs(k_prime - k) == n_nodes // 2)
    return np.where(k == k_prime, CLASS_DIAGONAL,
                    np.where(antipodal, CLASS_ANTIPODAL, CLASS_GENERIC))[()]


def char_poly(k, k_prime, n_nodes, rate) -> np.ndarray:
    """Coefficients of det(lambda I - L_{k,k'}) at cycle length N and rate p
    in closed form, highest degree first, shape
    broadcast(k, k', N, p).shape + (5,).

    With q = 1 - p, c+ = cos 2 pi (k'+k)/N and c- = cos 2 pi (k'-k)/N:

        lambda^4 + (q c+ - c-) lambda^3 - 2 q c+ c- lambda^2
                 + q (c+ - q c-) lambda + q^2

    The constant term q^2 is the product of the eigenvalue moduli; it pins
    how much total contraction one step applies.

    Raises ValueError as :func:`~cyclewalk.fourier.superop_closed_form` does.
    """
    _check_momenta(n_nodes, k, k_prime, rate=rate)
    q = 1.0 - np.asarray(rate)
    cp, _, cm, _ = _pair_angles(k, k_prime, n_nodes)
    return np.stack(np.broadcast_arrays(
        1.0, q * cp - cm, -2.0 * q * cp * cm, q * (cp - q * cm), q * q), axis=-1)


def eigenvalues(matrices: np.ndarray) -> SpectrumReport:
    """Spectra of an (N^2, 4, 4) stack laid out as
    :func:`~cyclewalk.fourier.all_pair_matrices` lays it out (pair (k, k')
    at row k*N + k', N read from the stack; any other shape raises
    ValueError), from one batched eigensolve, as one :class:`SpectrumReport`.

    Each row of eigenvalues is put in canonical order, by real part and then
    by imaginary part, both keys rounded to 9 decimals (the values are not),
    so equal spectra give equal rows whatever order the eigensolver returned.
    """
    n_nodes = math.isqrt(len(matrices))
    if matrices.shape != (n_nodes * n_nodes, 4, 4):
        raise ValueError(f"expected an (N^2, 4, 4) pair stack, got shape {matrices.shape}")
    try:
        eig = np.linalg.eigvals(matrices)
    except np.linalg.LinAlgError as exc:
        raise NumericalCheckError(
            f"eigensolver failed on the pair stack (N={n_nodes}): {exc}") from exc
    # numpy orders complex numbers by real part, then imaginary part
    order = eig.round(9).argsort(axis=-1, kind="stable")
    eig = eig[np.arange(len(eig))[:, None], order]
    return SpectrumReport(
        eigenvalues=eig,
        spectral_radius=np.abs(eig).max(axis=1),
        classification=classify_pair(*_pair_momenta(n_nodes), n_nodes))


def spectral_structure(spectra: SpectrumReport, rate: float) -> dict:
    """The ``spectrum`` summary record of one walk's pair stack at rate p:
    class counts, largest radii and the VERDICTS.  All radii lie in the unit
    disk, generic ones below 1 (p > 0); for 0 < p < 1, +1 and -1 sit by class,
    -1 never double, and no other eigenvalue has unit modulus."""
    classes, radius, eig = spectra.classification, spectra.spectral_radius, spectra.eigenvalues
    n = math.isqrt(len(eig))
    # f'(-1) = -4 + 3 a3 - 2 a2 + a1 for f = x^4 + a3 x^3 + a2 x^2 + a1 x + a0
    slope = char_poly(*_pair_momenta(n), n, rate)[:, :4] @ np.array([-4.0, 3.0, -2.0, 1.0])
    plus, minus, unit = _unit_flags(eig)
    has_minus = minus.any(axis=1)
    # +1 off the diagonal pairs, -1 off the antipodal ones, stray unit moduli, double -1s
    misplaced = ((plus.any(axis=1) != (classes == CLASS_DIAGONAL))
                 | (has_minus != (classes == CLASS_ANTIPODAL))
                 | (unit & ~plus & ~minus).any(axis=1) | (has_minus & (np.abs(slope) <= 1e-10)))
    checked = bool(0.0 < rate < 1.0)
    max_radius = float(radius.max())
    max_radius_generic = float(radius.max(where=classes == CLASS_GENERIC, initial=0.0))
    return {
        "count_diagonal": int((classes == CLASS_DIAGONAL).sum()),
        "count_antipodal": int((classes == CLASS_ANTIPODAL).sum()),
        "count_generic": int((classes == CLASS_GENERIC).sum()),
        "max_radius": max_radius,
        "max_radius_generic": max_radius_generic,
        "radius_within_unit_disk": max_radius <= 1.0 + UNIT_DISK_TOL,
        "generic_radius_below_one": rate == 0.0 or max_radius_generic < 1.0,
        "persistent_eigenvalue_placement_checked": checked,
        "persistent_eigenvalue_placement_ok": not checked or not misplaced.any(),
    }


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
    spectra = eigenvalues(all_pair_matrices(config)[0])
    return 1.0 - spectral_structure(spectra, config.decoherence_rate)["max_radius_generic"]
