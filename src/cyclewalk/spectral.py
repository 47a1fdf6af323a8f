"""Spectra of the pair superoperators: characteristic quartic, eigenvalues
and the persistent-eigenvalue classification.

Every pair matrix is a Frobenius contraction, so all eigenvalues lie in the
closed unit disk.  For 0 < p < 1 the only unit-modulus eigenvalues are +1
(exactly on diagonal pairs k = k') and -1 (exactly on antipodal pairs
|k' - k| = N/2, even N).  All other pairs decay geometrically; the spectral
gap of the walk is taken over those non-persistent pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NumericalCheckError, WalkConfig
from .fourier import SuperOp, all_pair_matrices

__all__ = [
    "Quartic",
    "SpectrumReport",
    "char_poly",
    "eigenvalues",
    "pair_spectra",
    "spectral_gap",
    "classify_pair",
]

#: |lambda| within this of 1 counts as unit modulus.
UNIT_MODULUS_TOL = 1e-9

CLASS_DIAGONAL = "diagonal-pair"
CLASS_ANTIPODAL = "antipodal-pair"
CLASS_GENERIC = "generic"


@dataclass(frozen=True, eq=False)
class Quartic:
    """Monic quartic a4 l^4 + a3 l^3 + a2 l^2 + a1 l + a0, coefficients
    stored highest degree first (a4 = 1)."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=np.float64)
        if c.shape != (5,) or c[0] != 1.0:
            raise ValueError("need 5 real coefficients with leading coefficient 1")
        object.__setattr__(self, "coefficients", c)
        self.coefficients.setflags(write=False)

    def __call__(self, lam):
        return np.polyval(self.coefficients, lam)

    def derivative(self, lam):
        return np.polyval(np.polyder(self.coefficients), lam)


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


def char_poly(superop: SuperOp) -> Quartic:
    """Characteristic polynomial det(lambda I - L) in closed form.

    With q = 1 - p, c+ = cos 2 pi (k'+k)/N and c- = cos 2 pi (k'-k)/N:

        lambda^4 + (q c+ - c-) lambda^3 - 2 q c+ c- lambda^2
                 + q (c+ - q c-) lambda + q^2

    The constant term q^2 is the product of the eigenvalue moduli; it pins
    how much total contraction one step applies.
    """
    q = 1.0 - superop.rate
    cp, cm = superop.c_plus, superop.c_minus
    return Quartic(coefficients=np.array([
        1.0,
        q * cp - cm,
        -2.0 * q * cp * cm,
        q * (cp - q * cm),
        q * q,
    ]))


def _eigvals(matrices: np.ndarray, where) -> np.ndarray:
    """Eigenvalues of a (pairs, 4, 4) stack; where() names the stack in the
    error raised if the solver fails."""
    try:
        return np.linalg.eigvals(matrices)
    except np.linalg.LinAlgError as exc:
        raise NumericalCheckError(f"eigensolver failed on {where()}: {exc}") from exc


def _reports(eig: np.ndarray, pairs, n_nodes: int) -> list:
    """SpectrumReports for a (pairs, 4) eigenvalue stack, flags taken in one
    vectorised pass; pairs lists the (k, k') of each row.

    Each row is put in canonical order, by real part and then by imaginary
    part, both keys rounded to 9 decimals (the values are not), so equal
    spectra give equal rows whatever order the eigensolver returned.
    """
    # numpy orders complex numbers by real part, then imaginary part
    order = eig.round(9).argsort(axis=-1, kind="stable")
    eig = eig[np.arange(len(eig))[:, None], order]
    radius = np.abs(eig).max(axis=1)
    unit = np.abs(eig - 1.0).min(axis=1) < UNIT_MODULUS_TOL
    minus_one = np.abs(eig + 1.0).min(axis=1) < UNIT_MODULUS_TOL
    return [
        SpectrumReport(eigenvalues=eig[q], spectral_radius=float(radius[q]),
                       has_unit_eigenvalue=bool(unit[q]), has_minus_one=bool(minus_one[q]),
                       classification=classify_pair(k, k_prime, n_nodes))
        for q, (k, k_prime) in enumerate(pairs)
    ]


def eigenvalues(superop: SuperOp) -> SpectrumReport:
    """Eigenvalues of the 4x4 pair matrix with the persistent-eigenvalue
    flags and the structural pair classification."""
    eig = _eigvals(superop.matrix[None], lambda: (
        f"pair (k={superop.k}, k'={superop.k_prime}); matrix={superop.matrix!r}"))
    return _reports(eig, [(superop.k, superop.k_prime)], superop.n_nodes)[0]


def pair_spectra(config: WalkConfig) -> list:
    """SpectrumReport of every pair matrix of :func:`all_pair_matrices`, in
    its row order (pair (k, k') at k*N + k'), from one batched eigensolve."""
    n = config.n_nodes
    matrices, _ = all_pair_matrices(config)
    eig = _eigvals(matrices, lambda: f"the pair stack (N={n}, p={config.decoherence_rate})")
    return _reports(eig, [divmod(q, n) for q in range(n * n)], n)


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
    return 1.0 - max((r.spectral_radius for r in pair_spectra(config)
                      if r.classification == CLASS_GENERIC), default=0.0)
