"""Canonical qubit observable families for the n-setting oblivious game.

Every family consists of n traceless unit-Bloch observables for Alice that
sum to the zero operator, together with Bob's optimal counterparts
``B_y = -A_y^T``.  The transpose matters: for families with a sigma_y
component the plain negation does not reach the optimal correlations on the
maximally entangled state, while the transposed form always does (for real
families the two coincide).

This module is the one place that writes such a configuration down, as an
(n, 3) array of unit Bloch rows (``TRINE``, ``_transverse``, and the
see-saw's start ``spiral_configuration``).  ``_family`` turns rows into
observables by one route, ``qmat.traceless_coordinates`` then
``qmat.from_pauli``; ``qmat.pauli_coordinates(m)[..., 1:]`` reads them back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qmat import EPS, I2, from_pauli, hermitian_norms, pauli_coordinates, traceless_coordinates

#: Bloch rows of the trine: three coplanar directions at 120 degrees in the x-z plane.
TRINE = np.array([[0.0, 0.0, 1.0], [np.sqrt(3) / 2, 0.0, -0.5], [-np.sqrt(3) / 2, 0.0, -0.5]])
TRINE.flags.writeable = False

#: Signs of (nu, beta) in a mirrored pair and in a quartet of transverse rows:
#: the x and y components cancel within each group.
_PAIR = np.array([[1.0, -1.0], [-1.0, 1.0]])
_QUARTET = np.array([[1.0, -1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


def check_n(n: int) -> None:
    """Raise ``ValueError`` unless n is an odd number of settings >= 3."""
    if n % 2 == 0 or n < 3:
        raise ValueError(f"n must be odd and >= 3, got {n}")


def obs_from_bloch(vec) -> np.ndarray:
    """Observable ``n . sigma`` for a unit Bloch vector ``n``."""
    v = np.asarray(vec, dtype=float).reshape(3)
    if abs(np.linalg.norm(v) - 1.0) > EPS:
        raise ValueError(f"Bloch vector is not unit length: {v}")
    return from_pauli(traceless_coordinates(v))


def assert_observable(m) -> None:
    """Check the dichotomic-observable contract, Hermitian and m^2 = I within ``EPS``, in one pass.

    ``m`` is one 2x2 matrix or a stack of them (shape (..., 2, 2), or a
    sequence of 2x2 matrices).
    """
    try:
        arr = np.asarray(m, dtype=complex)
    except ValueError:  # a ragged sequence: name the first odd shape
        arr = next(np.asarray(x) for x in m if np.shape(x) != (2, 2))
    if arr.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 observable, got shape {arr.shape[-2:]}")
    if not np.abs(arr - np.swapaxes(arr.conj(), -1, -2)).max(initial=0.0) <= EPS:
        raise ValueError("observable is not Hermitian")
    if np.abs(arr @ arr - I2).max(initial=0.0) > EPS:
        raise ValueError("observable does not square to the identity")


@dataclass(frozen=True, eq=False)
class ObservableFamily:
    """n dichotomic qubit observables per party with the sum-zero constraint.

    ``alice`` holds the generating observables; ``bob`` is fixed to the
    optimal ``-A^T`` counterparts.  ``params`` records the free parameters
    used by the generator.
    """

    n: int
    alice: tuple[np.ndarray, ...]
    bob: tuple[np.ndarray, ...]
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        check_n(self.n)
        if len(self.alice) != self.n or len(self.bob) != self.n:
            raise ValueError("family must carry exactly n observables per party")
        assert_observable(self.alice)
        assert_observable(self.bob)


def _family(n: int, bloch: np.ndarray, params: dict) -> ObservableFamily:
    """The family whose Alice measures ``v . sigma`` for each of the (n, 3) Bloch rows, Bob ``-A^T``."""
    alice = from_pauli(traceless_coordinates(bloch))
    return ObservableFamily(n=n, alice=tuple(alice), bob=tuple(-alice.mT), params=params)


def trine() -> ObservableFamily:
    """Three coplanar observables at 120 degrees in the x-z Bloch plane (``TRINE``)."""
    return _family(3, TRINE, {})


def _split(n: int, nu: float | None, beta: float | None) -> tuple[float, float]:
    """Transverse weights (nu, beta) of an n-setting family, checked against the normalization.

    With neither given, the weight is split evenly subject to
    nu^2 + beta^2 + 1/(n-1)^2 = 1.
    """
    if nu is None and beta is None:
        nu = beta = np.sqrt((1.0 - 1.0 / (n - 1) ** 2) / 2.0)
    elif nu is None or beta is None:
        raise ValueError("provide both nu and beta, or neither")
    if abs(nu**2 + beta**2 + 1.0 / (n - 1) ** 2 - 1.0) > EPS:
        raise ValueError(
            f"parameters violate nu^2 + beta^2 + 1/(n-1)^2 = 1: nu={nu}, beta={beta}, n={n}"
        )
    return nu, beta


def _transverse(n: int, nu: float | None, beta: float | None, signs: np.ndarray) -> ObservableFamily:
    """The family of Bloch rows (0, 0, 1) and then (s nu, t beta, -1/(n-1)) for each row (s, t) of ``signs``."""
    nu, beta = _split(n, nu, beta)
    bloch = np.zeros((n, 3))
    bloch[0, 2] = 1.0
    bloch[1:, :2] = signs * (nu, beta)
    bloch[1:, 2] = -1.0 / (n - 1)
    return _family(n, bloch, {"nu": float(nu), "beta": float(beta)})


def family_n(n: int, nu: float | None = None, beta: float | None = None) -> ObservableFamily:
    """Mirrored-pair family of n observables for any odd n >= 3.

    The first observable is sigma_z; the remaining n-1 split into two
    mirrored blocks ``+nu sx - beta sy - sz/(n-1)`` and
    ``-nu sx + beta sy - sz/(n-1)``, which cancel pairwise so the family
    sums to zero exactly.
    """
    check_n(n)
    return _transverse(n, nu, beta, np.repeat(_PAIR, (n - 1) // 2, axis=0))


def family_quartets(n: int, nu: float | None = None, beta: float | None = None) -> ObservableFamily:
    """Quartet family for odd n >= 5.

    Settings 2..n are grouped into (+x,-y)/(-x,-y)/(+x,+y)/(-x,+y) quartets;
    when n = 3 (mod 4) one extra mirrored pair (+x,-y)/(-x,+y) completes the
    set.  All x and y components cancel within each group, so the sum-zero
    constraint holds exactly for any parameters satisfying the
    per-observable normalization.  The self-test does not use the grouping:
    it reads its swap frame from the correlations of any family.
    """
    check_n(n)
    if n < 5:
        raise ValueError(f"quartet families need n >= 5, got {n}")
    signs = np.concatenate([np.tile(_QUARTET, ((n - 1) // 4, 1)), _PAIR[: (n - 1) % 4]])
    return _transverse(n, nu, beta, signs)


def spiral_configuration(n: int) -> np.ndarray:
    """n unit Bloch rows that sum to zero exactly: a trine, then (n - 3)/2 antipodal pairs.

    The trine is ``TRINE`` turned into the xy plane; the pairs point along a
    golden-angle spiral over the upper hemisphere, so that no two rows
    coincide.  The see-saw starts Alice from it.
    """
    k = np.arange((n - 3) // 2)
    z = 1.0 - (k + 0.5) / max(len(k), 1)
    phi = k * np.pi * (3.0 - np.sqrt(5.0))
    r = np.sqrt(1.0 - z * z)
    pairs = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)
    return np.concatenate([TRINE[:, [2, 0, 1]], pairs, -pairs])


def canonical_family(n: int) -> ObservableFamily:
    """Family of the ``selftest`` and ``certify`` commands: the trine for n = 3, quartets from n = 5 on."""
    return trine() if n == 3 else family_quartets(n)


def check_parity_condition(fam: ObservableFamily) -> float:
    """Largest violation of the operator constraints behind parity obliviousness.

    Returns ``||sum_x A_x||`` in spectral norm, which vanishes for a valid
    family.  The other constraint, ``(2/n) sum_x P^-_x = I`` with
    ``P^-_x = (I - A_x)/2``, deviates by ``||sum_x A_x|| / n``, never more.
    The sum is Hermitian, so its norm is the closed form ``|m0| + |v|`` of
    its Pauli coordinates.
    """
    return float(hermitian_norms(pauli_coordinates(np.sum(fam.alice, axis=0))))
