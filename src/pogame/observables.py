"""Canonical qubit strategies for the n-setting oblivious game, as ``QuantumSetup``s on phi+.

Every family consists of n traceless unit-Bloch observables for Alice that
sum to the zero operator, together with Bob's optimal counterparts
``B_y = -A_y^T``, on the maximally entangled state.  The transpose matters:
for families with a sigma_y component the plain negation does not reach the
optimal correlations on that state, while the transposed form always does
(for real families the two coincide).  A family is a
``gamecore.QuantumSetup``, the one type of a strategy, which checks the
odd-n rule and the observables where it is built.

This module is the one place that writes such a configuration down, as an
(n, 3) array of unit Bloch rows (``TRINE``, ``_transverse``, and the
see-saw's start ``spiral_configuration``).  ``_family`` turns rows into
observables by one route, ``qmat.traceless_coordinates`` then
``qmat.from_pauli``; ``qmat.pauli_coordinates(m)[..., 1:]`` reads them back.
"""

from __future__ import annotations

import numpy as np

from .gamecore import QuantumSetup, check_n
from .qmat import EPS, from_pauli, hermitian_norms, pauli_coordinates, phi_plus, traceless_coordinates

#: Bloch rows of the trine: three coplanar directions at 120 degrees in the x-z plane.
TRINE = np.array([[0.0, 0.0, 1.0], [np.sqrt(3) / 2, 0.0, -0.5], [-np.sqrt(3) / 2, 0.0, -0.5]])
TRINE.flags.writeable = False

#: Signs of (nu, beta) in a mirrored pair and in a quartet of transverse rows:
#: the x and y components cancel within each group.
_PAIR = np.array([[1.0, -1.0], [-1.0, 1.0]])
_QUARTET = np.array([[1.0, -1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


def obs_from_bloch(vec) -> np.ndarray:
    """Observable ``n . sigma`` for a unit Bloch vector ``n``."""
    v = np.asarray(vec, dtype=float).reshape(3)
    if abs(np.linalg.norm(v) - 1.0) > EPS:
        raise ValueError(f"Bloch vector is not unit length: {v}")
    return from_pauli(traceless_coordinates(v))


def _family(bloch: np.ndarray) -> QuantumSetup:
    """The setup on phi+ whose Alice measures ``v . sigma`` for each of the (n, 3) Bloch rows, Bob ``-A^T``."""
    alice = from_pauli(traceless_coordinates(bloch))
    return QuantumSetup(state=phi_plus(), alice=tuple(alice), bob=tuple(-alice.mT))


def trine() -> QuantumSetup:
    """Three coplanar observables at 120 degrees in the x-z Bloch plane (``TRINE``)."""
    return _family(TRINE)


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


def _transverse(n: int, nu: float | None, beta: float | None, signs: np.ndarray) -> QuantumSetup:
    """The family of Bloch rows (0, 0, 1) and then (s nu, t beta, -1/(n-1)) for each row (s, t) of ``signs``."""
    nu, beta = _split(n, nu, beta)
    bloch = np.zeros((n, 3))
    bloch[0, 2] = 1.0
    bloch[1:, :2] = signs * (nu, beta)
    bloch[1:, 2] = -1.0 / (n - 1)
    return _family(bloch)


def family_n(n: int, nu: float | None = None, beta: float | None = None) -> QuantumSetup:
    """Mirrored-pair family of n observables for any odd n >= 3.

    The first observable is sigma_z; the remaining n-1 split into two
    mirrored blocks ``+nu sx - beta sy - sz/(n-1)`` and
    ``-nu sx + beta sy - sz/(n-1)``, which cancel pairwise so the family
    sums to zero exactly.
    """
    check_n(n)
    return _transverse(n, nu, beta, np.repeat(_PAIR, (n - 1) // 2, axis=0))


def family_quartets(n: int, nu: float | None = None, beta: float | None = None) -> QuantumSetup:
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


def canonical_family(n: int) -> QuantumSetup:
    """Family of the ``selftest`` and ``certify`` commands: the trine for n = 3, quartets from n = 5 on."""
    return trine() if n == 3 else family_quartets(n)


def check_parity_condition(setup: QuantumSetup) -> float:
    """Largest violation of the operator constraints behind parity obliviousness.

    Returns ``||sum_x A_x||`` in spectral norm, which vanishes for a valid
    family.  The other constraint, ``(2/n) sum_x P^-_x = I`` with
    ``P^-_x = (I - A_x)/2``, deviates by ``||sum_x A_x|| / n``, never more.
    The sum is Hermitian, so its norm is the closed form ``|m0| + |v|`` of
    its Pauli coordinates.
    """
    return float(hermitian_norms(pauli_coordinates(np.sum(setup.alice, axis=0))))
