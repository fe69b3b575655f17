"""Canonical qubit observable families for the n-setting oblivious game.

Every family consists of n traceless unit-Bloch observables for Alice that
sum to the zero operator, together with Bob's optimal counterparts
``B_y = -A_y^T``.  The transpose matters: for families with a sigma_y
component the plain negation does not reach the optimal correlations on the
maximally entangled state, while the transposed form always does (for real
families the two coincide).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qmat import EPS, I2, PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z, hermitian_norms, pauli_coordinates


def check_n(n: int) -> None:
    """Raise ``ValueError`` unless n is an odd number of settings >= 3."""
    if n % 2 == 0 or n < 3:
        raise ValueError(f"n must be odd and >= 3, got {n}")


def obs_from_bloch(vec) -> np.ndarray:
    """Observable ``n . sigma`` for a unit Bloch vector ``n``."""
    v = np.asarray(vec, dtype=float).reshape(3)
    if abs(np.linalg.norm(v) - 1.0) > EPS:
        raise ValueError(f"Bloch vector is not unit length: {v}")
    return v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z


def bloch_of(m) -> np.ndarray:
    """Bloch components (x, y, z) of a 2x2 Hermitian matrix."""
    arr = np.asarray(m, dtype=complex)
    return np.array([np.trace(arr @ p).real / 2.0 for p in PAULIS])


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


def _family(n: int, alice: list[np.ndarray], params: dict) -> ObservableFamily:
    bob = tuple(-a.T for a in alice)
    return ObservableFamily(n=n, alice=tuple(alice), bob=bob, params=params)


def trine() -> ObservableFamily:
    """Three coplanar observables at 120 degrees in the x-z Bloch plane."""
    a1 = SIGMA_Z.copy()
    a2 = (np.sqrt(3) / 2) * SIGMA_X - 0.5 * SIGMA_Z
    a3 = -(np.sqrt(3) / 2) * SIGMA_X - 0.5 * SIGMA_Z
    return _family(3, [a1, a2, a3], {})


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


def family_n(n: int, nu: float | None = None, beta: float | None = None) -> ObservableFamily:
    """Mirrored-pair family of n observables for any odd n >= 3.

    The first observable is sigma_z; the remaining n-1 split into two
    mirrored blocks ``+nu sx - beta sy - sz/(n-1)`` and
    ``-nu sx + beta sy - sz/(n-1)``, which cancel pairwise so the family
    sums to zero exactly.
    """
    check_n(n)
    nu, beta = _split(n, nu, beta)
    z = -1.0 / (n - 1)
    alice = [SIGMA_Z.copy()]
    half = (n - 1) // 2
    for _ in range(half):
        alice.append(nu * SIGMA_X - beta * SIGMA_Y + z * SIGMA_Z)
    for _ in range(half):
        alice.append(-nu * SIGMA_X + beta * SIGMA_Y + z * SIGMA_Z)
    return _family(n, alice, {"nu": float(nu), "beta": float(beta)})


def _quartet(nu: float, beta: float, z: float) -> list[np.ndarray]:
    # Four observables whose x and y components cancel within the quartet.
    return [
        nu * SIGMA_X - beta * SIGMA_Y + z * SIGMA_Z,
        -nu * SIGMA_X - beta * SIGMA_Y + z * SIGMA_Z,
        nu * SIGMA_X + beta * SIGMA_Y + z * SIGMA_Z,
        -nu * SIGMA_X + beta * SIGMA_Y + z * SIGMA_Z,
    ]


def family_quartets(n: int, nu: float | None = None, beta: float | None = None) -> ObservableFamily:
    """Quartet family for odd n >= 5.

    Settings 2..n are grouped into (+x,-y)/(-x,-y)/(+x,+y)/(-x,+y) quartets;
    when n = 3 (mod 4) one extra mirrored pair completes the set.  All x and
    y components cancel within each group, so the sum-zero constraint holds
    exactly for any parameters satisfying the per-observable normalization.
    The self-test does not use the grouping: it reads its swap frame from
    the correlations of any family.
    """
    check_n(n)
    if n < 5:
        raise ValueError(f"quartet families need n >= 5, got {n}")
    nu, beta = _split(n, nu, beta)
    z = -1.0 / (n - 1)
    alice = [SIGMA_Z.copy()]
    for _ in range((n - 1) // 4):
        alice.extend(_quartet(nu, beta, z))
    if (n - 1) % 4:
        # n = 3 (mod 4): one extra pair with cancelling x and y components.
        alice.append(nu * SIGMA_X - beta * SIGMA_Y + z * SIGMA_Z)
        alice.append(-nu * SIGMA_X + beta * SIGMA_Y + z * SIGMA_Z)
    return _family(n, alice, {"nu": float(nu), "beta": float(beta)})


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
