"""Three-outcome POVM certification and local randomness accounting.

The shifted expression subtracts, for each POVM outcome k, the probability
of the joint event (k, flagged Bob outcome at setting y = k).  The flagged
outcome is the one whose projector is ``(I - B_y)/2``: at the optimum Bob's
observable is the negated transpose of Alice's, so this projector is the
positive projector of the shared frame's y-th direction, and the canonical
anti-aligned POVM gives the flagged event probability exactly zero.

Certification of the guessing probability follows the extremality route:
an extremal POVM admits no nontrivial convex decomposition, so every
adversarial branch must reproduce the observed coefficients, pinning the
guessing probability to the largest outcome marginal.  When extremality
fails the report falls back to the trivial bound and is flagged as not
certified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gamecore import QuantumSetup
from .observables import ObservableFamily, check_parity_condition
from .qmat import (
    EPS,
    I2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    born_table,
    eig_hermitian,
    is_hermitian,
    operator_norm,
    outcome_projectors,
)
from .quantum_opt import setup_bell_value


@dataclass(frozen=True, eq=False)
class PovmSet:
    """Positive elements summing to the identity."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        total = np.zeros((2, 2), dtype=complex)
        for el in self.elements:
            if el.shape != (2, 2) or not is_hermitian(el):
                raise ValueError("POVM elements must be 2x2 Hermitian matrices")
            w, _ = eig_hermitian(el)
            if w[0] < -EPS:
                raise ValueError(f"POVM element is not positive semidefinite: min eig {w[0]}")
            total = total + el
        if operator_norm(total - I2) > EPS:
            raise ValueError("POVM elements must sum to the identity")

    def __len__(self) -> int:
        return len(self.elements)


def canonical_povm(fam: ObservableFamily) -> PovmSet:
    """Anti-aligned POVM (I - A_k)/n built from a parity-valid family."""
    violation = check_parity_condition(fam)
    if violation > EPS:
        raise ValueError(f"family violates the parity condition by {violation}")
    return PovmSet(tuple((I2 - a) / fam.n for a in fam.alice))


@dataclass(frozen=True, eq=False)
class PovmStatistics:
    """Joint statistics of the POVM setting against Bob's n settings.

    ``table[k, y, b]`` is P(k, b | extra setting, y); ``marginals[k]`` is
    P(k), which no-signaling makes independent of y.
    """

    n_outcomes: int
    n_settings: int
    table: np.ndarray
    marginals: np.ndarray


def povm_statistics(setup: QuantumSetup, povm: PovmSet) -> PovmStatistics:
    elements = np.array(povm.elements)
    table = born_table(elements, outcome_projectors(setup.bob), setup.state)
    marg = born_table(elements, I2, setup.state)
    return PovmStatistics(n_outcomes=len(povm), n_settings=setup.n, table=table, marginals=marg)


def penalty_probabilities(setup: QuantumSetup, povm: PovmSet) -> np.ndarray:
    """Flagged joint probabilities P(k, flagged | extra setting, y = k)."""
    if len(povm) != setup.n:
        raise ValueError("penalty needs one POVM outcome per Bob setting")
    flagged = outcome_projectors(setup.bob)[:, 1]
    return np.diagonal(born_table(np.array(povm.elements), flagged, setup.state)).copy()


#: Default weight of the flagged probabilities in the shifted Bell value.
ALPHA = 1.0


def _shifted(value: float, penalty_total: float, alpha: float) -> float:
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    return value - alpha * penalty_total


def shifted_bell_value(setup: QuantumSetup, povm: PovmSet, alpha: float) -> float:
    """Bell value minus ``alpha`` times the summed flagged probabilities.

    Equals the plain Bell value exactly when every flagged probability
    vanishes; ``alpha = 0`` reduces to the plain value.
    """
    return _shifted(setup_bell_value(setup), float(penalty_probabilities(setup, povm).sum()), alpha)


def reconstruct_gamma(stats: PovmStatistics) -> np.ndarray:
    """Coefficients (id, z, y, x) of each POVM element from the statistics.

    Works in Bob's frame for the three-setting game: with correlators
    ``E_ky = sum_b (-1)^b table[k, y, b]`` the element k is
    ``g0 I + g1 sz + g2 sy + g3 sx`` where::

        g0 = P(k)
        g1 = -E_k1
        g2 = -(E_k1 + E_k2 + E_k3)   (identically zero for a frame whose
                                      observables sum to zero; a genuine
                                      sigma_y component is invisible and
                                      shows up as a round-trip deviation)
        g3 = (E_k3 - E_k2)/sqrt(3)
    """
    if stats.n_settings != 3:
        raise ValueError("gamma reconstruction is defined for the three-setting game")
    e = stats.table[:, :, 0] - stats.table[:, :, 1]
    gam = np.zeros((stats.n_outcomes, 4))
    gam[:, 0] = stats.marginals
    gam[:, 1] = -e[:, 0]
    gam[:, 2] = -(e[:, 0] + e[:, 1] + e[:, 2])
    gam[:, 3] = (e[:, 2] - e[:, 1]) / np.sqrt(3)
    return gam


def gamma_elements(gam: np.ndarray) -> tuple[np.ndarray, ...]:
    """POVM elements implied by reconstructed coefficients."""
    return tuple(g[0] * I2 + g[1] * SIGMA_Z + g[2] * SIGMA_Y + g[3] * SIGMA_X for g in gam)


def reconstruction_deviation(stats: PovmStatistics, povm: PovmSet) -> float:
    """Largest spectral-norm gap between reconstructed and actual elements."""
    rebuilt = gamma_elements(reconstruct_gamma(stats))
    return max(operator_norm(r - el) for r, el in zip(rebuilt, povm.elements))


def _hermitian_coords(m: np.ndarray) -> np.ndarray:
    return np.array(
        [m[0, 0].real, m[1, 1].real, m[0, 1].real, m[0, 1].imag]
    )


def extremality_check(povm: PovmSet) -> bool:
    """True iff all elements are rank one (within ``EPS``) and linearly independent.

    On qubits at most four Hermitian matrices can be independent, so any
    set with more than four outcomes fails automatically.
    """
    coords = []
    for el in povm.elements:
        w, _ = eig_hermitian(el)
        if w[1] <= EPS:  # zero element: rank 0
            return False
        if w[0] > EPS * w[1]:  # smallest eigenvalue relative to largest
            return False
        coords.append(_hermitian_coords(el))
    rank = np.linalg.matrix_rank(np.array(coords), tol=1e-10)
    return bool(rank == len(povm))


@dataclass(frozen=True)
class RandomnessReport:
    outcome_probabilities: tuple[float, ...]
    guessing_probability: float
    min_entropy_bits: float
    extremal: bool
    certified: bool


def randomness_report(setup: QuantumSetup, povm: PovmSet) -> RandomnessReport:
    """Local randomness of the POVM outcomes on Alice's marginal.

    With an extremal POVM the guessing probability is the largest outcome
    marginal; otherwise the same number is reported only as the trivial
    bound and the result is flagged as not certified.
    """
    probs = tuple(born_table(np.array(povm.elements), I2, setup.state).tolist())
    extremal = extremality_check(povm)
    guess = max(probs)
    return RandomnessReport(
        outcome_probabilities=probs,
        guessing_probability=guess,
        min_entropy_bits=float(-np.log2(guess)),
        extremal=extremal,
        certified=extremal,
    )
