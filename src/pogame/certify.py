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

from dataclasses import dataclass, field

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
    operator_norm,
    outcome_projectors,
)
from .quantum_opt import setup_bell_value


@dataclass(frozen=True, eq=False)
class PovmSet:
    """Positive elements summing to the identity.

    ``spectra[k]`` holds the ascending eigenvalues of element k, from one
    ``eigvalsh`` of the (n, 2, 2) stack that the validation, the
    extremality test and the report all read.
    """

    elements: tuple[np.ndarray, ...]
    spectra: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        try:
            stack = np.array(self.elements, dtype=complex) if self.elements else np.zeros((0, 2, 2), complex)
        except ValueError:  # elements of different shapes
            stack = None
        hermitian = stack is not None and stack.shape[1:] == (2, 2)
        if not (hermitian and np.all(np.abs(stack - stack.conj().swapaxes(1, 2)) <= EPS)):
            raise ValueError("POVM elements must be 2x2 Hermitian matrices")
        spectra = np.linalg.eigvalsh(stack)
        negative = np.flatnonzero(spectra[:, 0] < -EPS)
        if len(negative):
            raise ValueError(f"POVM element is not positive semidefinite: min eig {spectra[negative[0], 0]}")
        if operator_norm(stack.sum(axis=0) - I2) > EPS:
            raise ValueError("POVM elements must sum to the identity")
        object.__setattr__(self, "spectra", spectra)

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


def extremality_check(povm: PovmSet) -> bool:
    """True iff all elements are rank one (within ``EPS``) and linearly independent.

    On qubits at most four Hermitian matrices can be independent, so any
    set with more than four outcomes fails automatically.
    """
    smallest, largest = povm.spectra[:, 0], povm.spectra[:, 1]
    # A zero element has rank 0; otherwise the smallest eigenvalue is read relative to the largest.
    if np.any(largest <= EPS) or np.any(smallest > EPS * largest):
        return False
    stack = np.array(povm.elements)
    coords = np.stack([stack[:, 0, 0].real, stack[:, 1, 1].real, stack[:, 0, 1].real, stack[:, 0, 1].imag], axis=1)
    return bool(np.linalg.matrix_rank(coords, tol=1e-10) == len(povm))


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
