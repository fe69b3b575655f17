"""Three-outcome POVM certification and local randomness accounting.

The shifted expression subtracts, for each POVM outcome k, the probability
of the joint event (k, flagged Bob outcome at setting y = k).  The flagged
outcome is the one whose projector is ``(I - B_y)/2``: at the optimum Bob's
observable is the negated transpose of Alice's, so this projector is the
positive projector of the shared frame's y-th direction, and the canonical
anti-aligned POVM gives the flagged event probability exactly zero.

The POVM is built from the observables of the setup being certified, the
see-saw's optimum in a report, and is checked against the correlators alone:
``reconstruction_deviation`` rebuilds every element from its correlations
with Bob's settings, for any odd n and any local frame.

Every statistic is computed on Pauli coordinates: the elements' (k, 4)
coordinates ``g`` (``PovmSet.coordinates``), Bob's and Alice's (n, 4) ones
and the state's correlation tensor T (``QuantumSetup.pauli_form``).  A
Born table is then ``g T q^T``, and spectra and spectral norms are closed
forms (``qmat.hermitian_spectra``, ``qmat.hermitian_norms``).

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

from .gamecore import CertificationError, QuantumSetup
from .observables import check_parity_condition
from .qmat import EPS, I2, I_PAULI, hermitian_norms, hermitian_spectra, outcome_coordinates, pauli_coordinates
from .quantum_opt import setup_bell_value


@dataclass(frozen=True, eq=False)
class PovmSet:
    """Positive elements summing to the identity.

    Once the stack of elements is Hermitian within ``EPS``,
    ``coordinates[k]`` holds the Pauli coordinates (m0, v) of element k,
    and ``spectra[k]`` its ascending eigenvalues m0 -+ |v|, which the
    validation, the extremality test and the report all read.
    ``completeness_deviation`` is the spectral norm of the elements' sum
    minus the identity, from the summed coordinates, which the validation
    and the report both read.
    """

    elements: tuple[np.ndarray, ...]
    coordinates: np.ndarray = field(init=False, repr=False)
    spectra: np.ndarray = field(init=False, repr=False)
    completeness_deviation: float = field(init=False, repr=False)

    def __post_init__(self):
        try:
            stack = np.array(self.elements, dtype=complex) if self.elements else np.zeros((0, 2, 2), complex)
        except ValueError:  # elements of different shapes
            stack = None
        hermitian = stack is not None and stack.shape[1:] == (2, 2)
        if not (hermitian and (np.abs(stack - stack.conj().swapaxes(1, 2)) <= EPS).all()):
            raise ValueError("POVM elements must be 2x2 Hermitian matrices")
        coords = pauli_coordinates(stack)
        spectra = hermitian_spectra(coords)
        negative = np.flatnonzero(spectra[:, 0] < -EPS)
        if len(negative):
            raise ValueError(f"POVM element is not positive semidefinite: min eig {spectra[negative[0], 0]}")
        completeness = float(hermitian_norms(coords.sum(axis=0) - I_PAULI))
        if completeness > EPS:
            raise ValueError("POVM elements must sum to the identity")
        object.__setattr__(self, "coordinates", coords)
        object.__setattr__(self, "spectra", spectra)
        object.__setattr__(self, "completeness_deviation", completeness)

    def __len__(self) -> int:
        return len(self.elements)


def canonical_povm(fam: QuantumSetup) -> PovmSet:
    """Anti-aligned POVM (I - A_k)/n built from Alice's observables of a parity-valid setup.

    Raises ``CertificationError`` when the observables violate the parity
    condition by more than ``EPS``: then (I - A_k)/n do not sum to I.
    """
    violation = check_parity_condition(fam)
    if violation > EPS:
        raise CertificationError(f"family violates the parity condition by {violation}")
    return PovmSet(tuple((I2 - np.array(fam.alice)) / fam.n))


@dataclass(frozen=True, eq=False)
class PovmStatistics:
    """Joint statistics of the POVM setting against Bob's n settings.

    ``table[k, y, b]`` is P(k, b | extra setting, y); ``marginals[k]`` is
    P(k), which no-signaling makes independent of y.
    """

    table: np.ndarray
    marginals: np.ndarray

    @property
    def penalties(self) -> np.ndarray:
        """Flagged joint probabilities P(k, flagged | extra setting, y = k): the diagonal ``table[k, k, 1]``."""
        return self.table[:, :, 1].diagonal()


def povm_statistics(setup: QuantumSetup, povm: PovmSet) -> PovmStatistics:
    """The table ``g T q^T`` of the elements' coordinates g against Bob's outcome projectors' q, and P(k) = (g T)_0."""
    _, bob, corr = setup.pauli_form
    steered = povm.coordinates @ corr
    table = (steered @ outcome_coordinates(bob).reshape(-1, 4).T).reshape(len(povm), setup.n, 2)
    return PovmStatistics(table=table, marginals=steered[:, 0])


def penalty_probabilities(setup: QuantumSetup, povm: PovmSet) -> np.ndarray:
    """Flagged joint probabilities P(k, flagged | extra setting, y = k)."""
    if len(povm) != setup.n:
        raise ValueError("penalty needs one POVM outcome per Bob setting")
    return povm_statistics(setup, povm).penalties


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


def reconstruction_deviation(setup: QuantumSetup, stats: PovmStatistics, povm: PovmSet) -> float:
    """Largest spectral-norm gap between the POVM elements and their rebuild from correlators.

    Element k is rebuilt as ``P(k) I + sum_x w_kx A_x`` with
    ``w = E_povm pinv(E)``, where ``E_povm[k, y] = <Gamma_k (x) B_y>`` and
    ``E[x, y] = <A_x (x) B_y>``, the matrix ``a T b^T`` of the Pauli form.
    The rebuild and its gaps are taken in Pauli coordinates, the gaps'
    norms in closed form.  At the optimum Alice's reduced state is
    maximally mixed and Bob's marginals vanish, so the rebuild is exact for
    every n and every local frame.  The cutoff drops the null directions of
    ``E``, which is rank 2 for planar setups; a component of an element off
    the span of Alice's observables is invisible to the correlators and
    shows up as the deviation.
    ``E`` is never formed: thin QRs ``a = Q_a R_a``, ``b = Q_b R_b`` give
    ``pinv(E) = Q_b pinv(K) Q_a^T`` with the 4x4 ``K = R_a T R_b^T``, whose
    nonzero singular values are E's, so the cutoff drops the same directions.
    """
    alice, bob, corr = setup.pauli_form
    (q_a, q_b), (r_a, r_b) = np.linalg.qr(np.stack([alice, bob]))
    e_povm = stats.table[:, :, 0] - stats.table[:, :, 1]
    spanned = e_povm @ q_b @ np.linalg.pinv(r_a @ corr @ r_b.T, rcond=EPS) @ r_a
    rebuilt = stats.marginals[:, None] * I_PAULI + spanned
    return float(np.max(hermitian_norms(rebuilt - povm.coordinates)))


def extremality_check(povm: PovmSet) -> bool:
    """True iff all elements are rank one (within ``EPS``) and linearly independent.

    On qubits at most four Hermitian matrices can be independent, so any
    set with more than four outcomes fails automatically, before any test.
    """
    if len(povm) > 4:
        return False
    smallest, largest = povm.spectra[:, 0], povm.spectra[:, 1]
    # A zero element has rank 0; otherwise the smallest eigenvalue is read relative to the largest.
    if np.any(largest <= EPS) or np.any(smallest > EPS * largest):
        return False
    return bool(np.linalg.matrix_rank(povm.coordinates, tol=1e-10) == len(povm))


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
    return randomness_from_marginals(povm_statistics(setup, povm).marginals, povm)


def randomness_from_marginals(marginals: np.ndarray, povm: PovmSet) -> RandomnessReport:
    """``randomness_report`` from the outcome marginals P(k), e.g. ``PovmStatistics.marginals``."""
    probs = tuple(marginals.tolist())
    extremal = extremality_check(povm)
    guess = max(probs)
    return RandomnessReport(
        outcome_probabilities=probs,
        guessing_probability=guess,
        min_entropy_bits=float(-np.log2(guess)),
        extremal=extremal,
        certified=extremal,
    )
