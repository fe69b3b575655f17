"""See-saw search for the optimal quantum value and its certificate.

The alternating maximization is exact in every sub-step: the state update
takes the top eigenvector of the Bell operator, and each party's observable
update takes the matrix sign of its effective operator, which maximizes the
value over all Hermitian unit-square observables.  The value trace is
therefore monotone.

For n = 3 the search runs unconstrained: the certificate bound already caps
the value at 2n and the sum-zero observable constraint emerges at the
optimum.  For n > 3 unconstrained strategies exceed 2n classically (all
aligned observables give n(n-2) > 2n), so Alice's update is performed over
the sum-zero set {sum_x a_x = 0, |a_x| = 1}.  Its exact solution is a
Fermat-Weber point: maximize sum_x t_x . a_x subject to the constraint by
taking a_x = (t_x - mu)/|t_x - mu| with mu the geometric median of the
effective Bloch targets t_x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gamecore import GameSpec, QuantumSetup
from .observables import check_n
from .qmat import EPS, I2, PAULIS, apply_local, proj

_PAULI_STACK = np.array(PAULIS)


def bell_operator(alice, bob) -> np.ndarray:
    """4x4 Bell operator sum_xy alpha_xy A_x (x) B_y (alpha = -1 on diagonal).

    The coefficient matrix is ``J - 2I`` (all ones minus twice the
    identity), so the double sum collapses to
    ``(sum_x A_x) (x) (sum_y B_y) - 2 sum_x A_x (x) B_x``: one Kronecker
    product and one contraction instead of n^2 Kronecker products.
    """
    a = np.asarray(alice, dtype=complex)
    b = np.asarray(bob, dtype=complex)
    GameSpec(len(a))  # validates n
    pairs = np.einsum("xij,xkl->ikjl", a, b).reshape(4, 4)
    return np.kron(a.sum(axis=0), b.sum(axis=0)) - 2.0 * pairs


def _setting_combos(obs: np.ndarray) -> np.ndarray:
    """Row y of ``J - 2I`` applied to the stack: ``sum_x O_x - 2 O_y`` for every y."""
    return obs.sum(axis=0) - 2.0 * obs


def setup_bell_value(setup: QuantumSetup) -> float:
    """Operator-expectation route <psi| B |psi> (pairs with the behavior route)."""
    op = bell_operator(setup.alice, setup.bob)
    return float(np.vdot(setup.state, op @ setup.state).real)


@dataclass(frozen=True, eq=False)
class SosCertificate:
    """Decomposition witness for the upper bound sum_y omega_y.

    ``gap = sum(omegas) - <B>`` is the certificate slack (non-negative up to
    roundoff); ``residuals`` are the norms of the defect vectors, which all
    vanish exactly at the optimum.  ``degenerate`` flags settings whose
    omega fell below tolerance, where the residual reports the raw defect
    norm instead of the normalized one.
    """

    n: int
    omegas: np.ndarray
    residuals: np.ndarray
    delta_expectation: float
    bell_value: float
    gap: float
    degenerate: tuple[bool, ...]


def _delta_operator(alice: np.ndarray) -> np.ndarray:
    """Pairwise anticommutator sum: sum_{x<x'} {A_x, A_x'} = (sum_x A_x)^2 - sum_x A_x^2."""
    total = alice.sum(axis=0)
    return total @ total - np.einsum("xij,xjk->ik", alice, alice)


def sos_certificate(setup: QuantumSetup, tol: float = EPS) -> SosCertificate:
    """Compute the certificate data (omegas, residuals, gap, delta) for a setup."""
    n = setup.n
    alice = np.array(setup.alice)
    psi = setup.state
    vecs = apply_local(_setting_combos(alice), I2, psi).reshape(n, 4)
    bob_vecs = apply_local(I2, np.array(setup.bob), psi).reshape(n, 4)
    omegas = np.linalg.norm(vecs, axis=1)
    residuals = omegas.copy()
    degenerate = tuple(bool(w < tol) for w in omegas)
    for y in range(n):
        if not degenerate[y]:
            residuals[y] = float(np.linalg.norm(vecs[y] / omegas[y] - bob_vecs[y]))
    value = setup_bell_value(setup)
    delta = float(np.vdot(psi, apply_local(_delta_operator(alice), I2, psi)).real)
    return SosCertificate(
        n=n,
        omegas=omegas,
        residuals=residuals,
        delta_expectation=delta,
        bell_value=value,
        gap=float(omegas.sum() - value),
        degenerate=degenerate,
    )


def delta_check(setup: QuantumSetup, tol: float = 1e-8) -> float:
    """Return <Delta_n> after verifying sum_y omega_y^2 = n^2 + (n-4) <Delta_n>.

    The identity is algebraic (each anticommutator pair appears with weight
    n-4 when summed over y), so any violation beyond roundoff signals a
    computation bug rather than a property of the setup.
    """
    cert = sos_certificate(setup)
    n = setup.n
    lhs = float(np.sum(cert.omegas**2))
    rhs = n * n + (n - 4) * cert.delta_expectation
    if abs(lhs - rhs) > tol * max(1.0, abs(rhs)):
        raise RuntimeError(
            f"anticommutator identity violated: sum omega^2 = {lhs}, n^2 + (n-4)<Delta> = {rhs}"
        )
    return cert.delta_expectation


def concavity_bound(n: int) -> float:
    """Analytic ceiling sqrt(n (n^2 + (n-4) delta_min)) with delta_min = -n; equals 2n."""
    check_n(n)
    return float(np.sqrt(n * (n * n + (n - 4) * (-n))))


# ---------------------------------------------------------------------------
# See-saw ascent
# ---------------------------------------------------------------------------


def _matrix_sign(m: np.ndarray) -> np.ndarray:
    """Hermitian unit-square maximizer of tr(B m) for each matrix of a (k, 2, 2) stack.

    Flips every eigenvalue to its sign.
    """
    w, v = np.linalg.eigh(m)
    signs = np.where(w >= 0, 1.0, -1.0)
    return (v * signs[:, None, :]) @ v.conj().transpose(0, 2, 1)


def _effective_bob(rho: np.ndarray, combos: np.ndarray) -> np.ndarray:
    """Tr_A[(C_y (x) I) rho] for each C_y, so that tr[(C_y (x) B) rho] = tr(B .)."""
    return np.einsum("yim,mkil->ykl", combos, rho.reshape(2, 2, 2, 2))


def _effective_alice(rho: np.ndarray, combos: np.ndarray) -> np.ndarray:
    """Tr_B[(I (x) C_x) rho] for each C_x, so that tr[(A (x) C_x) rho] = tr(A .)."""
    return np.einsum("xkm,imjk->xij", combos, rho.reshape(2, 2, 2, 2))


def _geometric_median(points: np.ndarray, iters: int = 500, tol: float = 1e-14) -> np.ndarray:
    """Fermat-Weber point of rows of ``points`` by a safeguarded Weiszfeld iteration."""
    mu = points.mean(axis=0)
    for _ in range(iters):
        diff = points - mu
        dist = np.linalg.norm(diff, axis=1)
        at_point = dist < 1e-13
        if np.any(at_point):
            # Vardi-Zhang step: stay if the residual pull is inside the unit ball.
            others = ~at_point
            r = (diff[others] / dist[others, None]).sum(axis=0)
            if np.linalg.norm(r) <= 1.0 + 1e-12:
                return mu
            mu = mu + (np.linalg.norm(r) - 1.0) / np.linalg.norm(r) * r * 1e-13
            continue
        w = 1.0 / dist
        new = (points * w[:, None]).sum(axis=0) / w.sum()
        if np.linalg.norm(new - mu) < tol:
            return new
        mu = new
    return mu


def _constrained_alice_update(targets: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Exact argmax of sum_x t_x . a_x over unit Bloch vectors summing to zero.

    Falls back to the previous observables when the Fermat-Weber solution is
    degenerate (a target coincides with the median), which keeps the sweep
    monotone.
    """
    mu = _geometric_median(targets)
    diff = targets - mu
    dist = np.linalg.norm(diff, axis=1)
    if np.any(dist < 1e-12):
        return previous
    return _obs_from_blochs(diff / dist[:, None])


def _obs_from_blochs(bloch: np.ndarray) -> np.ndarray:
    """Stack of observables v . sigma for the unit rows of ``bloch``."""
    return np.einsum("xk,kij->xij", bloch.astype(complex), _PAULI_STACK)


@dataclass(frozen=True, eq=False)
class SeesawResult:
    n: int
    value: float
    setup: QuantumSetup
    restart_values: tuple[float, ...]
    traces: tuple[tuple[float, ...], ...]
    converged: tuple[bool, ...]
    constrained: bool
    parity_residual: float
    best_restart: int


def _random_setup(n: int, rng: np.random.Generator, constrained: bool) -> QuantumSetup:
    def random_units(count):
        vecs = rng.normal(size=(count, 3))
        return vecs / np.linalg.norm(vecs, axis=1)[:, None]

    alice_dirs = random_units(n)
    if constrained:
        mu = _geometric_median(alice_dirs)
        diff = alice_dirs - mu
        dist = np.linalg.norm(diff, axis=1)
        if np.any(dist < 1e-12):  # essentially never; resample deterministically
            return _random_setup(n, rng, constrained)
        alice_dirs = diff / dist[:, None]
    alice = _obs_from_blochs(alice_dirs)
    bob = _obs_from_blochs(random_units(n))
    op = bell_operator(alice, bob)
    _, v = np.linalg.eigh(op)
    state = v[:, -1]
    return QuantumSetup(state=state, alice=tuple(alice), bob=tuple(bob))


def _seesaw_single(
    n: int,
    rng: np.random.Generator,
    iters: int,
    tol: float,
    constrained: bool,
    init: QuantumSetup | None,
) -> tuple[QuantumSetup, list[float], bool]:
    setup = init if init is not None else _random_setup(n, rng, constrained)
    alice = np.array(setup.alice, dtype=complex)
    bob = np.array(setup.bob, dtype=complex)
    state = setup.state.copy()

    def value_of() -> float:
        op = bell_operator(alice, bob)
        return float(np.vdot(state, op @ state).real)

    trace = [value_of()]
    converged = False
    for _ in range(iters):
        rho = proj(state)
        # Bob: exact sign update per setting.
        bob = _matrix_sign(_effective_bob(rho, _setting_combos(alice)))
        # Alice: exact sign update, or Fermat-Weber step on the sum-zero set.
        effective = _effective_alice(rho, _setting_combos(bob))
        if constrained:
            # Bloch components tr(M sigma_k) / 2 of each effective operator.
            targets = np.einsum("xij,kji->xk", effective, _PAULI_STACK).real / 2.0
            before = value_of()
            candidate = _constrained_alice_update(targets, alice)
            saved = alice
            alice = candidate
            if value_of() < before - 1e-12:
                alice = saved
        else:
            alice = _matrix_sign(effective)
        # State: top eigenvector of the Bell operator.
        op = bell_operator(alice, bob)
        w, v = np.linalg.eigh(op)
        state = v[:, -1]
        trace.append(float(w[-1]))
        if trace[-1] - trace[-2] <= tol:
            converged = True
            break
    final = QuantumSetup(state=state, alice=tuple(alice), bob=tuple(bob))
    return final, trace, converged


def seesaw(
    n: int,
    seed: int = 42,
    iters: int = 500,
    tol: float = 1e-9,
    restarts: int = 8,
    constrain_parity: bool | None = None,
    init: QuantumSetup | None = None,
) -> SeesawResult:
    """Best-of-restarts see-saw ascent of the n-input Bell value.

    ``constrain_parity`` defaults to ``n > 3`` (see module docstring).  When
    ``init`` is given it seeds the first restart.  Ties between restarts
    resolve to the earliest one.
    """
    check_n(n)
    if iters < 1 or restarts < 1:
        raise ValueError("iters and restarts must be >= 1")
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    constrained = (n > 3) if constrain_parity is None else bool(constrain_parity)

    streams = np.random.SeedSequence(seed).spawn(restarts)
    setups, traces, values, flags = [], [], [], []
    for r in range(restarts):
        rng = np.random.default_rng(streams[r])
        start = init if (r == 0 and init is not None) else None
        final, trace, converged = _seesaw_single(n, rng, iters, tol, constrained, start)
        setups.append(final)
        traces.append(tuple(trace))
        values.append(trace[-1])
        flags.append(converged)

    best = int(np.argmax(values))
    best_setup = setups[best]
    parity_residual = float(np.linalg.norm(sum(best_setup.alice), 2))
    return SeesawResult(
        n=n,
        value=float(values[best]),
        setup=best_setup,
        restart_values=tuple(float(v) for v in values),
        traces=tuple(traces),
        converged=tuple(flags),
        constrained=constrained,
        parity_residual=parity_residual,
        best_restart=best,
    )
