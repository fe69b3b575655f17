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

All restarts run as one stack: the observables are (r, n, 2, 2) arrays, the
states an (r, 4) array, and every helper takes leading batch axes.  A sweep
is a fixed sequence of numpy calls on the restarts still running (Bob's
sign update, Alice's sign or Fermat-Weber update, one ``eigh`` of the
(r, 4, 4) Bell operators), however many restarts there are; a restart
leaves the stack once its own trace gains no more than ``tol``.  Each
restart draws its start from its own ``SeedSequence`` stream, so its trace
does not depend on the others.  Only the best restart becomes a validated
``QuantumSetup``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gamecore import GameSpec, QuantumSetup
from .observables import check_n
from .qmat import EPS, I2, PAULIS, apply_local

_PAULI_STACK = np.array(PAULIS)

#: See-saw defaults: the root seed of the restart streams, the number of
#: restarts and the tolerance on one sweep's gain below which a restart
#: stops.  A restart also stops after ``_MAX_SWEEPS`` sweeps.
SEED = 42
RESTARTS = 8
TOL = 1e-9
_MAX_SWEEPS = 500


def bell_operator(alice, bob) -> np.ndarray:
    """4x4 Bell operator sum_xy alpha_xy A_x (x) B_y (alpha = -1 on diagonal).

    The coefficient matrix is ``J - 2I`` (all ones minus twice the
    identity), so the double sum collapses to
    ``(sum_x A_x) (x) (sum_y B_y) - 2 sum_x A_x (x) B_x``: one Kronecker
    product and one contraction instead of n^2 Kronecker products.  Stacks
    of shape (..., n, 2, 2) give one operator per leading index.
    """
    a = np.asarray(alice, dtype=complex)
    b = np.asarray(bob, dtype=complex)
    GameSpec(a.shape[-3])  # validates n
    pairs = np.einsum("...xij,...xkl->...ikjl", a, b)
    kron = np.einsum("...ij,...kl->...ikjl", a.sum(axis=-3), b.sum(axis=-3))
    return (kron - 2.0 * pairs).reshape(a.shape[:-3] + (4, 4))


def _setting_combos(obs: np.ndarray) -> np.ndarray:
    """Row y of ``J - 2I`` applied to each stack: ``sum_x O_x - 2 O_y`` for every y."""
    return obs.sum(axis=-3, keepdims=True) - 2.0 * obs


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
    omega fell below ``EPS``, where the residual reports the raw defect
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


def sos_certificate(setup: QuantumSetup) -> SosCertificate:
    """Compute the certificate data (omegas, residuals, gap, delta) for a setup.

    Also verifies ``sum_y omega_y^2 = n^2 + (n-4) <Delta_n>``.  The identity
    is algebraic (each anticommutator pair appears with weight n-4 when
    summed over y), so a violation beyond roundoff raises ``RuntimeError``:
    it signals a computation bug rather than a property of the setup.
    """
    n = setup.n
    alice = np.array(setup.alice)
    psi = setup.state
    vecs = apply_local(_setting_combos(alice), I2, psi).reshape(n, 4)
    bob_vecs = apply_local(I2, np.array(setup.bob), psi).reshape(n, 4)
    omegas = np.linalg.norm(vecs, axis=1)
    residuals = omegas.copy()
    degenerate = tuple(bool(w < EPS) for w in omegas)
    for y in range(n):
        if not degenerate[y]:
            residuals[y] = float(np.linalg.norm(vecs[y] / omegas[y] - bob_vecs[y]))
    value = setup_bell_value(setup)
    delta = float(np.vdot(psi, apply_local(_delta_operator(alice), I2, psi)).real)
    lhs = float(np.sum(omegas**2))
    rhs = n * n + (n - 4) * delta
    if abs(lhs - rhs) > 1e-8 * max(1.0, abs(rhs)):
        raise RuntimeError(
            f"anticommutator identity violated: sum omega^2 = {lhs}, n^2 + (n-4)<Delta> = {rhs}"
        )
    return SosCertificate(
        n=n,
        omegas=omegas,
        residuals=residuals,
        delta_expectation=delta,
        bell_value=value,
        gap=float(omegas.sum() - value),
        degenerate=degenerate,
    )


def delta_check(setup: QuantumSetup) -> float:
    """Return <Delta_n>, after ``sos_certificate`` has verified sum_y omega_y^2 = n^2 + (n-4) <Delta_n>."""
    return sos_certificate(setup).delta_expectation


def concavity_bound(n: int) -> float:
    """Analytic ceiling sqrt(n (n^2 + (n-4) delta_min)) with delta_min = -n; equals 2n."""
    check_n(n)
    return float(np.sqrt(n * (n * n + (n - 4) * (-n))))


# ---------------------------------------------------------------------------
# See-saw ascent
# ---------------------------------------------------------------------------


def _matrix_sign(m: np.ndarray) -> np.ndarray:
    """Hermitian unit-square maximizer of tr(B m) for each matrix of a (..., 2, 2) stack.

    Flips every eigenvalue to its sign.
    """
    w, v = np.linalg.eigh(m)
    signs = np.where(w >= 0, 1.0, -1.0)
    return (v * signs[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def _effective_bob(rho: np.ndarray, combos: np.ndarray) -> np.ndarray:
    """Tr_A[(C_y (x) I) rho] for each C_y, so that tr[(C_y (x) B) rho] = tr(B .)."""
    return np.einsum("...yim,...mkil->...ykl", combos, rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)))


def _effective_alice(rho: np.ndarray, combos: np.ndarray) -> np.ndarray:
    """Tr_B[(I (x) C_x) rho] for each C_x, so that tr[(A (x) C_x) rho] = tr(A .)."""
    return np.einsum("...xkm,...imjk->...xij", combos, rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)))


def _expectations(op: np.ndarray, states: np.ndarray) -> np.ndarray:
    """<psi| op |psi> for each pair of a (..., 4, 4) operator stack and a (..., 4) state stack."""
    return np.einsum("...i,...i->...", states.conj(), (op @ states[..., None])[..., 0]).real


def _geometric_median(points: np.ndarray) -> np.ndarray:
    """Fermat-Weber point of the n rows of each (n, 3) slice of ``points`` (shape (..., n, 3)).

    A safeguarded Weiszfeld iteration runs on all slices at once for up to
    500 steps.  A slice is done when its step falls below 1e-14, or when the
    median sits on one of its points and the Vardi-Zhang test keeps it there.
    """
    points = np.asarray(points, dtype=float)
    pts = points.reshape((-1,) + points.shape[-2:])
    mu = pts.mean(axis=1)
    live, cur = np.arange(len(pts)), mu
    add = np.add.reduce  # the plain ufunc reduction: this loop is call-bound
    for _ in range(500):
        if not len(live):
            break
        diff = pts - cur[:, None, :]
        dist = np.sqrt(add(diff * diff, axis=2))
        at_point = dist < 1e-13
        vardi_zhang = np.count_nonzero(at_point) > 0
        if vardi_zhang:
            snapped = at_point.any(axis=1)
            dist[at_point] = 1.0  # the Weiszfeld step is not used on these slices
        w = 1.0 / dist
        new = add(pts * w[..., None], axis=1) / add(w, axis=1)[:, None]
        step = new - cur
        done = np.sqrt(add(step * step, axis=1)) < 1e-14
        if vardi_zhang:
            # Stay if the residual pull of the other points is inside the unit ball.
            pull = add(np.where(at_point[..., None], 0.0, diff / dist[..., None]), axis=1)
            strength = np.sqrt(add(pull * pull, axis=1))
            stays = strength <= 1.0 + 1e-12
            scale = np.where(stays, 0.0, (strength - 1.0) / np.where(stays, 1.0, strength))
            new = np.where(snapped[:, None], cur + scale[:, None] * pull * 1e-13, new)
            done = np.where(snapped, stays, done)
        if np.count_nonzero(done):
            mu[live[done]] = new[done]
            live, pts, new = live[~done], pts[~done], new[~done]
        cur = new
    else:
        mu[live] = cur
    return mu.reshape(points.shape[:-2] + (3,))


def _sum_zero_units(targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions from the geometric median to (..., n, 3) targets; flags stacks with a target on it."""
    diff = targets - _geometric_median(targets)[..., None, :]
    dist = np.linalg.norm(diff, axis=-1)
    close = dist < 1e-12
    return diff / np.where(close, 1.0, dist)[..., None], close.any(axis=-1)


def _constrained_alice_update(targets: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Exact argmax of sum_x t_x . a_x over unit Bloch vectors summing to zero.

    ``targets`` is (..., n, 3) and ``previous`` the matching (..., n, 2, 2)
    observables.  A stack falls back to its previous observables when its
    Fermat-Weber solution is degenerate (a target coincides with the
    median), which keeps the sweep monotone.
    """
    units, degenerate = _sum_zero_units(targets)
    return np.where(degenerate[..., None, None, None], previous, _obs_from_blochs(units))


def _obs_from_blochs(bloch: np.ndarray) -> np.ndarray:
    """Stack of observables v . sigma for the unit rows of ``bloch`` (shape (..., 3))."""
    return np.einsum("...k,kij->...ij", bloch.astype(complex), _PAULI_STACK)


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


def _random_starts(n: int, rngs: list, constrained: bool) -> tuple[np.ndarray, np.ndarray]:
    """Alice's and Bob's random observables, (len(rngs), n, 2, 2) each, one stream per start.

    Each stream draws Alice's directions, draws them again while their
    projection onto the sum-zero set is degenerate, then draws Bob's.
    """

    def units(rng):
        vecs = rng.normal(size=(n, 3))
        return vecs / np.linalg.norm(vecs, axis=1)[:, None]

    alice = np.array([units(rng) for rng in rngs]).reshape(-1, n, 3)
    if constrained:
        pending = np.arange(len(rngs))
        while len(pending):
            projected, bad = _sum_zero_units(alice[pending])
            alice[pending[~bad]] = projected[~bad]
            pending = pending[bad]
            for k in pending:  # essentially never; redraw deterministically
                alice[k] = units(rngs[k])
    bob = np.array([units(rng) for rng in rngs]).reshape(-1, n, 3)
    return _obs_from_blochs(alice), _obs_from_blochs(bob)


def seesaw(
    n: int,
    seed: int = SEED,
    tol: float = TOL,
    restarts: int = RESTARTS,
    constrain_parity: bool | None = None,
    init: QuantumSetup | None = None,
) -> SeesawResult:
    """Best-of-restarts see-saw ascent of the n-input Bell value.

    ``constrain_parity`` defaults to ``n > 3`` (see module docstring).  When
    ``init`` is given it seeds the first restart.  Ties between restarts
    resolve to the earliest one.
    """
    check_n(n)
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    if not np.isfinite(tol):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if init is not None and init.n != n:
        raise ValueError(f"init has {init.n} settings per party, expected {n}")
    constrained = (n > 3) if constrain_parity is None else bool(constrain_parity)

    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(restarts)]
    seeded = 0 if init is None else 1
    alice, bob = _random_starts(n, rngs[seeded:], constrained)
    if init is not None:
        alice = np.concatenate([np.array([init.alice], dtype=complex), alice])
        bob = np.concatenate([np.array([init.bob], dtype=complex), bob])
    op = bell_operator(alice, bob)
    state = np.linalg.eigh(op)[1][..., -1]
    if init is not None:
        state[0] = np.ravel(init.state)

    # history[s][k] is restart k's value after s sweeps (NaN once it stopped).
    history = [_expectations(op, state)]
    sweeps = np.zeros(restarts, dtype=int)
    converged = np.zeros(restarts, dtype=bool)
    live = np.arange(restarts)
    for _ in range(_MAX_SWEEPS):
        a, psi = alice[live], state[live]
        rho = psi[:, :, None] * psi.conj()[:, None, :]
        # Bob: exact sign update per setting.
        b = _matrix_sign(_effective_bob(rho, _setting_combos(a)))
        # Alice: exact sign update, or Fermat-Weber step on the sum-zero set.
        effective = _effective_alice(rho, _setting_combos(b))
        if constrained:
            # Bloch components tr(M sigma_k) / 2 of each effective operator.
            targets = np.einsum("...xij,kji->...xk", effective, _PAULI_STACK).real / 2.0
            before = bell_operator(a, b)
            candidate = _constrained_alice_update(targets, a)
            op = bell_operator(candidate, b)
            # Keep the previous observables where the update loses value.
            dropped = _expectations(op, psi) < _expectations(before, psi) - 1e-12
            a = np.where(dropped[:, None, None, None], a, candidate)
            op = np.where(dropped[:, None, None], before, op)
        else:
            a = _matrix_sign(effective)
            op = bell_operator(a, b)
        # State: top eigenvector of the Bell operator.
        w, v = np.linalg.eigh(op)
        alice[live], bob[live], state[live] = a, b, v[..., -1]
        values = np.full(restarts, np.nan)
        values[live] = w[:, -1]
        stopped = values[live] - history[-1][live] <= tol
        history.append(values)
        sweeps[live] += 1
        converged[live[stopped]] = True
        live = live[~stopped]
        if not len(live):
            break

    columns = np.array(history).T
    traces = tuple(tuple(col[: k + 1].tolist()) for col, k in zip(columns, sweeps))
    restart_values = tuple(trace[-1] for trace in traces)
    best = int(np.argmax(restart_values))
    best_setup = QuantumSetup(state=state[best], alice=tuple(alice[best]), bob=tuple(bob[best]))
    return SeesawResult(
        n=n,
        value=restart_values[best],
        setup=best_setup,
        restart_values=restart_values,
        traces=traces,
        converged=tuple(converged.tolist()),
        constrained=constrained,
        parity_residual=float(np.linalg.norm(alice[best].sum(axis=0), 2)),
        best_restart=best,
    )
