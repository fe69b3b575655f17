"""See-saw search for the optimal quantum value and its certificate.

The alternating maximization is exact in every sub-step: the state update
takes the top eigenvector of the Bell operator, Bob's update takes the
matrix sign of each effective operator, which maximizes the value over all
Hermitian unit-square observables, and Alice's update maximizes it over the
parity-oblivious set {sum_x a_x = 0, |a_x| = 1} of Bloch vectors.  The value
trace is therefore monotone.

Alice is constrained for every n (unconstrained, the aligned classical
strategy gives n(n-2) > 2n for n > 3).  Her exact update is a Fermat-Weber
point: a_x = (t_x - mu)/|t_x - mu| maximizes sum_x t_x . a_x on that set,
with mu the geometric median of the effective Bloch targets t_x.

The sweep works in Pauli coordinates: each observable is its real 4-vector
(m0, v) with m = m0 I + v . sigma, and the state enters through its
correlation tensor T_mu,nu = <psi| sigma_mu (x) sigma_nu |psi>.  Each
party's effective operators are then one matmul with T, Bob's sign update
is a closed form, and the Bell operator is a 4x4 weight matrix on the 16
Pauli products.

All restarts run as one stack: the observables are (r, n, 4) arrays, the
states an (r, 4) array, and every helper takes leading batch axes.  A sweep
is a fixed sequence of numpy calls on the restarts still running (Bob's
sign update, Alice's Fermat-Weber update, one ``eigh`` of the (r, 4, 4)
Bell operators), however many restarts there are.  A restart leaves the
stack after the first sweep that gains no more than ``tol`` or ends within
``tol`` of the ceiling 2n (``concavity_bound``).  While Alice is on the
sum-zero set the value cannot pass 2n, so at the ceiling no later sweep
could gain more than ``tol``: reaching it is the stronger certificate of
convergence.  From the starts below every restart reaches it in one sweep,
so each trace holds 2 entries, the start and the optimum.  Alice starts every
restart from the Bloch rows of ``observables.spiral_configuration``, a fixed
sum-zero configuration, so she is on the set from the start, and Bob from
random unit directions: one generator seeded with ``seed`` draws a
(restarts, n, 3) block of normals, and restart k takes block k, so its
start and trace do not depend on the number of restarts.  Every Bloch
vector enters the sweep through ``qmat.traceless_coordinates``.  Only the
best restart becomes a validated ``QuantumSetup``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gamecore import QuantumSetup, check_n, setting_combinations
from .observables import check_parity_condition, spiral_configuration
from .qmat import (
    EPS,
    PAULI_PRODUCTS,
    bloch_lengths,
    correlations,
    from_pauli,
    pauli_coordinates,
    pauli_squares,
    row_norms,
    traceless_coordinates,
)

#: See-saw defaults: the seed of the start generator, the number of
#: restarts and the tolerance on one sweep's gain, or on the distance to
#: the ceiling 2n, below which a restart stops.  A restart also stops after
#: ``_MAX_SWEEPS`` sweeps.
SEED = 42
RESTARTS = 8
TOL = 1e-9
_MAX_SWEEPS = 500

#: Newton steps after which ``_geometric_median`` returns its iterate as is.
_MAX_MEDIAN_STEPS = 64


def bell_operator(alice, bob) -> np.ndarray:
    """4x4 Bell operator sum_xy alpha_xy A_x (x) B_y (alpha = -1 on diagonal).

    The coefficient matrix is ``J - 2I`` (all ones minus twice the
    identity), so the double sum collapses to
    ``sum_x A_x (x) (sum_y B_y - 2 B_x)``, which ``_bell_from_pauli`` builds
    from the parties' Pauli coordinates (of Hermitian observables, read from
    their lower triangles).  Stacks of shape (..., n, 2, 2) give one
    operator per leading index.
    """
    a = pauli_coordinates(alice)
    check_n(a.shape[-2])
    return _bell_from_pauli(a, setting_combinations(pauli_coordinates(bob), axis=-2))


def setup_bell_value(setup: QuantumSetup) -> float:
    """<psi| B |psi> on the Pauli form: sum_x a_x T (sum_y b_y - 2 b_x) (pairs with the behavior route)."""
    alice, bob, corr = setup.pauli_form
    return float(np.vecdot(alice @ corr, setting_combinations(bob, axis=-2)).sum())


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


def _delta_coordinates(alice: np.ndarray) -> np.ndarray:
    """Pauli coordinates of the pairwise anticommutator sum sum_{x<x'} {A_x, A_x'} = (sum_x A_x)^2 - sum_x A_x^2.

    ``alice`` holds the (n, 4) coordinates of Alice's observables.
    """
    return pauli_squares(alice.sum(axis=0)) - pauli_squares(alice).sum(axis=0)


def sos_certificate(setup: QuantumSetup) -> SosCertificate:
    """Compute the certificate data (omegas, residuals, gap, delta) for a setup.

    The defect vectors and their norms act on the state; the Bell value
    and ``<Delta_n>`` are read from the Pauli form (``QuantumSetup.pauli_form``).
    Also verifies ``sum_y omega_y^2 = n^2 + (n-4) <Delta_n>``.  The identity
    is algebraic (each anticommutator pair appears with weight n-4 when
    summed over y), so a violation beyond roundoff raises ``RuntimeError``:
    it signals a computation bug rather than a property of the setup.
    """
    n = setup.n
    psi2 = np.reshape(setup.state, (2, 2))
    # (C (x) I) psi and (I (x) B) psi on the 2x2 form: C psi2 and psi2 B^T (``apply_local``).
    vecs = (setting_combinations(np.array(setup.alice), axis=-3) @ psi2).reshape(n, 4)
    bob_vecs = (psi2 @ np.swapaxes(np.array(setup.bob), -1, -2)).reshape(n, 4)
    omegas = np.linalg.norm(vecs, axis=1)
    degenerate = omegas < EPS
    scaled = vecs / np.where(degenerate, 1.0, omegas)[:, None]
    residuals = np.where(degenerate, omegas, row_norms(scaled - bob_vecs))
    value = setup_bell_value(setup)
    a, _, corr = setup.pauli_form
    # tr[(Delta (x) I) rho] = (d T)_0 for the coordinates d of Delta.
    delta = float(_delta_coordinates(a) @ corr[:, 0])
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
        degenerate=tuple(degenerate.tolist()),
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
    """Hermitian unit-square maximizer of tr(B m) for each Hermitian 2x2 matrix m, in Pauli coordinates.

    ``m`` holds (m0, v) for m = m0 I + v . sigma, shape (..., 4), and so
    does the result.  Each eigenvalue flips to its sign, with 0 mapped to
    +1, in closed form: the eigenvalues are m0 +- |v|, so the sign is +I
    when m0 - |v| >= 0, -I when m0 + |v| < 0, and v/|v| . sigma otherwise
    (v = 0 falls in one of the first two cases).
    """
    m0, v = m[..., 0], m[..., 1:]
    norm = bloch_lengths(m)
    scalar = np.where(m0 - norm >= 0, 1.0, np.where(m0 + norm < 0, -1.0, 0.0))
    split = scalar == 0
    unit = np.divide(v, norm[..., None], out=np.zeros_like(v), where=split[..., None])
    return np.concatenate([scalar[..., None], unit], axis=-1)


def _bell_from_pauli(alice: np.ndarray, bob_combos: np.ndarray) -> np.ndarray:
    """``bell_operator`` in Pauli coordinates: sum_x A_x (x) (sum_y B_y - 2 B_x).

    ``alice`` holds Alice's (..., n, 4) coordinates and ``bob_combos`` Bob's
    setting combinations ``setting_combinations(bob, axis=-2)``.
    """
    weights = np.swapaxes(alice, -1, -2) @ bob_combos
    return (weights.reshape(weights.shape[:-2] + (16,)) @ PAULI_PRODUCTS).reshape(weights.shape[:-2] + (4, 4))


def _geometric_median(points: np.ndarray) -> np.ndarray:
    """Fermat-Weber point of the n rows of each (n, 3) slice of ``points`` (shape (..., n, 3)).

    Each slice runs on its own, all at once.  The centroid is tested first:
    a slice is done there when no point sits on it and the unit pull
    ``sum_j u_j`` (``u_j`` the unit vector to point j) has norm at most
    ``1e-15 n``.  The see-saw's slices all end there at n <= 21: Bob's
    update anti-aligns with an Alice on the sum-zero set.  The bound is not
    ``_median_search``'s, ``1e-15 (n + |y| sum_j 1/r_j)`` at distances
    ``r_j``, which grows without limit next to a point: with it, a centroid
    a hair from a point passed with a unit pull near 1.  The other slices go
    on to ``_median_search``.
    """
    points = np.asarray(points, dtype=float)
    every = points.reshape((-1,) + points.shape[-2:])
    mu = every.mean(axis=1)
    diff = every - mu[:, None, :]
    dist = row_norms(diff)
    inv = np.divide(1.0, dist, out=np.zeros_like(dist), where=dist > 0)
    pull = (inv[:, None, :] @ diff)[:, 0]
    rest = ~dist.all(axis=1) | (row_norms(pull) > 1e-15 * every.shape[1])
    if rest.any():
        mu[rest] = _median_search(every[rest], mu[rest])
    return mu.reshape(points.shape[:-2] + (3,))


def _median_search(every: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Fermat-Weber points of the (m, n, 3) slices ``every``, from their (m, 3) centroids ``mu``.

    Kuhn's test (Math. Programming 4, 98, 1973) runs first at the point
    nearest the centroid: a point of multiplicity c is the median iff the
    unit pull of the others has norm at most c, and is then returned exactly
    (at n = 3 only that point can be the median).  Else the slice starts at
    the centroid or the Vardi-Zhang step off the point (PNAS 97, 1423,
    2000), whichever is lower, and takes Newton steps on the Hessian
    ``sum_j (I - u_j u_j^T)/r_j`` of ``sum_j r_j`` (``u_j`` the unit vector
    to point j at distance ``r_j``).  A step that raises the objective
    beyond roundoff gives way to the Weiszfeld step, which never does
    (Ostresh, Oper. Res. 26, 597, 1978), and Kuhn's test runs again at the
    nearest point.  A slice is done once its pull ``sum_j u_j`` is down to
    roundoff.  ``mu`` is overwritten and returned.
    """
    live = np.arange(len(every))
    test = np.ones(len(every), dtype=bool)
    for _ in range(_MAX_MEDIAN_STEPS):
        pts, y = every[live], mu[live]
        diff = pts - y[:, None, :]
        dist = row_norms(diff)
        if test.any() or not dist.all():
            # Kuhn's test at the nearest point p, and the Vardi-Zhang step off it:
            # along the pull, by (1 - c/|pull|) / sum_{p_j != p} 1/|p_j - p|.
            on_point = ~dist.all(axis=1)
            point = pts[np.arange(len(pts)), np.argmin(dist, axis=1)]
            rel = pts - point[:, None, :]
            gap = row_norms(rel)
            inv = np.divide(1.0, gap, out=np.zeros_like(gap), where=gap > 0)
            pull = (inv[:, None, :] @ rel)[:, 0]
            strength = row_norms(pull)
            excess = strength - np.count_nonzero(gap == 0, axis=1)
            vertex = (excess <= 0) & (test | on_point)
            scale = np.divide(excess, strength * inv.sum(axis=1), out=np.zeros_like(excess), where=excess > 0)
            off = point + scale[:, None] * pull
            lower = row_norms(pts - off[:, None, :]).sum(axis=1) < dist.sum(axis=1)
            y = np.where(vertex[:, None], point, np.where(((test & lower) | on_point)[:, None], off, y))
            diff = pts - y[:, None, :]
            dist = row_norms(diff)
            # Also done: an iterate that the step off a point left on a point (a step below float spacing).
            done = vertex | ~dist.all(axis=1)
            mu[live[done]] = y[done]
            live, pts, y, diff, dist = (a[~done] for a in (live, pts, y, diff, dist))
        w = 1.0 / dist
        pull = (w[:, None, :] @ diff)[:, 0]
        total = w.sum(axis=1)
        # The 1e-12 W I term keeps the solve defined when the points and the iterate
        # are collinear; the step it gives along their line is then rejected.  The
        # sum is taken over unit vectors u_j, weighted by 1/r_j: 1/r_j^3 overflows
        # on an iterate within about 1e-103 of a point.
        unit = diff * w[..., None]
        hess = (total * (1 + 1e-12))[:, None, None] * np.eye(3) - np.swapaxes(unit * w[..., None], 1, 2) @ unit
        newton = y + np.linalg.solve(hess, pull[..., None])[..., 0]
        test = row_norms(pts - newton[:, None, :]).sum(axis=1) > dist.sum(axis=1) * (1 + 1e-14)
        done = row_norms(pull) <= 1e-15 * (every.shape[1] + total * row_norms(y))
        mu[live] = np.where(done[:, None], y, np.where(test[:, None], y + pull / total[:, None], newton))
        live, test = live[~done], test[~done]
        if not len(live):
            break
    return mu


def _sum_zero_units(targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions from the geometric median to (..., n, 3) targets; flags stacks with a target on it."""
    diff = targets - _geometric_median(targets)[..., None, :]
    dist = row_norms(diff)
    close = dist < 1e-12
    return diff / np.where(close, 1.0, dist)[..., None], close.any(axis=-1)


@dataclass(frozen=True, eq=False)
class SeesawResult:
    n: int
    value: float
    setup: QuantumSetup
    restart_values: tuple[float, ...]
    traces: tuple[tuple[float, ...], ...]
    converged: tuple[bool, ...]
    parity_residual: float
    best_restart: int


def _random_starts(n: int, seed: int, restarts: int, skip: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Alice's and Bob's starting observables of restarts ``skip`` to ``restarts - 1``, Pauli coordinates.

    Both come as (restarts - skip, n, 4) stacks, each Bloch row turned into
    Pauli coordinates by ``qmat.traceless_coordinates``.  Alice starts from
    ``observables.spiral_configuration(n)`` in every restart, so she is on
    the sum-zero set to roundoff without a projection.  Bob starts from n
    random unit directions: one generator, ``np.random.default_rng(seed)``,
    draws a (restarts, n, 3) block of normals and restart k takes block k,
    so its start does not depend on ``restarts`` or ``skip``.  Nothing is
    drawn when no restart is left (``skip == restarts``).  A random rotation
    R of Alice's start would change nothing: the sweep commutes with one
    rotation of both parties' Bloch vectors (it acts on the Bell operator
    as U (x) U, and the top eigenvector, the sign update and the geometric
    median all follow it), so a start (R a, b) gives the values of
    (a, R^-1 b), and R^-1 b is distributed as Bob's isotropic b.  Nor is
    one configuration a weaker start than another: every sum-zero
    configuration reaches 2n once Bob anti-aligns with it, because the Bell
    operator is (sum_x A_x) (x) (sum_y B_y) - 2 sum_x A_x (x) B_x.
    """
    bob = np.zeros((0, n, 3))
    if restarts > skip:
        bob = np.random.default_rng(seed).normal(size=(restarts, n, 3))[skip:]
        bob /= row_norms(bob)[..., None]
    alice = np.repeat(traceless_coordinates(spiral_configuration(n))[None], len(bob), axis=0)
    return alice, traceless_coordinates(bob)


def check_tol(tol: float) -> float:
    """The see-saw stopping tolerance ``tol``, rejected unless finite and >= 0."""
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    if not np.isfinite(tol):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    return tol


def seesaw(
    n: int,
    seed: int = SEED,
    tol: float = TOL,
    restarts: int = RESTARTS,
    init: QuantumSetup | None = None,
) -> SeesawResult:
    """Best-of-restarts see-saw ascent of the n-input Bell value.

    Alice's observables stay on the sum-zero set throughout (see the module
    docstring) and start on it (``_random_starts``).
    When ``init`` is given it seeds the first restart as is; an ``init``
    off the set can sit above 2n and then stops by the gain rule only.
    Ties between restarts resolve to the earliest one.
    """
    check_n(n)
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    check_tol(tol)
    if init is not None and init.n != n:
        raise ValueError(f"init has {init.n} settings per party, expected {n}")

    seeded = 0 if init is None else 1
    alice, bob = _random_starts(n, seed, restarts, skip=seeded)
    if init is not None:
        alice = np.concatenate([pauli_coordinates(np.array([init.alice], dtype=complex)), alice])
        bob = np.concatenate([pauli_coordinates(np.array([init.bob], dtype=complex)), bob])
    # history[s][k] is restart k's value after s sweeps (NaN once it stopped).
    w, v = np.linalg.eigh(_bell_from_pauli(alice, setting_combinations(bob, axis=-2)))
    state, history = v[..., -1], [w[:, -1]]
    if init is not None:
        state[0], history[0][0] = np.ravel(init.state), setup_bell_value(init)
    ceiling = concavity_bound(n)
    sweeps = np.zeros(restarts, dtype=int)
    converged = np.zeros(restarts, dtype=bool)
    live = np.arange(restarts)
    for _ in range(_MAX_SWEEPS):
        a = alice[live]
        corr = correlations(state[live])
        # Bob: exact sign update per setting, on his effective operators,
        # coordinates (c T)/2 for the coordinates c of Alice's combinations.
        b = _matrix_sign(setting_combinations(a, axis=-2) @ corr / 2.0)
        # Alice: Fermat-Weber step on the sum-zero set, towards the Bloch
        # vectors of her effective operators M_x, coordinates (T c)/2 for Bob's.
        b_combos = setting_combinations(b, axis=-2)
        effective = b_combos @ np.swapaxes(corr, -1, -2) / 2.0
        units, degenerate = _sum_zero_units(effective[..., 1:])
        candidate = traceless_coordinates(units)
        # Keep the previous observables where the median sits on a target or the
        # update loses value (the value is sum_x tr(A_x M_x) = 2 sum_x a_x . m_x):
        # the trace stays monotone.
        loss = 2.0 * np.vecdot(a - candidate, effective).sum(axis=-1)
        a = np.where((degenerate | (loss > 1e-12))[:, None, None], a, candidate)
        # State: top eigenvector of the Bell operator.
        w, v = np.linalg.eigh(_bell_from_pauli(a, b_combos))
        alice[live], bob[live], state[live] = a, b, v[..., -1]
        values = np.full(restarts, np.nan)
        values[live] = w[:, -1]
        # Stop at a gain of at most tol, or at the ceiling, which the value
        # cannot pass on the sum-zero set (see the module docstring).
        stopped = (values[live] - history[-1][live] <= tol) | (np.abs(values[live] - ceiling) <= tol)
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
    best_alice = from_pauli(alice[best])
    best_setup = QuantumSetup(state=state[best], alice=tuple(best_alice), bob=tuple(from_pauli(bob[best])))
    return SeesawResult(
        n=n,
        value=restart_values[best],
        setup=best_setup,
        restart_values=restart_values,
        traces=traces,
        converged=tuple(converged.tolist()),
        parity_residual=check_parity_condition(best_setup),
        best_restart=best,
    )
