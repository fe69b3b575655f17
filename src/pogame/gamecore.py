"""Game definition, strategies, Bell expression, behaviors and steering checks.

The game is defined for an odd number n >= 3 of settings only.  That rule
is ``check_n``, and every type that carries an n checks it: ``GameSpec``,
``BellExpression`` and ``QuantumSetup``, the one type of a strategy (a
two-qubit state and n observables per party), which every pipeline stage
takes and every family of ``observables`` is.

Conventions
-----------
Settings ``x, y`` run over 1..n in the external interfaces and 0..n-1 in
array indices.  Outcomes ``a, b`` in {0, 1} map to observable eigenvalues
``(-1)^a`` and ``(-1)^b``, which makes the correlator
``E_xy = sum_ab (-1)^(a+b) p(a,b|x,y)`` exact.

The prepared-ensemble labels used for the steering bookkeeping follow a
different, per-setting convention: the state labeled ``(x, a)`` is the one
steered by the projector with eigenvalue sign ``(-1)^(x+a)``, so the
even-parity ensemble always collects the +1 steerings.  Under this labeling
the operational parity condition is equivalent to ``sum_x A_x = 0``.
``SteeredStates`` holds the 2n states as one stack indexed
``[x - 1, parity]``, parity = (x + a) mod 2.

Computation
-----------
Every Born-rule number is read from the setup's Pauli form
(``QuantumSetup.pauli_form``): the behavior table is ``e T f^T`` for the
outcome projectors' coordinates e and f, and the 2n steered states are
one matmul too, whose stack ``check_operational_parity`` reduces.
``setting_combinations`` is the row action of the Bell expression's
``J - 2I``, and the Bell value is the trace of that action on the
correlators.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass
from itertools import chain, product
from typing import NamedTuple

import numpy as np

from .qmat import (
    EPS,
    I2,
    I_PAULI,
    as_state,
    correlations,
    density_correlations,
    from_pauli,
    hermitian_norms,
    outcome_coordinates,
    pauli_coordinates,
    pauli_squares,
    phi_plus,
)


class CertificationError(ValueError):
    """A certificate stage failed on its setup: a numerical failure, not a usage error.

    A ``ValueError``, so callers that catch that are unaffected; the command
    line exits 1 on it, as on a failed check, not 2.
    """


def check_n(n: int) -> None:
    """Raise ``ValueError`` unless n is an odd number of settings >= 3: the game is defined for no other n."""
    if n % 2 == 0 or n < 3:
        raise ValueError(f"n must be odd and >= 3, got {n}")


@dataclass(frozen=True)
class GameSpec:
    """n-input game with uniform inputs and winning rule b = [x == y] xor a."""

    n: int

    def __post_init__(self):
        check_n(self.n)

    @property
    def input_probability(self) -> float:
        return 1.0 / self.n

    def winning_output(self, x: int, y: int, a: int) -> int:
        """Bob's required output for inputs (x, y) and Alice outcome a.

        Also works elementwise on integer setting arrays.
        """
        return (x == y) ^ (a & 1)


@dataclass(frozen=True)
class BellExpression:
    """The game's Bell expression ``sum_xy (J - 2I)_xy E_xy``: -1 on the diagonal, +1 off it.

    Its coefficients live in ``setting_combinations``; the expression holds only n.
    """

    n: int

    def __post_init__(self):
        check_n(self.n)


def bell_expression(n: int) -> BellExpression:
    return BellExpression(n=n)


def setting_combinations(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Row y of ``J - 2I`` along the settings ``axis``: ``sum_x v_x - 2 v_y`` for every y; ints stay ints."""
    return values.sum(axis=axis, keepdims=True) - 2 * values


@dataclass(frozen=True, eq=False)
class Behavior:
    """Joint probability table p(a, b | x, y), stored as the float array table[x, y, a, b]."""

    n: int
    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.shape != (self.n, self.n, 2, 2):
            raise ValueError(f"table must have shape (n, n, 2, 2), got {t.shape}")
        object.__setattr__(self, "table", t)

    def validate(self) -> None:
        t = self.table
        if not np.all(np.isfinite(t)):
            raise ValueError("probabilities must be finite")
        if np.min(t) < -EPS or np.max(t) > 1 + EPS:
            raise ValueError("probabilities must lie in [0, 1]")
        sums = t.sum(axis=(2, 3))
        if np.max(np.abs(sums - 1.0)) > EPS:
            raise ValueError("each setting pair must be normalized")
        if self.no_signaling_defect() > EPS:
            raise ValueError("behavior is signaling")

    def correlator(self, x: int, y: int) -> float:
        """Signed correlator sum_ab (-1)^(a+b) p(a,b|x,y) (0-based x, y)."""
        block = self.table[x, y]
        return float(block[0, 0] - block[0, 1] - block[1, 0] + block[1, 1])

    def no_signaling_defect(self) -> float:
        """Largest variation of either party's marginal across the other's input."""
        t = self.table
        alice = t[..., 0] + t[..., 1]  # p(a|x, y)
        bob = t[..., 0, :] + t[..., 1, :]  # p(b|x, y)
        d_alice = np.max(np.abs(alice - alice[:, :1, :]))
        d_bob = np.max(np.abs(bob - bob[:1, :, :]))
        return float(max(d_alice, d_bob))


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
class QuantumSetup:
    """Shared two-qubit pure state plus n dichotomic observables per party, n odd and >= 3.

    The one type of a strategy: every family of ``observables`` is one (on
    phi+), and every pipeline stage takes one.  The odd-n rule is checked
    here, where a setup is built.
    """

    state: np.ndarray
    alice: tuple[np.ndarray, ...]
    bob: tuple[np.ndarray, ...]

    def __post_init__(self):
        as_state(self.state)
        if len(self.state) != 4:
            raise ValueError("state must be a two-qubit vector of dimension 4")
        if len(self.alice) != len(self.bob):
            raise ValueError("alice and bob must hold the same number of observables")
        check_n(len(self.alice))
        assert_observable(self.alice)
        assert_observable(self.bob)

    @property
    def n(self) -> int:
        return len(self.alice)

    @functools.cached_property
    def pauli_form(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Alice's and Bob's (n, 4) Pauli coordinates and the state's (4, 4) correlation tensor T.

        ``<psi| E (x) F |psi>`` is ``e T f`` for effects with coordinates e
        and f, so every correlator of the setup is a small real matmul.
        Computed once per setup; the arrays are read-only.
        """
        state = np.asarray(self.state, dtype=complex)
        form = pauli_coordinates(np.array(self.alice)), pauli_coordinates(np.array(self.bob)), correlations(state)
        for arr in form:
            arr.flags.writeable = False
        return form


def setup_from_family(fam: QuantumSetup) -> QuantumSetup:
    """The setup's observables on the maximally entangled state; a family of ``observables`` already is that setup."""
    return QuantumSetup(state=phi_plus(), alice=fam.alice, bob=fam.bob)


def behavior_from_setup(setup: QuantumSetup) -> Behavior:
    """Born-rule behavior p(a,b|x,y) = <psi| P_a^x (x) P_b^y |psi>, as ``e T f^T`` on the Pauli form."""
    alice, bob, corr = setup.pauli_form
    e, f = outcome_coordinates(alice).reshape(-1, 4), outcome_coordinates(bob).reshape(-1, 4)
    table = (e @ corr @ f.T).reshape(setup.n, 2, setup.n, 2)
    beh = Behavior(n=setup.n, table=np.ascontiguousarray(table.transpose(0, 2, 1, 3)))
    beh.validate()
    return beh


def bell_value(expr: BellExpression, beh: Behavior) -> float:
    """sum_xy (J - 2I)_xy E_xy for matching sizes: the trace of ``setting_combinations`` on the correlators."""
    if expr.n != beh.n:
        raise ValueError(f"size mismatch: expression n={expr.n}, behavior n={beh.n}")
    t = beh.table
    correlators = t[..., 0, 0] - t[..., 0, 1] - t[..., 1, 0] + t[..., 1, 1]
    return float(np.trace(setting_combinations(correlators, axis=0)))


def success_probability(expr: BellExpression, beh: Behavior) -> float:
    """Game success probability 1/2 + <B>/(2 n^2)."""
    return success_probability_at(expr.n, bell_value(expr, beh))


def success_probability_direct(spec: GameSpec, beh: Behavior) -> float:
    """Predicate-averaged success probability, independent of the Bell route.

    Averages p(b = [x==y] xor a | x, y) over uniform inputs by gathering the
    winning entries ``table[x, y, a, b]`` of the table, with ``b`` from
    ``GameSpec.winning_output``; used as the oracle for ``success_probability``.
    """
    if spec.n != beh.n:
        raise ValueError("size mismatch between game and behavior")
    n = spec.n
    x, y, a = np.ogrid[:n, :n, :2]
    return float(beh.table[x, y, a, spec.winning_output(x + 1, y + 1, a)].sum()) / (n * n)


def success_probability_at(n: int, value: float) -> float:
    """Success probability implied by a Bell value for the n-input game."""
    return 0.5 + value / (2.0 * n * n)


class SteeredStates(NamedTuple):
    """Bob's 2n steered states, indexed ``[x - 1, parity]`` for the 1-based setting x.

    The entry ``[x - 1, p]`` is the state prepared by Alice's outcome label
    ``a = (x + p) mod 2``: the one steered by her projector with eigenvalue
    sign ``(-1)^(x+a) = (-1)^p``, so parity 0 (the even-parity ensemble)
    holds the +1 steering of every setting.  ``rho`` is the (n, 2, 2, 2)
    stack of density matrices, ``probability`` and ``degenerate`` are
    (n, 2).  A branch of probability below ``EPS`` holds the maximally
    mixed state and probability 0, and is flagged as degenerate.
    """

    rho: np.ndarray
    probability: np.ndarray
    degenerate: np.ndarray


def _steered_stack(corr: np.ndarray, alice: np.ndarray) -> SteeredStates:
    """Bob's steered states for a shared state's correlation tensor T ``corr`` and Alice's (n, 4) Pauli coordinates.

    Parity p is also the outcome index of Alice's projector P with sign
    ``(-1)^p``.  Bob's unnormalized state
    ``tr_A[(P (x) I) rho (P (x) I)] = tr_A[(P^2 (x) I) rho]`` has Pauli
    coordinates ``(p T)/2`` and probability ``(p T)_0``, p those of P^2
    (not P, which differs when A^2 = I only within ``EPS``).
    """
    steered = pauli_squares(outcome_coordinates(alice)) @ corr
    probs = steered[..., 0]
    degenerate = probs < EPS
    coords = steered / (2.0 * np.where(degenerate, 1.0, probs))[..., None]
    coords[degenerate] = I_PAULI / 2.0
    return SteeredStates(from_pauli(coords), np.where(degenerate, 0.0, probs), degenerate)


def steer(rho_ab: np.ndarray, alice: tuple[np.ndarray, ...]) -> SteeredStates:
    """Bob's steered states for a shared density matrix and Alice's n observables."""
    return _steered_stack(density_correlations(rho_ab), pauli_coordinates(np.array(alice)))


def steered_states(setup: QuantumSetup) -> SteeredStates:
    """Bob's steered states for a pure-state setup, read from its Pauli form."""
    alice, _, corr = setup.pauli_form
    return _steered_stack(corr, alice)


def check_operational_parity(states: SteeredStates) -> float:
    """Spectral norm of (sum of even-parity states) - (sum of odd-parity states), each summed in x order."""
    rhos = states.rho
    return float(hermitian_norms(pauli_coordinates(rhos[:, 0].sum(axis=0) - rhos[:, 1].sum(axis=0))))


# ---------------------------------------------------------------------------
# Behavior serialization (CSV with header x,y,a,b,p and JSON keyed "x,y").
# Floats are written with 17 significant digits so round-trips are bit-exact.
# Each writer fills one ``%`` template, with a ``%.17g`` slot per entry, in a
# single format call; each reader converts its rows or keys with one ``np.loadtxt``.
# ---------------------------------------------------------------------------

# One CSV data row, and one JSON table key.
_CSV_ROW = np.dtype([("x", np.int64), ("y", np.int64), ("a", np.int64), ("b", np.int64), ("p", float)])
_JSON_KEY = np.dtype([("x", np.int64), ("y", np.int64)])


def _entries(beh: Behavior) -> tuple[float, ...]:
    """Table entries as Python floats in (x, y, a, b) row-major order."""
    return tuple(np.asarray(beh.table, dtype=float).reshape(-1).tolist())


def behavior_to_csv(beh: Behavior) -> str:
    rows = [
        f"{x},{y},0,0,%.17g\n{x},{y},0,1,%.17g\n{x},{y},1,0,%.17g\n{x},{y},1,1,%.17g\n"
        for x, y in product(map(str, range(1, beh.n + 1)), repeat=2)
    ]
    return ("x,y,a,b,p\n" + "".join(rows)) % _entries(beh)


def _load_records(lines: list[str], dtype: np.dtype, what: str) -> np.ndarray:
    """One ``dtype`` record per comma-separated line, parsed in one ``np.loadtxt`` call.

    ``comments=None`` keeps a ``#`` from silently cutting a line short.  A
    DeprecationWarning is raised as an error whatever the caller's filters:
    numpy releases that only warn on a float such as ``1.7`` in an int
    field would otherwise truncate it.  On failure the first line without
    one field per name of ``dtype`` is named; loadtxt skips blank lines, so
    a record count short of ``len(lines)`` is such a failure too.
    Otherwise loadtxt's conversion error stands.  Non-ASCII lines, which
    the writers never emit, are refused first: numpy 2.4's loadtxt crashed
    on lines that mix ASCII with characters beyond U+FFFF.
    """
    if not "".join(lines).isascii():
        bad = next(ln for ln in lines if not ln.isascii())
        raise ValueError(f"{what} {bad!r} must be ASCII")
    error = None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            records = np.loadtxt(lines, delimiter=",", dtype=dtype, comments=None, ndmin=1)
    except ValueError as exc:
        error = exc
    else:
        if len(records) == len(lines):
            return records
    width = len(dtype.names)
    bad = next((ln for ln in lines if ln.count(",") != width - 1), None)
    if bad is None:
        raise error
    fields = ",".join(dtype.names)
    got = bad.count(",") + 1
    raise ValueError(f"{what} {bad!r} must have the {width} fields {fields}, got {got}") from None


def _fill_once(shape: tuple[int, ...], keys: np.ndarray, base: tuple[int, ...], values: np.ndarray, label) -> np.ndarray:
    """Table of ``shape`` with ``values`` placed at ``keys``, built only once every entry is found.

    ``keys`` holds one row per value: indices into the leading axes of
    ``shape`` as written, counted from ``base`` (1 for a setting, 0 for an
    outcome), and range-checked before ``base`` is taken off, which could
    wrap around int64.  Every keyed entry must be given exactly once; the
    error names the first out-of-range entry, or else the first duplicate or
    missing one in row-major order, formatted by ``label(*keys)`` on Python
    ints.  Every step takes memory in proportion to the input, not to
    ``shape``: the table is counted and filled only when the input has one
    row per keyed entry, and otherwise ``_first_gap`` names the entry at fault.
    """
    keyed = shape[: keys.shape[1]]
    low = np.array(base)
    high = np.array(keyed) - 1 + low
    outside = np.any((keys < low) | (keys > high), axis=1)
    if np.any(outside):
        raise ValueError(f"{label(*keys[np.argmax(outside)].tolist())} is out of range for n={shape[0]}")
    index = keys - low
    if len(index) == math.prod(keyed):
        flat = np.ravel_multi_index(tuple(index.T), keyed)
        if np.all(np.bincount(flat, minlength=len(index)) == 1):
            table = np.empty(shape)
            table.reshape((-1,) + shape[index.shape[1] :])[flat] = values
            return table
    kind, where = _first_gap(index, keyed)
    raise ValueError(f"{kind} {label(*(where + low).tolist())}: every entry must appear exactly once")


def _first_gap(index: np.ndarray, keyed: tuple[int, ...]) -> tuple[str, np.ndarray]:
    """First duplicate or missing key in row-major order, from the sorted rows of ``index``.

    Row k of the sorted index must be the k-th key.  Only the first
    ``len(index) + 1`` keys are built, so an axis longer than that divides
    their ranks as its clipped length does.
    """
    found = index[np.lexsort(index.T[::-1])]
    rank = np.arange(len(index) + 1)
    want = np.empty((len(rank), len(keyed)), dtype=index.dtype)
    for axis in reversed(range(len(keyed))):
        rank, want[:, axis] = np.divmod(rank, min(keyed[axis], len(rank)))
    wrong = np.flatnonzero(np.any(found != want[:-1], axis=1))
    first = wrong[0] if len(wrong) else len(index)
    if 0 < first < len(index) and np.array_equal(found[first], found[first - 1]):
        return "duplicate", found[first]
    return "missing", want[first]


def _csv_row(x: int, y: int, a: int, b: int) -> str:
    """A CSV data row as the readers' errors name it."""
    return f"row {x},{y},{a},{b}"


def behavior_from_csv(text: str) -> Behavior:
    """Parse the CSV written by ``behavior_to_csv``: all rows are converted in one ``np.loadtxt``."""
    lines = list(filter(None, text.strip().splitlines()))
    if not lines or lines[0].strip() != "x,y,a,b,p":
        raise ValueError("CSV header must be 'x,y,a,b,p'")
    rows = lines[1:]
    if not rows:
        raise ValueError("CSV has no data rows")
    records = _load_records(rows, _CSV_ROW, "CSV row")
    keys = np.stack([records["x"], records["y"], records["a"], records["b"]], axis=1)
    n = int(keys[:, 0].max())
    if n < 1:  # n is read from the largest setting x; with none, every row is out of range whatever n is
        raise ValueError(f"{_csv_row(*keys[0].tolist())} is out of range: settings start at 1")
    table = _fill_once((n, n, 2, 2), keys, (1, 1, 0, 0), records["p"], _csv_row)
    beh = Behavior(n=n, table=table)
    beh.validate()
    return beh


def behavior_to_json(beh: Behavior) -> str:
    blocks = [
        f'"{x},{y}": [[%.17g, %.17g], [%.17g, %.17g]]'
        for x, y in product(map(str, range(1, beh.n + 1)), repeat=2)
    ]
    return ('{"n": %d, "table": {' + ", ".join(blocks) + "}}") % (beh.n, *_entries(beh))


def _unique_keys(pairs: list) -> dict:
    """JSON object hook that rejects a key given twice instead of keeping the last."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r} in JSON object")
        obj[key] = value
    return obj


def behavior_from_json(text: str) -> Behavior:
    """Parse the JSON written by ``behavior_to_json``: all "x,y" keys are converted in one ``np.loadtxt``."""
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("behavior JSON is nested too deeply") from None
    if not (isinstance(obj, dict) and "n" in obj and isinstance(obj.get("table"), dict)):
        raise ValueError('behavior JSON must be an object with "n" and a "table" object')
    n = obj["n"]
    if type(n) is not int or n < 1:  # not a bool, a float such as 3.0 or a string
        raise ValueError(f'"n" must be a positive JSON integer, got {json.dumps(n)}')
    keys = list(obj["table"])
    try:
        blocks = np.array(list(obj["table"].values()), dtype=float)
    except (TypeError, ValueError, OverflowError):  # an object, a ragged block, or an int past float range
        blocks = None
    if blocks is None or blocks.shape != (len(keys), 2, 2):
        raise ValueError("every table block must be a 2x2 array")
    # The float conversion also reads "0.25", true and null (as nan): each entry must be an int or a float.
    entries = list(chain.from_iterable(chain.from_iterable(obj["table"].values())))
    if not set(map(type, entries)) <= {int, float}:
        bad = next(p for p in entries if type(p) not in (int, float))
        raise ValueError(f"table entries must be JSON numbers, got {json.dumps(bad)}")
    records = _load_records(keys, _JSON_KEY, "JSON key")
    pairs = np.stack([records["x"], records["y"]], axis=1)
    table = _fill_once((n, n, 2, 2), pairs, (1, 1), blocks, lambda x, y: f'block "{x},{y}"')
    beh = Behavior(n=n, table=table)
    beh.validate()
    return beh
