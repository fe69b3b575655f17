"""Game definition, Bell expression, behaviors and steering checks.

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

Computation
-----------
Each party's n observables are stacked into their (n, 2, 2, 2) outcome
projectors (``qmat.outcome_projectors``), and the behavior table is the
Born-rule table of Alice's stack against Bob's, one contraction on the 2x2
form of the state (``qmat.born_table``).  The steered states of all 2n
projectors come from one einsum on the (2, 2, 2, 2) form of the shared
density matrix.  No 4x4 Kronecker product is built on either path.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np

from .observables import ObservableFamily, assert_observable, check_n
from .qmat import EPS, I2, as_state, born_table, operator_norm, outcome_projectors, phi_plus, proj


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


@dataclass(frozen=True, eq=False)
class BellExpression:
    """Coefficient tensor with -1 on the diagonal and +1 off it."""

    n: int
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients)
        if c.shape != (self.n, self.n):
            raise ValueError("coefficient tensor must be n x n")
        if not np.all(np.abs(c) == 1):
            raise ValueError("coefficients must be +1 or -1")
        diag = np.diag(c)
        if not (np.all(diag == -1) and np.sum(c == -1) == self.n):
            raise ValueError("exactly the n diagonal entries must be -1")


def bell_expression(n: int) -> BellExpression:
    check_n(n)
    coeff = np.ones((n, n), dtype=int)
    np.fill_diagonal(coeff, -1)
    return BellExpression(n=n, coefficients=coeff)


@dataclass(frozen=True, eq=False)
class Behavior:
    """Joint probability table p(a, b | x, y), stored as table[x, y, a, b]."""

    n: int
    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table)
        if t.shape != (self.n, self.n, 2, 2):
            raise ValueError(f"table must have shape (n, n, 2, 2), got {t.shape}")

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
        alice = t.sum(axis=3)  # p(a|x, y)
        bob = t.sum(axis=2)  # p(b|x, y)
        d_alice = np.max(np.abs(alice - alice[:, :1, :]))
        d_bob = np.max(np.abs(bob - bob[:1, :, :]))
        return float(max(d_alice, d_bob))


@dataclass(frozen=True, eq=False)
class QuantumSetup:
    """Shared two-qubit pure state plus n dichotomic observables per party."""

    state: np.ndarray
    alice: tuple[np.ndarray, ...]
    bob: tuple[np.ndarray, ...]

    def __post_init__(self):
        as_state(self.state)
        if len(self.state) != 4:
            raise ValueError("state must be a two-qubit vector of dimension 4")
        if len(self.alice) != len(self.bob):
            raise ValueError("alice and bob must hold the same number of observables")
        assert_observable(self.alice)
        assert_observable(self.bob)

    @property
    def n(self) -> int:
        return len(self.alice)


def setup_from_family(fam: ObservableFamily) -> QuantumSetup:
    """Canonical optimal setup: family observables on the maximally entangled state."""
    return QuantumSetup(state=phi_plus(), alice=fam.alice, bob=fam.bob)


def behavior_from_setup(setup: QuantumSetup) -> Behavior:
    """Born-rule behavior p(a,b|x,y) = <psi| P_a^x (x) P_b^y |psi>, as one ``born_table``."""
    table = born_table(outcome_projectors(setup.alice), outcome_projectors(setup.bob), setup.state)
    beh = Behavior(n=setup.n, table=np.ascontiguousarray(table.transpose(0, 2, 1, 3)))
    beh.validate()
    return beh


def bell_value(expr: BellExpression, beh: Behavior) -> float:
    """sum_xy alpha_xy E_xy for matching sizes."""
    if expr.n != beh.n:
        raise ValueError(f"size mismatch: expression n={expr.n}, behavior n={beh.n}")
    t = beh.table
    correlators = t[..., 0, 0] - t[..., 0, 1] - t[..., 1, 0] + t[..., 1, 1]
    return float(np.sum(expr.coefficients * correlators))


def success_probability(expr: BellExpression, beh: Behavior) -> float:
    """Game success probability 1/2 + <B>/(2 n^2)."""
    n = expr.n
    return 0.5 + bell_value(expr, beh) / (2.0 * n * n)


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


@dataclass(frozen=True, eq=False)
class SteeredState:
    """Conditional state of Bob for one prepared-ensemble label (x, a)."""

    x: int  # 1-based setting
    a: int  # ensemble label in {0, 1}
    parity: int  # (x + a) mod 2; 0 is the even-parity ensemble
    rho: np.ndarray
    probability: float
    degenerate: bool = False


def steer(rho_ab: np.ndarray, alice: tuple[np.ndarray, ...]) -> list[SteeredState]:
    """Steered states of Bob for a shared density matrix.

    The label (x, a) maps to the projector with eigenvalue sign
    ``(-1)^(x+a)`` (see module docstring).  Branches of probability below
    ``EPS`` return the maximally mixed state flagged as degenerate instead of
    failing.
    """
    projectors = outcome_projectors(alice)
    # Bob's unnormalized states tr_A[(P (x) I) rho (P (x) I)] for all 2n projectors.
    unnorm = np.einsum("xoia,abcd,xoci->xobd", projectors, np.reshape(rho_ab, (2, 2, 2, 2)), projectors)
    probs = np.trace(unnorm, axis1=-2, axis2=-1).real
    out = []
    for x in range(1, len(alice) + 1):
        for a in (0, 1):
            parity = (x + a) % 2  # also the outcome index of the sign (-1)^(x+a)
            p = probs[x - 1, parity]
            if p < EPS:
                out.append(SteeredState(x, a, parity, I2 / 2.0, 0.0, degenerate=True))
                continue
            out.append(SteeredState(x, a, parity, unnorm[x - 1, parity] / p, float(p)))
    return out


def steered_states(setup: QuantumSetup) -> list[SteeredState]:
    """Steered states for a pure-state setup (2n entries, one per label)."""
    return steer(proj(setup.state), setup.alice)


def check_operational_parity(states: list[SteeredState]) -> float:
    """Spectral norm of (sum of even-parity states) - (sum of odd-parity states)."""
    dim = states[0].rho.shape[0]
    diff = np.zeros((dim, dim), dtype=complex)
    for s in states:
        diff += s.rho if s.parity == 0 else -s.rho
    return operator_norm(diff)


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
    Otherwise loadtxt's conversion error stands.
    """
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


def _fill_once(shape: tuple[int, ...], index: np.ndarray, values: np.ndarray, label) -> np.ndarray:
    """Table of ``shape`` with ``values`` placed at ``index``, built only once every entry is found.

    ``index`` holds one row of 0-based indices into the leading axes of
    ``shape`` per value.  Every keyed entry must be given exactly once; the
    error names the first out-of-range entry, or else the first duplicate or
    missing one in row-major order, formatted by ``label(*indices)``.  Every
    step takes memory in proportion to the input, not to ``shape``: the
    table is counted and filled only when the input has one row per keyed
    entry, and otherwise ``_first_gap`` names the entry at fault.
    """
    keyed = shape[: index.shape[1]]
    outside = np.any((index < 0) | (index >= np.array(keyed)), axis=1)
    if np.any(outside):
        raise ValueError(f"{label(*index[np.argmax(outside)])} is out of range for n={shape[0]}")
    if len(index) == math.prod(keyed):
        flat = np.ravel_multi_index(tuple(index.T), keyed)
        if np.all(np.bincount(flat, minlength=len(index)) == 1):
            table = np.empty(shape)
            table.reshape((-1,) + shape[index.shape[1] :])[flat] = values
            return table
    kind, where = _first_gap(index, keyed)
    raise ValueError(f"{kind} {label(*where)}: every entry must appear exactly once")


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


def behavior_from_csv(text: str) -> Behavior:
    """Parse the CSV written by ``behavior_to_csv``: all rows are converted in one ``np.loadtxt``."""
    lines = list(filter(None, text.strip().splitlines()))
    if not lines or lines[0].strip() != "x,y,a,b,p":
        raise ValueError("CSV header must be 'x,y,a,b,p'")
    rows = lines[1:]
    if not rows:
        raise ValueError("CSV has no data rows")
    records = _load_records(rows, _CSV_ROW, "CSV row")
    index = np.stack([records["x"] - 1, records["y"] - 1, records["a"], records["b"]], axis=1)
    n = int(index[:, 0].max()) + 1
    table = _fill_once(
        (n, n, 2, 2),
        index,
        records["p"],
        lambda x, y, a, b: f"row {x + 1},{y + 1},{a},{b}",
    )
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
    obj = json.loads(text, object_pairs_hook=_unique_keys)
    n = obj["n"]
    if type(n) is not int or n < 1:  # not a bool, a float such as 3.0 or a string
        raise ValueError(f'"n" must be a positive JSON integer, got {json.dumps(n)}')
    keys = list(obj["table"])
    blocks = np.array(list(obj["table"].values()), dtype=float)
    if blocks.shape != (len(keys), 2, 2):
        raise ValueError("every table block must be a 2x2 array")
    records = _load_records(keys, _JSON_KEY, "JSON key")
    index = np.stack([records["x"] - 1, records["y"] - 1], axis=1)
    table = _fill_once((n, n, 2, 2), index, blocks, lambda x, y: f'block "{x + 1},{y + 1}"')
    beh = Behavior(n=n, table=table)
    beh.validate()
    return beh
