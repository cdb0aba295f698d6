"""Shared helpers for the test suite, the definition-level references
(``alpha_it``, ``bundle_value``, ``mms_labeled_reference``,
``load_instance_reference``, ``instance_from_rows_reference``,
``instance_to_json_reference``, the ``Fraction`` allocators
``REF_ALLOCATORS``, the ``Fraction`` greedy3 schedule
``RefGreedy3Adversary`` and ``RefListRobustified``, the robust rule that
builds its weight lists for every good) that the fast library paths are checked against, and
the paper's formulas that only tests use (``robust_beta``,
``check_predictions``, ``running_values``)."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

from fairdiv import (
    INF,
    Allocation,
    DomainError,
    Greedy3Adversary,
    Instance,
    InvariantError,
    ParseError,
    PredictionContractError,
    RobustifiedAllocator,
    instance_from_rows,
    parse_rational,
)
from fairdiv.core import _as_int, _dumps, _reading, format_rational


def robust_beta(alpha: Fraction, epsilon: Fraction, n: int) -> Fraction:
    """PROP1 factor preserved under one-sided prediction error epsilon."""
    if not 0 <= epsilon < 1:
        raise DomainError(f"one-sided error {epsilon} must lie in [0, 1)")
    return alpha * (1 - epsilon) / (1 - alpha * epsilon / n)


def check_predictions(inst: Instance, pred) -> bool:
    """The MIV prediction contract by definition: True iff every agent's
    largest single-good value lies in [(1 - eps) p_i, p_i]."""
    if pred.n != inst.n:
        raise DomainError(f"predictions cover {pred.n} agents, instance has {inst.n}")
    low = 1 - pred.epsilon
    return all(low * p <= max(row, default=Fraction(0)) <= p for p, row in zip(pred.p, inst.values))


def random_instance(
    rng: random.Random,
    n: int,
    m: int,
    max_denominator: int = 10,
    force_unit_max: bool = False,
) -> Instance:
    """Random instance with values in [0, 1] and small denominators.

    With ``force_unit_max`` every agent gets at least one good of value
    exactly 1 (the perfect-predictions shape).
    """
    rows = []
    for _ in range(n):
        d = rng.randint(1, max_denominator)
        row = [Fraction(rng.randint(0, d), d) for _ in range(m)]
        if force_unit_max and m > 0:
            row[rng.randrange(m)] = Fraction(1)
        rows.append(row)
    return instance_from_rows(rows)


def load_instance_reference(path: str) -> Instance:
    """``load_instance`` by definition: every cell through ``parse_rational``
    in file order, then ``instance_from_rows``' checks of each cell and of
    the shape, then the declared n and m."""
    with _reading(path, "values") as data:
        if not all(isinstance(r, list) for r in data["values"]):
            raise ParseError("'values' must be a list of rows")
        inst = instance_from_rows([[parse_rational(c) for c in row] for row in data["values"]])
        if "n" in data and _as_int(data["n"], "n") != inst.n:
            raise ParseError(f"declared n={data['n']} but {inst.n} rows present")
        if "m" in data and _as_int(data["m"], "m") != inst.m:
            raise ParseError(f"declared m={data['m']} but rows have {inst.m} columns")
        return inst


def instance_from_rows_reference(rows) -> tuple[tuple[Fraction, ...], ...]:
    """``instance_from_rows`` by definition, in passes: every int (a bool
    too) becomes a Fraction; then each cell in row order must be a
    Fraction >= 0; then there must be at least 2 rows, none ragged.
    Returns the value rows."""
    rows = [[Fraction(v) if isinstance(v, int) else v for v in row] for row in rows]
    for row in rows:
        for v in row:
            if not isinstance(v, Fraction):
                raise ParseError(f"non-exact valuation {v!r}")
            if v < 0:
                raise ParseError(f"negative valuation {v}")
    if len(rows) < 2:
        raise DomainError("an instance needs at least 2 agents")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ParseError("ragged valuation matrix")
    return tuple(map(tuple, rows))


def instance_to_json_reference(inst: Instance) -> str:
    """``instance_to_json`` by definition: every value of ``inst.values``
    written by ``format_rational``."""
    return _dumps({"n": inst.n, "m": inst.m,
                   "values": [[format_rational(v) for v in row] for row in inst.values]})


def all_allocations(n: int, m: int):
    """Every complete allocation of m goods to n agents."""
    for owners in product(range(1, n + 1), repeat=m):
        yield Allocation(owners)


def value(inst: Instance, agent: int, good: int) -> Fraction:
    """v_agent(good), both indices 1-based."""
    return inst.values[agent - 1][good - 1]


def total_value(inst: Instance, agent: int) -> Fraction:
    """v_i(G), the agent's value for all goods."""
    return sum(inst.values[agent - 1], Fraction(0))


def bundle(alloc: Allocation, agent: int) -> tuple[int, ...]:
    """1-based indices of the goods held by ``agent``."""
    return tuple(t + 1 for t, o in enumerate(alloc.owner) if o == agent)


def bundle_value(inst: Instance, agent: int, goods) -> Fraction:
    """Exact value of a set of goods to one agent (additive valuations)."""
    return sum((value(inst, agent, g) for g in goods), Fraction(0))


def alpha_it(inst: Instance, owner, agent: int, t: int):
    """The running PROP1 value of ``agent`` once goods 1..t are allocated.

    Returns (v_i(A_i) + c_i) / v_i(G_t), where c_i is the value of the most
    valuable arrived good the agent does not hold (0 if none), and G_t the
    first t goods.  ``INF`` when the agent values all arrived goods at zero.
    """
    row = inst.values[agent - 1]
    held = Fraction(0)
    outside = Fraction(0)
    total = Fraction(0)
    for k in range(t):
        v = row[k]
        total += v
        if owner[k] == agent:
            held += v
        elif v > outside:
            outside = v
    if total == 0:
        return INF
    return (held + outside) / total


def trace_fields(trace) -> tuple:
    """A run's recorder as a tuple of its five fields (instance, owners, the
    two weight tables and the potential snapshot), so two runs compare equal
    exactly when they recorded the same."""
    return (trace.instance, tuple(trace.owners), tuple(map(tuple, trace.alpha_num)),
            tuple(map(tuple, trace.alpha_den)), trace.potential)


def running_values(trace) -> tuple[tuple, ...]:
    """A trace's running PROP1 values, per agent and good, as exact numbers
    (``INF`` where the agent's total is 0)."""
    return tuple(
        tuple(INF if q == 0 else Fraction(p, q) for p, q in zip(nums, dens))
        for nums, dens in zip(trace.alpha_num, trace.alpha_den)
    )


def mms_labeled_reference(inst: Instance, agent: int) -> Fraction:
    """The agent's maximin share by enumerating labeled n-partitions over a
    table of all 2^m subset values, with branch-and-bound pruning."""
    n, m = inst.n, inst.m
    if m == 0:
        return Fraction(0)
    row = inst.values[agent - 1]
    full = (1 << m) - 1
    sums = [Fraction(0)] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + row[low.bit_length() - 1]

    best = Fraction(-1)

    def fill(parts_left: int, mask: int, cur_min: Fraction) -> None:
        nonlocal best
        if parts_left == 1:
            best = max(best, min(cur_min, sums[mask]))
            return
        sub = mask
        while True:
            value = min(cur_min, sums[sub])
            if value > best:
                fill(parts_left - 1, mask ^ sub, value)
            if sub == 0:
                break
            sub = (sub - 1) & mask

    # relabeling parts never changes the min, so good 1 is pinned to part 1
    rest = full & ~1
    sub = rest
    while True:
        first = sub | 1
        if sums[first] > best:
            fill(n - 1, full ^ first, sums[first])
        if sub == 0:
            break
        sub = (sub - 1) & rest
    return best


# ---------------------------------------------------------------------------
# The online rules in Fraction arithmetic, straight from their definitions:
# the reference for the integer-weight state of ``fairdiv.algorithms``.
# ---------------------------------------------------------------------------


class RefProp1State:
    """Each agent's arrived total, bundle value and best outside value as Fractions."""

    def __init__(self, n):
        self.n = n
        self.t = 0
        self.total = [Fraction(0)] * n
        self.bundle = [Fraction(0)] * n
        self.best_outside = [Fraction(0)] * n

    def arrive(self, col):
        self.t += 1
        for i in range(self.n):
            self.total[i] += col[i]

    def assign(self, col, owner):
        for i in range(self.n):
            if i == owner - 1:
                self.bundle[i] += col[i]
            elif col[i] > self.best_outside[i]:
                self.best_outside[i] = col[i]

    def value(self, i):
        if self.total[i] == 0:
            return INF
        return (self.bundle[i] + self.best_outside[i]) / self.total[i]


class RefAllocator:
    """Validate, arrive, choose the first agent with the smallest ``_score``, assign."""

    potential_log = None

    def __init__(self, n):
        self.n = n
        self.state = RefProp1State(n)
        self.total, self.bundle, self.best_outside = (
            self.state.total, self.state.bundle, self.state.best_outside
        )

    def observe(self, column):
        return self._place(self._validate(column))

    def _place(self, col):
        self.state.arrive(col)
        chosen = self._choose(col)
        self.state.assign(col, chosen)
        return chosen

    def _validate(self, column):
        if len(column) != self.n:
            raise DomainError(f"column has {len(column)} entries, expected {self.n}")
        out = []
        for v in column:
            if not isinstance(v, (int, Fraction)):  # instance_from_rows' cell rule
                raise DomainError(f"non-exact valuation {v!r}")
            f = Fraction(v)
            if f < 0:
                raise DomainError(f"negative valuation {f}")
            out.append(f)
        return out

    def _choose(self, col):
        scores = [self._score(i, col) for i in range(self.n)]
        return scores.index(min(scores)) + 1


class RefGreedy1(RefAllocator):
    def _score(self, i, col):
        return Fraction(0) if self.total[i] == 0 else -col[i] / self.total[i]


class RefGreedy2(RefAllocator):
    def _score(self, i, col):
        return INF if self.total[i] == 0 else self.bundle[i] / self.total[i]


class RefGreedy3(RefAllocator):
    def _score(self, i, col):
        if self.total[i] == 0:
            return INF
        return (self.bundle[i] + max(self.best_outside[i], col[i])) / self.total[i]


class RefRand(RefAllocator):
    def __init__(self, n, seed):
        super().__init__(n)
        self._rng = random.Random(seed)

    def _choose(self, col):
        return self._rng.randrange(self.n) + 1


class RefMiv(RefAllocator):
    """The MIV rule on D = n^2+n+1 + n^2 H - T as a Fraction per agent."""

    def __init__(self, n):
        super().__init__(n)
        self.first_max_at = [None] * n
        self.D = [Fraction(n * n + n)] * n
        self.phi = [Fraction(1, n * n + n)] * n
        self.potential = Fraction(1, n + 1)
        self.potential_log = [self.potential]

    def _validate(self, column):
        col = super()._validate(column)
        for i, v in enumerate(col):
            if v > 1:
                raise PredictionContractError(f"valuation {v} of agent {i + 1} exceeds its predicted maximum 1")
        return col

    def _choose(self, col):
        n2, t, D = self.n * self.n, self.state.t, self.D
        best, best_c, best_drop = 0, 0, Fraction(0)
        for i, v in enumerate(col):
            if v == 1 and self.first_max_at[i] is None:
                self.first_max_at[i] = t
                v = 0
            elif v:
                D[i] -= v
            if D[i] <= 0:
                raise InvariantError(f"non-positive potential denominator {D[i]} at t={t}")
            if v:
                drop = v / (D[i] * (D[i] + n2 * v))
                if drop > best_drop:
                    best, best_c, best_drop = i, v, drop
        if best_c:
            D[best] += n2 * best_c
        phi = [1 / d for d in D]
        potential = sum(phi)
        if potential > self.potential:
            raise InvariantError(f"potential increased at t={t}: {potential} > {self.potential}")
        for i, d in enumerate(D):
            if d < self.n + 1:
                raise InvariantError(f"x + y below 1/n^2 for agent {i + 1} at t={t}")
        self.phi = phi
        self.potential = potential
        self.potential_log.append(potential)
        return best + 1


class RefRobustified(RefAllocator):
    """Divide by the predictions, override each agent's first value at least
    1 - epsilon to 1, and hand the column to the inner rule."""

    def __init__(self, inner, predictions):
        super().__init__(inner.n)
        self.inner = inner
        self.potential_log = inner.potential_log
        self.predictions = predictions
        self._overridden = [False] * inner.n
        self.override_log = []

    def _validate(self, column):
        col = super()._validate(column)
        for i, (v, p) in enumerate(zip(col, self.predictions.p)):
            if v > p:
                raise PredictionContractError(
                    f"valuation {v} of agent {i + 1} exceeds its predicted maximum {p}"
                )
        return col

    def _choose(self, col):
        norm = [col[i] / self.predictions.p[i] for i in range(self.n)]
        for i in range(self.n):
            if not self._overridden[i] and norm[i] >= 1 - self.predictions.epsilon:
                self._overridden[i] = True
                self.override_log.append((i + 1, self.state.t, norm[i]))
                norm[i] = Fraction(1)
        return self.inner._place(norm)


class RefListRobustified(RobustifiedAllocator):
    """The robust rule as it was before its all-ones shortcut: every good
    hands ``_step`` new lists of the weights w b_i and the scales L_i a_i
    under each prediction a_i/b_i, also where every prediction is 1."""

    def _choose(self, col):
        s, caps = self.state, self._caps
        return self._step([w * b for w, (_, b) in zip(s.col_w, caps)],
                          [L * a for L, (a, _) in zip(s.scale, caps)])


REF_ALLOCATORS = {
    "greedy1": RefGreedy1,
    "greedy2": RefGreedy2,
    "greedy3": RefGreedy3,
    "rand": RefRand,
    "miv": RefMiv,
}


class RefGreedy3Adversary(Greedy3Adversary):
    """The greedy3 schedule in ``Fraction`` arithmetic, as the construction
    states it: running values, the closed-form run length and every check
    are Fractions read off the mirror."""

    def _schedule(self):
        n, mirror = self.n, self._mirror
        value, scale = mirror.value, mirror.scale
        held, c, total = mirror.held_w, mirror.best_w, mirror.total_w
        pad = [Fraction(0)] * (n - 2)
        yield from self._emit([Fraction(1)] * n, 1)
        yield from self._emit([Fraction(1), Fraction(1)] + pad, 2)
        yield from self._emit([Fraction(1), Fraction(1)] + pad, 1)
        opening = (mirror.values(c)[:2], mirror.values(total)[:2])
        if (value(0), value(1), *opening) != (1, Fraction(2, 3), [1, 1], [3, 3]):
            raise InvariantError("opening state diverged from the construction")
        lam = max(Fraction(held[0], c[0]), Fraction(held[1], c[1]))
        if lam != self.OPENING_LAMBDA:
            raise InvariantError(f"opening bundle/c ratio {lam} differs from 2")
        cert_rhs = Fraction(3, 2)
        i = 1
        while True:
            j = 1 - i
            old_min = value(i)
            ratio = Fraction(2 * total[j], c[j]) * (value(j) / old_min - 1)
            emitted = math.ceil(ratio) - 1
            if emitted > 0:
                col = [Fraction(0)] * n
                col[j] = Fraction(c[j], 2 * scale[j])
                yield from self._emit(col, i + 1, copies=emitted)
            p, q = old_min.numerator, old_min.denominator
            lhs = 2 * (held[j] + c[j]) * q
            if lhs > p * (2 * total[j] + c[j]) or emitted and not lhs > 2 * p * total[j]:
                raise InvariantError(f"equalization of {emitted} goods stops off its boundary")
            owner = yield from self._emit(mirror.values(c)[:2] + pad, 1, 2)
            i = 2 - owner
            new_min = value(i)
            if not new_min < old_min:
                raise InvariantError("strike failed to lower the running minimum strictly")
            if not all(new_min < value(r) for r in range(n) if r != i):
                raise InvariantError("post-strike minimum is not strict over all agents")
            self.cycles += 1
            cert_rhs += Fraction(1, 2 * (self.cycles + self.OPENING_LAMBDA))
            if not 1 / new_min >= cert_rhs:
                raise InvariantError(
                    f"harmonic certificate failed at cycle {self.cycles}: "
                    f"1/a_min ~ {float(1 / new_min):.9g} < {float(cert_rhs):.9g}"
                )
            if n * new_min < self.target_alpha:
                self.target_reached = True
                return
