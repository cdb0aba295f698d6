"""Online allocation rules behind one streaming interface.

An allocator consumes value columns (one per arriving good, in order) through
``observe`` and returns the 1-based index of the agent that irrevocably
receives the good; a run of equal goods can go in as one call.  Decisions
depend only on the columns seen so far and the allocator's own prior
choices.  Greedy rules pick the lowest score, ties
toward the lowest agent index; an agent whose total arrived value is zero
scores 0 under the max-value rule (which scores the negated ratio) and
vacuously-satisfied (infinite) under the min-ratio rules.

Past ``observe`` a cell is a pair (p, q) of ints, as an ``Instance`` holds it;
running state is integers over each agent's scale L_i (``Prop1State``), MIV's
D_i as N_i = D_i L_i a_i under a prediction a_i/b_i (1 for plain MIV);
Fractions are built only where a value leaves it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .core import Allocation, Instance, Predictions
from .errors import DomainError, InvariantError, PredictionContractError
from .metrics import Prop1State


class OnlineAllocator:
    """Base streaming allocator with the bookkeeping every rule needs.

    ``state`` tracks, per agent, the total arrived value, the bundle value
    and the value of the best good the agent does not hold, as integer
    weights over the agent's scale L_i (``Prop1State``); ``total``,
    ``bundle`` and ``best_outside`` read them as exact values.  Subclasses
    implement ``_choose`` (totals already include the arriving good;
    bundles do not yet), the greedy rules through ``GreedyAllocator``.
    ``potential_log`` is the summed potential after each good for
    potential-based rules, None otherwise.  ``_validate``, every rule's one
    column check, hands on pairs; a rule's prediction contract is data: ``_caps``.
    """

    potential_log: list[Fraction] | None = None
    #: each agent's largest allowed value as a pair (p, q); None for no cap
    _caps: list[tuple[int, int]] | None = None

    def __init__(self, n: int):
        if n < 2:
            raise DomainError("need at least 2 agents")
        self.n = n
        self.state = Prop1State(n)

    total = property(lambda self: self.state.values(self.state.total_w))
    bundle = property(lambda self: self.state.values(self.state.held_w))
    best_outside = property(lambda self: self.state.values(self.state.best_w))

    def observe(self, column: Sequence[Fraction | int | tuple[int, int]], copies: int = 1) -> int:
        """Place the good ``column`` and return its owner.

        ``copies`` > 1 makes the good the first of that many equal goods in
        a row.  Where one step settles them all (``_settle_run``; only the
        greedy rules do) every copy goes to the returned owner; otherwise
        only the first is placed.  ``state.t`` counts the goods placed, and
        ``TraceRecorder.place`` places the rest of a run.
        """
        col = self._validate(column)
        owner = self._place(col)
        if copies > 1:
            self._settle_run(col, owner, copies)
        return owner

    def _settle_run(self, col: Sequence[tuple[int, int]], owner: int, copies: int) -> None:
        """Give the other ``copies - 1`` copies of the placed ``col`` to
        ``owner`` where one step settles them; here none are."""

    def _place(self, col: Sequence[tuple[int, int]]) -> int:
        """Place a validated column of pairs: arrive, choose, assign."""
        self.state.arrive(col)
        chosen = self._choose(col)
        self.state.assign(chosen)
        return chosen

    def _validate(self, column: Sequence[Fraction | int | tuple[int, int]]) -> list[tuple[int, int]]:
        """The column as pairs, after checking the length, each cell (an int or
        Fraction not negative, as ``instance_from_rows`` has it, or two ints p
        >= 0 and q > 0, reduced or not) and each value against its cap."""
        if len(column) != self.n:
            raise DomainError(f"column has {len(column)} entries, expected {self.n}")
        col = []
        for c in column:
            if type(c) is not tuple:
                if not (type(c) is Fraction or isinstance(c, (int, Fraction))):  # Fraction's ABCMeta is slow
                    raise DomainError(f"non-exact valuation {c!r}")
                if c.numerator < 0:
                    raise DomainError(f"negative valuation {c}")
                c = c.numerator, c.denominator
            elif not (len(c) == 2 and isinstance(c[0], int) and isinstance(c[1], int) and c[0] >= 0 < c[1]):
                raise DomainError(f"non-exact valuation {c!r}")
            col.append(c)
        if self._caps is not None:
            for i, ((v, d), (p, q)) in enumerate(zip(col, self._caps)):
                if v * q > p * d:
                    raise PredictionContractError(f"valuation {Fraction(v, d)} of agent {i + 1} "
                                                  f"exceeds its predicted maximum {Fraction(p, q)}")
        return col


class GreedyAllocator(OnlineAllocator):
    """A rule that gives each good to the first agent with the smallest score.

    ``_score(total, held, outside, w)`` reads one agent's weights (arrived
    total, bundle, best outside good, the arriving good) and returns a pair
    (p, q), the ratio p/q, so L_i cancels; q = 0 with p = 1 is plus
    infinity.  ``_argmin`` compares scores by integer cross-multiplication.

    A run of k equal goods is settled in one step.  Copy 1 goes to its
    owner o for real; copy k is then decided as if copies 1..k-1 had gone
    to o.  If o wins copy k too, o wins every copy between, so all k go to
    o; otherwise the copies are placed one at a time.  Proof: when copy s
    (1 <= s <= k) is decided, agent i's total is T_i + s w_i and o's bundle
    has grown by (s-1) w_o, while every other score numerator stays put
    (greedy1's -w, a rival's bundle, and the max(best outside, w) that
    greedy3 counts).  So o's score against a rival j's, cross-multiplied as
    ``_argmin`` compares them, is a polynomial in s whose s^2 coefficient
    is w_o w_j >= 0 (for greedy1 s cancels out of it).  A convex polynomial
    that is negative at s = 1 and s = k (at most 0, for a rival of higher
    index) stays so in between, so o wins every copy.  A total of 0 stays
    0 along the run, so an infinite score stays infinite.
    """

    def _choose(self, col: Sequence[tuple[int, int]]) -> int:
        s = self.state
        return self._argmin(s.total_w, s.held_w, s.best_w, s.col_w)

    def _argmin(self, total, held, outside, w) -> int:
        """The first agent with the smallest score, 1-based."""
        score = self._score
        best, (best_p, best_q) = 0, score(total[0], held[0], outside[0], w[0])
        for i in range(1, self.n):
            p, q = score(total[i], held[i], outside[i], w[i])
            if p * best_q < best_p * q:
                best, best_p, best_q = i, p, q
        return best + 1

    def _settle_run(self, col: Sequence[tuple[int, int]], owner: int, copies: int) -> None:
        s, o = self.state, owner - 1
        w = s.col_w
        total = [t + (copies - 1) * x for t, x in zip(s.total_w, w)]
        held = s.held_w.copy()
        held[o] += (copies - 2) * w[o]
        if self._argmin(total, held, s.best_w, w) == owner:
            s.arrive(col, copies - 1)
            s.assign(owner, copies - 1)


class Greedy1Allocator(GreedyAllocator):
    """Give the good to the agent valuing it most relative to their arrived total."""

    @staticmethod
    def _score(total: int, held: int, outside: int, w: int) -> tuple[int, int]:
        return (-w, total) if total else (0, 1)


class Greedy2Allocator(GreedyAllocator):
    """Give the good to the currently least satisfied agent (lowest bundle share)."""

    @staticmethod
    def _score(total: int, held: int, outside: int, w: int) -> tuple[int, int]:
        return (held, total) if total else (1, 0)


class Greedy3Allocator(GreedyAllocator):
    """Give the good to the agent who would be most unsatisfied without it.

    The score counts the agent's bundle plus the best good they could still
    be "owed" (the max of their best outside good and the arriving one)
    against their arrived total.
    """

    @staticmethod
    def _score(total: int, held: int, outside: int, w: int) -> tuple[int, int]:
        if not total:
            return 1, 0
        return held + (outside if outside > w else w), total


class RandAllocator(OnlineAllocator):
    """Allocate every good uniformly at random; deterministic given the seed."""

    def __init__(self, n: int, seed: int):
        super().__init__(n)
        self._rng = random.Random(seed)

    def _choose(self, col: Sequence[tuple[int, int]]) -> int:
        return self._rng.randrange(self.n) + 1


class MivAllocator(OnlineAllocator):
    """Potential-minimizing allocator for maximum-item-value (MIV) predictions.

    Plain MIV predicts each agent's maximum single-good value as exactly 1,
    its cap; a run met that contract exactly when every ``seen_max`` flag is
    set.  Agent i's potential term x / ((n^2+n+1) x + n^2 y - 1), with
    x = 1/T and y = H/T, is 1/D for D = n^2+n+1 + n^2 H - T: T is the
    arrived total, padded by 1 until the agent's first max good, and H the
    held value without that good.  D starts at n^2+n and is kept as the
    integer N = D S over the agent's scale S (a row of ``state.rows``, so it
    rescales with S), which makes the term phi = S/N; for plain MIV S is
    the state's L.  A good of weight w (value c = w/S) lowers N by w and
    would add c to H; an agent's first max, its first good with
    c >= 1 - epsilon (``_first_max``; epsilon is 0 here, so with the cap
    that is c = 1), only replaces the padding (N stays, c = 0).  Giving it to agent j lowers the summed
    potential by n^2 c_j / (D_j (D_j + n^2 c_j)), which is n^2 times
    w_j S_j / (N_j (N_j + n^2 w_j)); the largest drop wins, compared by
    cross-multiplying, ties to the lowest index.  Then N_j += n^2 w_j.
    Each step asserts three exact invariants (``InvariantError``): every
    N_i > 0, which the comparison needs; the summed potential
    (``potential``, the sum of the terms in ``phi``, built as one
    cross-multiplied sum and reduced once) never rises from its start
    1/(n+1); and D_i >= n+1, that is N_i >= (n+1) S_i, which is
    x + y >= 1/n^2, as n^2 (1 + H) - T = D - (n+1).  With consistent state
    the potential bound already gives every D_i > n+1; the last check still
    catches a broken one.
    """

    #: the first-max threshold 1 - epsilon as a pair (num, den)
    _first_max = (1, 1)

    def __init__(self, n: int):
        super().__init__(n)
        self.seen_max = [False] * n  # whether each agent's first max good has arrived
        self._caps = [(1, 1)] * n
        self.N = [n * n + n] * n
        self.state.rows.append(self.N)
        self.potential = Fraction(1, n + 1)
        self.potential_log: list[Fraction] = [self.potential]

    phi = property(lambda self: [
        Fraction(L * a, N) for L, (a, _), N in zip(self.state.scale, self._caps, self.N)
    ])

    def _choose(self, col: Sequence[tuple[int, int]]) -> int:
        return self._step(self.state.col_w, self.state.scale)

    def _step(self, col_w: Sequence[int], scale: Sequence[int]) -> int:
        """Place the good of weights ``col_w`` over the scales S = ``scale``."""
        n, t, N, seen_max = self.n, self.state.t, self.N, self.seen_max
        first_num, first_den = self._first_max
        # the agent with the largest w S / (N (N + n^2 w)) so far, w its gain to H
        best, best_w, best_num, best_den = 0, 0, 0, 1
        for i, w in enumerate(col_w):
            if not seen_max[i] and w * first_den >= first_num * scale[i]:
                seen_max[i] = True
                w = 0
            elif w:
                N[i] -= w
            if N[i] <= 0:
                raise InvariantError(
                    f"non-positive potential denominator {Fraction(N[i], scale[i])} at t={t}"
                )
            if w:
                num, den = w * scale[i], N[i] * (N[i] + n * n * w)
                if num * best_den > best_num * den:
                    best, best_w, best_num, best_den = i, w, num, den
        if best_w:
            N[best] += n * n * best_w
        # the summed potential sum_i S_i / N_i over one common denominator
        num, den = 0, 1
        for scale_i, N_i in zip(scale, N):
            num, den = num * N_i + scale_i * den, den * N_i
        if num * self.potential.denominator > self.potential.numerator * den:
            raise InvariantError(
                f"potential increased at t={t}: {Fraction(num, den)} > {self.potential}"
            )
        for i in range(n):
            if N[i] < (n + 1) * scale[i]:  # D >= n+1
                raise InvariantError(f"x + y below 1/n^2 for agent {i + 1} at t={t}")
        self.potential = Fraction(num, den)
        self.potential_log.append(self.potential)
        return best + 1


class RobustifiedAllocator(MivAllocator):
    """MIV under predictions p_i with one-sided error epsilon.

    Agent i's cap is its prediction p_i = a/b, so a raw value above it
    breaks the contract and ``_validate`` raises ``PredictionContractError``.
    ``state`` keeps the raw values; MIV reads agent i's value over p_i, the
    weight w b over the scale S_i = L_i a, so N_i starts at (n^2+n) a, and
    its first max is the first good worth at least (1 - epsilon) p_i.  So
    agent i's contract holds exactly when ``seen_max[i]`` is set.  If MIV
    guarantees alpha-PROP1 under perfect predictions, this rule guarantees
    beta-PROP1 under the raw valuations with
    beta = alpha (1 - eps) / (1 - alpha eps / n).
    """

    def __init__(self, n: int, predictions: Predictions):
        super().__init__(n)
        if n != predictions.n:
            raise DomainError(f"allocator handles {n} agents, predictions cover {predictions.n}")
        self._caps = [(p.numerator, p.denominator) for p in predictions.p]
        self._first_max = (1 - predictions.epsilon).as_integer_ratio()
        self._unit = set(self._caps) == {(1, 1)}
        for i, (a, _) in enumerate(self._caps):
            self.N[i] *= a

    # bound in the class body, so perfbench/tracer.py can wrap it per class
    observe = OnlineAllocator.observe

    def _choose(self, col: Sequence[tuple[int, int]]) -> int:
        s, caps = self.state, self._caps
        if self._unit:  # every prediction is 1: MIV's own weights and scales
            return self._step(s.col_w, s.scale)
        return self._step([w * b for w, (_, b) in zip(s.col_w, caps)],
                          [L * a for L, (a, _) in zip(s.scale, caps)])


#: The one registry of rule names, shared by the CLI and the campaign harness.
ALLOCATORS: dict[str, type[OnlineAllocator]] = {
    "greedy1": Greedy1Allocator,
    "greedy2": Greedy2Allocator,
    "greedy3": Greedy3Allocator,
    "rand": RandAllocator,
    "miv": MivAllocator,
}


def make_allocator(name: str, n: int, seed: int | None = None) -> OnlineAllocator:
    """Build the named rule for n agents; ``rand`` needs a seed."""
    if not isinstance(name, str) or name not in ALLOCATORS:
        raise DomainError(f"unknown allocator {name!r}; choose from {', '.join(ALLOCATORS)}")
    if name != "rand":
        return ALLOCATORS[name](n)
    if seed is None:
        raise DomainError("allocator 'rand' needs a seed")
    return RandAllocator(n, seed)


# ---------------------------------------------------------------------------
# Running an allocator over an instance
# ---------------------------------------------------------------------------


class TraceRecorder:
    """A run's record, filled as the run goes: its owners and, per good and
    agent, the running PROP1 value as a pair of integer weights, read from
    the allocator's state right after it placed the good.

    Agent i+1's value after good t is
    ``alpha_num[i][t-1] / alpha_den[i][t-1]`` (bundle plus best outside
    good, over arrived total; ``INF`` where the total is 0), always against
    the original valuations, also under predictions.  ``run`` and
    ``run_adaptive`` return the recorder they filled, with ``instance`` the
    goods it saw and ``potential`` a snapshot of the summed potential after
    each t (from t = 0) for potential-based rules, None otherwise.

    Along a run of k equal goods given to one owner, every agent's total
    grows by its weight w of the good per copy, and so does the owner's
    bundle, while the others' bundles and best outside goods stay as copy 1
    left them.  So ``record`` reads a whole run off the state after its
    last copy, as ranges with step w.
    """

    instance: Instance | None = None
    potential: tuple[Fraction, ...] | None = None

    def __init__(self, state: Prop1State):
        self.state = state
        self.owners: list[int] = []
        self.alpha_num: list[list[int]] = [[] for _ in range(state.n)]
        self.alpha_den: list[list[int]] = [[] for _ in range(state.n)]

    allocation = property(lambda self: Allocation(tuple(self.owners)))

    def record(self, owner: int, copies: int = 1) -> None:
        """Record the last ``copies`` goods placed, all given to ``owner``."""
        s, nums, dens = self.state, self.alpha_num, self.alpha_den
        if copies == 1:
            self.owners.append(owner)
            for num, den, held, best, total in zip(nums, dens, s.held_w, s.best_w, s.total_w):
                num.append(held + best)
                den.append(total)
            return
        self.owners += [owner] * copies
        for i, w in enumerate(s.col_w):
            num, total = s.held_w[i] + s.best_w[i], s.total_w[i]
            dens[i] += range(total - (copies - 1) * w, total + 1, w) if w else [total] * copies
            if w and i == owner - 1:
                nums[i] += range(num - (copies - 1) * w, num + 1, w)
            else:
                nums[i] += [num] * copies

    def place(self, allocator, column: Sequence[Fraction | int], copies: int) -> None:
        """Place ``copies`` equal goods ``column`` with ``allocator`` and record
        them: in one step where the rule settles the run, else one by one."""
        state = self.state
        while copies:
            t = state.t
            owner = allocator.observe(column, copies)
            self.record(owner, state.t - t)
            copies -= state.t - t


def run(allocator, inst: Instance) -> TraceRecorder:
    """Feed the instance's columns through an allocator; return the filled recorder."""
    if allocator.n != inst.n:
        raise DomainError(f"allocator handles {allocator.n} agents, instance has {inst.n}")
    recorder = TraceRecorder(allocator.state)
    for column in inst.columns():
        recorder.record(allocator.observe(column))
    recorder.instance = inst
    recorder.potential = None if allocator.potential_log is None else tuple(allocator.potential_log)
    return recorder
