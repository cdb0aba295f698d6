"""Exact-rational domain types and instance serialization.

All valuation arithmetic in this package is exact: values are
``fractions.Fraction`` everywhere a fairness decision depends on them, and
``math.inf`` serves as the single distinguished "plus infinity" value (it
compares exactly against any Fraction, and no arithmetic is ever performed
on it).  Agents are indexed 1..n and goods 1..m in arrival order, both in
files and in every public structure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import DomainError, ParseError

#: Plus infinity, ordered above every finite Fraction.  Used for the
#: "vacuously satisfied" convention when an agent values nothing.
INF = math.inf

RatOrInf = Union[Fraction, float]


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse an exact rational from ``"p/q"``, integer, or decimal literal.

    Decimal literals are converted exactly ("0.25" becomes 1/4); floats are
    never involved.  A Fraction (as JSON numbers load) passes through.
    """
    if isinstance(text, bool):
        raise ParseError(f"not a rational literal: {text!r}")
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    if not isinstance(text, str):
        raise ParseError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}: {exc}") from None


def format_rational(value: RatOrInf) -> str:
    """Canonical string for a Fraction ("p/q" in lowest terms, or "p")."""
    if value == INF:
        return "inf"
    return str(value)


@dataclass(frozen=True)
class Instance:
    """A full valuation matrix: ``values[i][t]`` is agent i+1's value for good t+1.

    Doubles as a non-adaptive adversary: feeding its columns in arrival order
    to an online allocator replays the committed input sequence.  Valuations
    are additive, so any bundle's value is the sum of its entries.
    """

    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if len(self.values) < 2:
            raise DomainError("an instance needs at least 2 agents")
        m = len(self.values[0])
        for row in self.values:
            if len(row) != m:
                raise ParseError("ragged valuation matrix")
            for v in row:
                if not isinstance(v, Fraction):
                    raise ParseError(f"non-exact valuation {v!r}")
                if v < 0:
                    raise ParseError(f"negative valuation {v}")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def m(self) -> int:
        return len(self.values[0])

    def value(self, agent: int, good: int) -> Fraction:
        """Value of a single good (both indices 1-based)."""
        self._check_agent(agent)
        self._check_good(good)
        return self.values[agent - 1][good - 1]

    def column(self, good: int) -> tuple[Fraction, ...]:
        """All agents' values for one good, in agent order."""
        self._check_good(good)
        return tuple(row[good - 1] for row in self.values)

    def columns(self) -> Iterable[tuple[Fraction, ...]]:
        """Value columns in arrival order."""
        for t in range(1, self.m + 1):
            yield self.column(t)

    def total_value(self, agent: int) -> Fraction:
        """v_i(G), the agent's value for all goods."""
        self._check_agent(agent)
        return sum(self.values[agent - 1], Fraction(0))

    def _check_agent(self, agent: int) -> None:
        if not 1 <= agent <= self.n:
            raise DomainError(f"agent index {agent} out of range 1..{self.n}")

    def _check_good(self, good: int) -> None:
        if not 1 <= good <= self.m:
            raise DomainError(f"good index {good} out of range 1..{self.m}")


def instance_from_rows(rows: Sequence[Sequence[Fraction | int]]) -> Instance:
    """Build an Instance from per-agent value rows."""
    return Instance(tuple(tuple(Fraction(v) for v in row) for row in rows))


def instance_from_columns(columns: Sequence[Sequence[Fraction | int]], n: int) -> Instance:
    """Build an Instance from per-good value columns (the adversary's view)."""
    rows = [[Fraction(col[i]) for col in columns] for i in range(n)]
    return instance_from_rows(rows)


@dataclass(frozen=True)
class Allocation:
    """A complete partition of goods: ``owner[t]`` is the 1-based owner of good t+1."""

    owner: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.owner)

    def bundle(self, agent: int) -> tuple[int, ...]:
        """1-based indices of the goods held by ``agent``."""
        return tuple(t + 1 for t, o in enumerate(self.owner) if o == agent)

    def bundles(self, n: int) -> list[tuple[int, ...]]:
        return [self.bundle(i) for i in range(1, n + 1)]


def check_allocation(inst: Instance, alloc: Allocation) -> None:
    """Raise unless ``alloc`` is a complete allocation of ``inst``'s goods."""
    if alloc.m != inst.m:
        raise DomainError(f"allocation covers {alloc.m} goods, instance has {inst.m}")
    for o in alloc.owner:
        if not 1 <= o <= inst.n:
            raise DomainError(f"owner {o} out of range 1..{inst.n}")


@dataclass(frozen=True)
class Predictions:
    """Per-agent maximum item value (MIV) predictions with one-sided error.

    Declares the contract that every agent's true maximum single-good value
    lies in ``[(1 - epsilon) * p_i, p_i]``: predictions may overestimate by a
    bounded factor but never underestimate.
    """

    p: tuple[Fraction, ...]
    epsilon: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        for pi in self.p:
            if not isinstance(pi, Fraction) or pi <= 0:
                raise DomainError(f"prediction {pi!r} must be a positive rational")
        if not (isinstance(self.epsilon, Fraction) and 0 <= self.epsilon < 1):
            raise DomainError(f"one-sided error {self.epsilon!r} must lie in [0, 1)")

    @property
    def n(self) -> int:
        return len(self.p)


def perfect_predictions(n: int) -> Predictions:
    """All-ones predictions with zero error."""
    return Predictions(tuple(Fraction(1) for _ in range(n)))


def bundle_value(inst: Instance, agent: int, goods: Iterable[int]) -> Fraction:
    """Exact value of a set of goods to one agent (additive valuations)."""
    total = Fraction(0)
    for g in goods:
        total += inst.value(agent, g)
    return total


def check_predictions(inst: Instance, pred: Predictions) -> bool:
    """True iff every agent's max single-good value is in [(1-eps)p_i, p_i]."""
    if pred.n != inst.n:
        raise DomainError(f"predictions cover {pred.n} agents, instance has {inst.n}")
    low = 1 - pred.epsilon
    for i in range(1, inst.n + 1):
        row = inst.values[i - 1]
        vmax = max(row) if row else Fraction(0)
        if not (low * pred.p[i - 1] <= vmax <= pred.p[i - 1]):
            return False
    return True


# ---------------------------------------------------------------------------
# File formats.  All rationals are strings; JSON numbers are also accepted on
# input (integers directly, decimal literals converted exactly via their
# source text).  Writers emit the canonical form: sorted keys, two-space
# indentation, rationals in lowest terms, trailing newline.
# ---------------------------------------------------------------------------


def _loads(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=parse_rational, parse_int=Fraction)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from None


def _dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _as_int(value, what: str) -> int:
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ParseError(f"{what} must be an integer, got {value!r}")


def load_instance(path: str) -> Instance:
    """Load an instance file: ``{"n": 2, "m": 3, "values": [["1","1/2","0.25"], ...]}``."""
    data = _loads(path)
    if not isinstance(data, dict) or "values" not in data:
        raise ParseError(f"{path}: expected an object with a 'values' field")
    raw = data["values"]
    if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
        raise ParseError(f"{path}: 'values' must be a list of rows")
    rows = []
    for row in raw:
        parsed = []
        for cell in row:
            v = parse_rational(cell)
            if v < 0:
                raise ParseError(f"{path}: negative valuation {format_rational(v)}")
            parsed.append(v)
        rows.append(tuple(parsed))
    inst = Instance(tuple(rows))
    if "n" in data and _as_int(data["n"], "n") != inst.n:
        raise ParseError(f"{path}: declared n={data['n']} but {inst.n} rows present")
    if "m" in data and _as_int(data["m"], "m") != inst.m:
        raise ParseError(f"{path}: declared m={data['m']} but rows have {inst.m} columns")
    return inst


def instance_to_json(inst: Instance) -> str:
    return _dumps(
        {
            "n": inst.n,
            "m": inst.m,
            "values": [[format_rational(v) for v in row] for row in inst.values],
        }
    )


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(inst))


def load_allocation(path: str) -> Allocation:
    """Load an allocation file: ``{"owner": [1, 2, 1]}``."""
    data = _loads(path)
    if not isinstance(data, dict) or "owner" not in data or not isinstance(data["owner"], list):
        raise ParseError(f"{path}: expected an object with an 'owner' list")
    return Allocation(tuple(_as_int(o, "owner entry") for o in data["owner"]))


def allocation_to_json(alloc: Allocation) -> str:
    return _dumps({"owner": list(alloc.owner)})


def save_allocation(alloc: Allocation, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(allocation_to_json(alloc))


def load_predictions(path: str) -> Predictions:
    """Load a predictions file: ``{"p": ["1", "2/3"], "epsilon": "1/4"}``."""
    data = _loads(path)
    if not isinstance(data, dict) or "p" not in data or not isinstance(data["p"], list):
        raise ParseError(f"{path}: expected an object with a 'p' list")
    p = tuple(parse_rational(cell) for cell in data["p"])
    eps = parse_rational(data.get("epsilon", 0))
    try:
        return Predictions(p, eps)
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from None
