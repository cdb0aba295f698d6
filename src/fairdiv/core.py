"""Exact-rational domain types and instance serialization.

All valuation arithmetic in this package is exact: values are
``fractions.Fraction`` everywhere a fairness decision depends on them, and
``math.inf`` serves as the single distinguished "plus infinity" value (it
compares exactly against any Fraction, and no arithmetic is ever performed
on it).  Agents are indexed 1..n and goods 1..m in arrival order, both in
files and in every public structure.

Files go through one reader (``_reading``, which reads JSON integers as
ints) and one writer (``_dumps``, the bytes ``json.dumps(indent=2,
sort_keys=True)`` would give, without json's pure-Python encoder, and each
Fraction, Decimal and ``INF`` as its ``format_rational`` string).  A cell is
checked once, where it enters: by ``instance_from_rows`` in code, or by
``load_instance``, which parses each distinct literal of an all-string file
once.  Either way it becomes a reduced pair (p, q), the one form an
``Instance`` keeps; ``Instance`` checks only the shape.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence, Union

from .errors import DomainError, FairdivError, ParseError

#: Plus infinity, ordered above every finite Fraction.  Used for the
#: "vacuously satisfied" convention when an agent values nothing.
INF = math.inf

RatOrInf = Union[Fraction, float]


def _exponent(text: str) -> int:
    """Magnitude of the integer after the last e or E in ``text``; 0 if none."""
    _, e, tail = text.replace("E", "e").rpartition("e")
    try:
        return abs(int(tail)) if e else 0
    except ValueError:  # no integer there: Fraction's parser decides
        return 0


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse an exact rational from ``"p/q"``, integer, or decimal literal.

    Decimal literals are converted exactly ("0.25" becomes 1/4); floats are
    never involved.  An int or a Fraction (as JSON numbers load) passes
    through as a Fraction.  A string is read by ``_literal_pair``.
    """
    if isinstance(text, str):
        return Fraction(*_literal_pair(text))
    if isinstance(text, (int, Fraction)) and not isinstance(text, bool):
        return Fraction(text)
    raise ParseError(f"not a rational literal: {text!r}")


def _literal_pair(text: str) -> tuple[int, int]:
    """A string literal as (p, q) in lowest terms with q > 0.

    ``p`` and ``p/q`` in ASCII digits alone skip ``Fraction``'s literal
    parser; past Python's int-to-str digit limit ``_digits`` reads them, as
    ``format_ratio`` writes them, and a zero q is refused there, in
    ``Fraction``'s words while p has at most 40 digits.  ``Fraction`` reads
    every other string, so signs, spaces, exponents and bad literals behave
    as it decides.  One exception: text whose last ``e``/``E`` is followed by
    an integer of magnitude over 4300 (Python's int-to-str digit limit) is
    refused first: ``Fraction`` builds 10**exponent.  A refused literal over
    40 characters is quoted by its first 40 and its length, and its reason
    up to the first colon, which may quote it again.
    """
    num, slash, den = text.partition("/")
    try:
        if num.isascii() and num.isdigit() and (not slash or den.isascii() and den.isdigit()):
            try:
                p, q = int(num), int(den) if slash else 1
            except ValueError:  # past Python's int-to-str digit limit
                p, q = _digits(num), _digits(den) if slash else 1
            if not q:  # Fraction's text while p fits in 40 digits
                raise ZeroDivisionError(f"Fraction({p}, 0)" if p < 10**40 else "zero denominator")
            g = math.gcd(p, q)
            return p // g, q // g
        if _exponent(text) > 4300:
            raise ValueError("exponent magnitude over 4300")
        value = Fraction(text.strip())
        return value.numerator, value.denominator
    except (ValueError, ZeroDivisionError) as exc:
        if len(text) <= 40:
            raise ParseError(f"bad rational literal {text!r}: {exc}") from None
        reason = str(exc).partition(":")[0]
        shown = f"{text[:40]!r}… ({len(text)} characters)"
        raise ParseError(f"bad rational literal {shown}: {reason}") from None


#: The most decimal digits written or read for one integer.  Python's
#: int-to-str digit limit (4300 by default) guards against the conversion's
#: quadratic cost; past it an integer is written and read in pieces, and this
#: bounds that work.
WRITE_DIGITS = 100_000


def format_rational(value: RatOrInf) -> str:
    """Canonical string for an exact number ("p/q" in lowest terms, or "p")."""
    if isinstance(value, float) and value == INF:  # no Fraction-to-float comparison
        return "inf"
    try:
        return str(value)
    except ValueError:  # beyond Python's int-to-str digit limit
        return _long_ratio(value.numerator, value.denominator)


def format_ratio(num: int, den: int) -> str:
    """``format_rational(num / den)`` from integers, den >= 0; "inf" when den is 0."""
    if den == 0:
        return "inf"
    g = math.gcd(num, den)
    try:
        return f"{num // g}/{den // g}" if g != den else f"{num // g}"
    except ValueError:
        return _long_ratio(num // g, den // g)


@cache
def _power_of_ten(k: int) -> int:
    return 10**k


def _long_ratio(num: int, den: int) -> str:
    """The text of num/den, in lowest terms with den > 0, where ``str`` refuses
    it: each integer is cut by a power of 10 into pieces under the digit limit.
    An integer of more than ``WRITE_DIGITS`` digits is refused."""
    size = sys.get_int_max_str_digits() - 1
    texts = []
    for x in (abs(num), den):
        if x >= _power_of_ten(WRITE_DIGITS):
            raise DomainError(f"rational too long to write: an integer over {WRITE_DIGITS} digits")
        pieces = []
        while x >= _power_of_ten(size):
            x, r = divmod(x, _power_of_ten(size))
            pieces.append(f"{r:0{size}d}")
        texts.append(str(x) + "".join(reversed(pieces)))
    sign = "-" if num < 0 else ""
    return sign + texts[0] if den == 1 else f"{sign}{texts[0]}/{texts[1]}"


def _digits(text: str) -> int:
    """The int of an ASCII digit string, read as ``_long_ratio`` writes it: in
    pieces under Python's int-to-str digit limit.  A string of more than
    ``WRITE_DIGITS`` digits is refused."""
    if len(text) > WRITE_DIGITS:
        raise ValueError(f"an integer over {WRITE_DIGITS} digits")
    size, x = sys.get_int_max_str_digits() - 1, 0
    for k in range(0, len(text), size):
        piece = text[k:k + size]
        x = x * _power_of_ten(len(piece)) + int(piece)
    return x


class _Frozen:
    """Fields named in ``_fields``, kept in ``__dict__`` by ``__init__``: none
    can be assigned, and objects of one class are equal, and hash alike,
    when their fields are."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: {type(self).__name__} is immutable")

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={v!r}' for f, v in zip(self._fields, self._key()))})"


class Instance(_Frozen):
    """A full valuation matrix: ``values[i][t]`` is agent i+1's value for good t+1.

    Doubles as a non-adaptive adversary: feeding its columns in arrival order
    to an online allocator replays the committed input sequence.  Valuations
    are additive, so any bundle's value is the sum of its entries.

    ``Instance(rows, /)`` checks only the shape; build one through
    ``instance_from_rows`` or ``load_instance``, which check the cells.  A row
    is a tuple of reduced pairs (p, q), q > 0, one shared tuple per distinct
    value, so equal values are equal rows.  ``values`` (one Fraction per
    distinct pair) and ``scaled`` (each row as integers over one scale) are
    built when first read; ``columns`` builds neither.  Instances are
    immutable, and equal when their values are.
    """

    _fields = ("_rows",)

    def __init__(self, rows: Sequence[tuple[tuple[int, int], ...]], /):
        if len(rows) < 2:
            raise DomainError("an instance needs at least 2 agents")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ParseError("ragged valuation matrix")
        self.__dict__["_rows"] = tuple(rows)

    def __repr__(self) -> str:
        return f"Instance(values={self.values!r})"

    @property
    def n(self) -> int:
        return len(self._rows)

    @property
    def m(self) -> int:
        return len(self._rows[0])

    @cached_property
    def values(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows as Fractions, one per distinct pair, shared by its repeats."""
        shared = {pair: Fraction(*pair) for pair in set().union(*self._rows)}
        return tuple(tuple(map(shared.__getitem__, row)) for row in self._rows)

    @cached_property
    def scaled(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Per agent, (L, the row times L as integers), L the lcm of the row's
        denominators; each distinct pair of a row is weighed once."""
        out = []
        for row in self._rows:
            distinct = set(row)
            scale = math.lcm(*(q for _, q in distinct))
            weight = {pair: pair[0] * (scale // pair[1]) for pair in distinct}
            out.append((scale, tuple(map(weight.__getitem__, row))))
        return tuple(out)

    def columns(self) -> Iterable[tuple[tuple[int, int], ...]]:
        """Value columns in arrival order, as the rows' pairs (p, q)."""
        return zip(*self._rows)

    def _check_agent(self, agent: int) -> None:
        if not 1 <= agent <= self.n:
            raise DomainError(f"agent index {agent} out of range 1..{self.n}")


def instance_from_rows(rows: Sequence[Sequence[Fraction | int]]) -> Instance:
    """Build an Instance from per-agent value rows in one pass: each int or
    Fraction cell becomes its reduced pair, the first cell in row order that is
    neither, or is negative, is refused; then ``Instance`` checks the shape.
    A run of one cell object (``[v] * k``) is checked once."""
    shared: dict[tuple[int, int], tuple[int, int]] = {}
    out = []
    last = object()  # the last cell checked; ``pair`` is its pair
    for row in rows:
        cells = []
        for v in row:
            if v is not last:
                pair = _pair(v, ParseError)
                last, pair = v, shared.setdefault(pair, pair)
            cells.append(pair)
        out.append(tuple(cells))
    return Instance(out)


class Allocation(_Frozen):
    """A complete partition of goods: ``owner[t]`` is the 1-based owner of good t+1.

    Immutable, and equal when the owners are; ``metrics`` keeps its ownership
    pass in ``__dict__`` as well."""

    _fields = ("owner",)

    def __init__(self, owner: tuple[int, ...]):
        self.__dict__["owner"] = owner

    @property
    def m(self) -> int:
        return len(self.owner)


def check_allocation(inst: Instance, alloc: Allocation) -> None:
    """Raise unless ``alloc`` is a complete allocation of ``inst``'s goods."""
    if alloc.m != inst.m:
        raise DomainError(f"allocation covers {alloc.m} goods, instance has {inst.m}")
    if alloc.owner and not (1 <= min(alloc.owner) and max(alloc.owner) <= inst.n):
        bad = next(o for o in alloc.owner if not 1 <= o <= inst.n)
        raise DomainError(f"owner {_shown(bad)} out of range 1..{inst.n}")


class Predictions(_Frozen):
    """Per-agent maximum item value (MIV) predictions with one-sided error.

    Declares the contract that every agent's true maximum single-good value
    lies in ``[(1 - epsilon) * p_i, p_i]``: predictions may overestimate by a
    bounded factor but never underestimate.  Immutable, and equal when
    ``p`` and ``epsilon`` are.
    """

    _fields = ("p", "epsilon")

    def __init__(self, p: tuple[Fraction, ...], epsilon: Fraction = Fraction(0)):
        for pi in p:
            if not isinstance(pi, Fraction) or pi <= 0:
                raise DomainError(f"prediction {_shown(pi)} must be a positive rational")
        if not (isinstance(epsilon, Fraction) and 0 <= epsilon < 1):
            raise DomainError(f"one-sided error {_shown(epsilon)} must lie in [0, 1)")
        self.__dict__.update(p=p, epsilon=epsilon)

    @property
    def n(self) -> int:
        return len(self.p)


def perfect_predictions(n: int) -> Predictions:
    """All-ones predictions with zero error."""
    return Predictions(tuple(Fraction(1) for _ in range(n)))


# ---------------------------------------------------------------------------
# File formats.  All rationals are strings; JSON numbers are also accepted on
# input (integers directly, decimal literals converted exactly via their
# source text).  Writers emit the canonical form: sorted keys, two-space
# indentation, rationals in lowest terms, trailing newline.
# ---------------------------------------------------------------------------


def _encode(value, indent: str, out: list[str]) -> None:
    """Append ``value`` to ``out`` as ``json.dumps(indent=2, sort_keys=True)``
    writes it at ``indent``.

    That call runs on json's pure-Python encoder, because of ``indent``.
    Dicts (str keys, sorted), lists, tuples, str, int, bool and None are
    written here, and a Fraction, a Decimal or ``INF`` as the JSON string of
    ``format_rational``; any other value as ``json.dumps(value)`` writes it,
    so an object json cannot write is refused with its ``TypeError``.  All
    pieces go to one list, joined once, so no level copies the one below.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (Fraction, Decimal)) or isinstance(value, float) and value == INF:
        out.append(f'"{format_rational(value)}"')
    elif isinstance(value, dict) and value:
        inner = indent + "  "
        sep = "{\n" + inner
        for k in sorted(value):
            out.append(f"{sep}{encode_basestring_ascii(k)}: ")
            _encode(value[k], inner, out)
            sep = ",\n" + inner
        out.append(f"\n{indent}}}")
    elif isinstance(value, (list, tuple)) and value:
        inner = indent + "  "
        kinds = set(map(type, value))
        if kinds == {str} or kinds == {int}:  # a row of rationals or of owners: one piece
            texts = map(encode_basestring_ascii if kinds == {str} else int.__repr__, value)
            out += (f"[\n{inner}", f",\n{inner}".join(texts), f"\n{indent}]")
            return
        sep = "[\n" + inner
        for v in value:
            out.append(sep)
            _encode(v, inner, out)
            sep = ",\n" + inner
        out.append(f"\n{indent}]")
    elif isinstance(value, (dict, list, tuple)):
        out.append("{}" if isinstance(value, dict) else "[]")
    else:
        out.append(json.dumps(value))


def _dumps(payload: dict) -> str:
    """The one writer: ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline."""
    out: list[str] = []
    _encode(payload, "", out)
    out.append("\n")
    return "".join(out)


def _as_int(value, what: str) -> int:
    """``value`` if it is an int (JSON integers load as ints), or an integral
    Fraction (as JSON decimals load) as an int; never a bool."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ParseError(f"{what} must be an integer, got {_shown(value)}")


def _pair(cell, error: type[FairdivError]) -> tuple[int, int]:
    """The one cell check: an int (a bool counts) or a Fraction, not negative,
    as its pair (p, q); any other cell is refused with ``error``."""
    if not (type(cell) is Fraction or isinstance(cell, (int, Fraction))):  # Fraction's ABCMeta is slow
        raise error(f"non-exact valuation {_shown(cell)}")
    if cell.numerator < 0:
        raise error(f"negative valuation {_shown(cell)}")
    return cell.numerator, cell.denominator


def _shown(value) -> str:
    """``value`` in an error text, never raising: an int or a Fraction as
    ``format_rational`` writes it (3/2, not Fraction(3, 2)), else its repr;
    a text over 40 characters is cut to its first 40 and its length."""
    try:
        text = format_rational(value) if isinstance(value, (int, Fraction)) else repr(value)
    except Exception:  # past ``WRITE_DIGITS``, or a bad repr: an error text must not raise
        return f"<unwritable {type(value).__name__}>"
    return text if len(text) <= 40 else f"{text[:40]}… ({len(text)} characters)"


@contextmanager
def _reading(path: str, key: str):
    """Yield the JSON object at ``path`` (UTF-8; integers as ints, decimals as
    exact Fractions) once it has a list under ``key``; a ``FairdivError``
    raised on its content comes out as its class, naming the file.  The one
    place an input file is opened."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_float=parse_rational)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from None
    except ParseError as exc:  # a JSON number ``parse_rational`` refuses
        raise ParseError(f"{path}: {exc}") from None
    except ValueError:  # an integer literal past Python's int-to-str digit limit
        raise ParseError(f"{path}: an integer past Python's int-to-str digit limit") from None
    if not isinstance(data, dict) or not isinstance(data.get(key), list):
        raise ParseError(f"{path}: expected an object with a list under {key!r}")
    try:
        yield data
    except FairdivError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_instance(path: str) -> Instance:
    """Load an instance file: ``{"n": 2, "m": 3, "values": [["1","1/2","0.25"], ...]}``.

    When every cell is a string (the canonical form), each distinct literal
    is parsed once into its reduced pair (p, q), and each cell becomes its
    literal's pair, so spellings of one value ("1/2", "2/4") share one.  Any
    other file, or one whose literals do not all parse to values >= 0, has
    every cell parsed in file order, then goes through ``instance_from_rows``:
    so a parse error anywhere comes before a sign error, and the first bad
    cell in file order is the one reported.
    """
    with _reading(path, "values") as data:
        rows = data["values"]
        if not all(isinstance(r, list) for r in rows):
            raise ParseError("'values' must be a list of rows")
        inst = _literal_instance(rows)
        if inst is None:
            inst = instance_from_rows([list(map(parse_rational, row)) for row in rows])
        if "n" in data and _as_int(data["n"], "n") != inst.n:
            raise ParseError(f"declared n={_shown(data['n'])} but {inst.n} rows present")
        if "m" in data and _as_int(data["m"], "m") != inst.m:
            raise ParseError(f"declared m={_shown(data['m'])} but rows have {inst.m} columns")
        return inst


def _literal_instance(rows: list[list]) -> Instance | None:
    """The instance of ``rows`` if every cell is a string literal of a value
    >= 0, else None; literals of one value share one pair."""
    try:
        literals = set().union(*rows)
    except TypeError:  # an unhashable cell
        return None
    if not all(type(c) is str for c in literals):
        return None
    shared: dict[tuple[int, int], tuple[int, int]] = {}
    try:
        pairs = {c: shared.setdefault(pair := _literal_pair(c), pair) for c in literals}
    except ParseError:
        return None
    if any(p < 0 for p, _ in shared):
        return None
    return Instance(tuple(tuple(map(pairs.__getitem__, row)) for row in rows))


def instance_to_json(inst: Instance) -> str:
    text = {pair: format_ratio(*pair) for pair in set().union(*inst._rows)}  # each distinct pair once
    values = [list(map(text.__getitem__, row)) for row in inst._rows]
    return _dumps({"n": inst.n, "m": inst.m, "values": values})


def load_allocation(path: str) -> Allocation:
    """Load an allocation file: ``{"owner": [1, 2, 1]}``."""
    with _reading(path, "owner") as data:
        owner = data["owner"]
        if set(map(type, owner)) <= {int}:
            return Allocation(tuple(owner))
        return Allocation(tuple(_as_int(o, "owner entry") for o in owner))


def load_predictions(path: str) -> Predictions:
    """Load a predictions file: ``{"p": ["1", "2/3"], "epsilon": "1/4"}``."""
    with _reading(path, "p") as data:
        p = tuple(parse_rational(cell) for cell in data["p"])
        return Predictions(p, parse_rational(data.get("epsilon", 0)))
