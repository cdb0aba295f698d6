import json
import math
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdiv import (
    Allocation,
    DomainError,
    FairdivError,
    ParseError,
    Predictions,
    format_rational,
    instance_from_rows,
    load_allocation,
    load_instance,
    make_allocator,
    parse_rational,
    run,
)
from fairdiv.cli import main
from fairdiv import core
from fairdiv.core import (
    WRITE_DIGITS, _dumps, _literal_pair, _reading, _shown, check_allocation, format_ratio, instance_to_json,
)
from conftest import (
    check_predictions, instance_from_rows_reference, instance_to_json_reference, load_instance_reference,
)

F = Fraction


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseRational:
    def test_fraction_and_decimal_literals_are_exact(self):
        assert parse_rational("1/3") == F(1, 3)
        assert parse_rational("0.25") == F(1, 4)
        assert parse_rational("0.5") == F(1, 2)
        assert parse_rational("7") == F(7)

    def test_garbage_rejected(self):
        for bad in ("", "1/0", "a/b", "--3", None, 1.5):
            with pytest.raises(ParseError):
                parse_rational(bad)

    @pytest.mark.parametrize("text", ["1e9999999", "1e-9999999", "1e1_000_000"])
    def test_an_exponent_past_the_digit_limit_is_refused_at_once(self, text):
        started = time.perf_counter()
        with pytest.raises(ParseError, match="exponent magnitude over 4300"):
            parse_rational(text)
        assert time.perf_counter() - started < 0.1

    def test_an_exponent_at_the_digit_limit_still_parses(self):
        assert parse_rational("1e-4300") == F(1, 10**4300)
        assert parse_rational("2.5E+4_300") == F(25 * 10**4299)

    def test_format_round_trips(self):
        for v in (F(1, 2), F(3), F(0), F(41, 7)):
            assert parse_rational(format_rational(v)) == v

    def test_a_rational_too_long_to_write_is_a_domain_error(self):
        refusal = f"^rational too long to write: an integer over {WRITE_DIGITS} digits$"
        with pytest.raises(DomainError, match=refusal):
            format_rational(F(1, 10**WRITE_DIGITS))
        with pytest.raises(DomainError, match=refusal):
            format_ratio(-(10**WRITE_DIGITS), 3)
        assert format_rational(F(10**WRITE_DIGITS - 1, 7)) == "9" * WRITE_DIGITS + "/7"  # at the budget

    def test_past_the_digit_limit_a_rational_is_written_in_pieces(self):
        """Under a 640-digit int-to-str limit, the text is ``str()``'s under
        the default one: pieces of 639 digits, the inner ones zero-padded."""
        rng = random.Random(0)
        values = [F(10**1278), F(-(10**700) - 12345, 3), F(10**639, 10**2000 + 1), F(7, 10**4299 + 1)]
        values += [F(rng.randrange(10**rng.randint(600, 4299)), rng.randrange(1, 10**rng.randint(1, 4299)))
                   for _ in range(40)]
        want = [str(v) for v in values]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            got = [format_rational(v) for v in values]
            by_ratio = [format_ratio(6 * v.numerator, 6 * v.denominator) for v in values]
        finally:
            sys.set_int_max_str_digits(limit)
        assert got == by_ratio == want

    def test_past_the_digit_limit_a_literal_is_read_up_to_the_budget(self):
        assert parse_rational("9" * WRITE_DIGITS + "/7") == F(10**WRITE_DIGITS - 1, 7)  # at the budget
        assert parse_rational("3/6" + "0" * (WRITE_DIGITS - 2) + "3") == F(1, 2 * 10**(WRITE_DIGITS - 1) + 1)
        assert parse_rational("3/" + "0" * (WRITE_DIGITS - 1) + "6") == F(1, 2)
        for text in ("1" + "0" * WRITE_DIGITS, "1/" + "0" * WRITE_DIGITS + "7"):
            with pytest.raises(ParseError) as refused:
                parse_rational(text)
            assert str(refused.value) == (f"bad rational literal {text[:40]!r}… ({len(text)} characters): "
                                          f"an integer over {WRITE_DIGITS} digits")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**3000), st.integers(1, 10**3000), st.integers(1, 10**700))
    def test_past_the_digit_limit_a_literal_is_read_as_it_is_written(self, p, q, k):
        """Under a 640-digit int-to-str limit, ``_literal_pair`` reads the
        pieces ``format_ratio`` writes back as the reduced pair."""
        g = math.gcd(p, q)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            got = _literal_pair(format_ratio(k * p, k * q))
        finally:
            sys.set_int_max_str_digits(limit)
        assert got == (p // g, q // g)


class TestInstanceFiles:
    def test_load_declared_content(self, tmp_path):
        path = write(
            tmp_path / "i.json",
            '{"n": 2, "m": 2, "values": [["1","1"], ["1","1/2"]]}',
        )
        inst = load_instance(path)
        assert inst.n == 2 and inst.m == 2
        assert inst.values[1][1] == F(1, 2)

    def test_mixed_literal_forms_parse_exactly(self, tmp_path):
        path = write(tmp_path / "i.json", '{"values": [["1/3", "0.25"], [1, 0.1]]}')
        inst = load_instance(path)
        assert inst.values[0] == (F(1, 3), F(1, 4))
        assert inst.values[1] == (F(1), F(1, 10))  # JSON 0.1 converted via its text

    def test_negative_value_rejected(self, tmp_path):
        path = write(tmp_path / "i.json", '{"values": [["1"], ["-1"]]}')
        with pytest.raises(ParseError):
            load_instance(path)

    def test_ragged_matrix_rejected(self, tmp_path):
        path = write(tmp_path / "i.json", '{"values": [["1","2"], ["1"]]}')
        with pytest.raises(ParseError):
            load_instance(path)

    def test_declared_dimensions_must_match(self, tmp_path):
        path = write(tmp_path / "i.json", '{"n": 3, "values": [["1"], ["1"]]}')
        with pytest.raises(ParseError):
            load_instance(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = write(tmp_path / "i.json", "{nope")
        with pytest.raises(ParseError):
            load_instance(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_instance(str(tmp_path / "absent.json"))

    def test_single_agent_rejected(self, tmp_path):
        path = write(tmp_path / "i.json", '{"values": [["1"]]}')
        with pytest.raises(DomainError):
            load_instance(path)

    def test_save_load_round_trip_is_byte_identical(self, tmp_path):
        inst = instance_from_rows([[F(1), F(1, 2), F(1, 4)], [F(1), F(1), F(0)]])
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        first.write_text(instance_to_json(inst), encoding="utf-8")
        second.write_text(instance_to_json(load_instance(str(first))), encoding="utf-8")
        assert first.read_bytes() == second.read_bytes()

    def test_equal_literals_load_as_equal_values(self, tmp_path):
        path = write(tmp_path / "i.json", '{"values": [["1/2", 0.5, "2/4", "1/2"], ["1", 1, "1", "1"]]}')
        inst = load_instance(path)
        assert inst.values == ((F(1, 2),) * 4, (F(1),) * 4)

    @pytest.mark.parametrize("values", [["x", ["1"]], [["1"], "1"], [["1"], None]])
    def test_values_that_are_not_a_list_of_rows_are_refused(self, values, tmp_path):
        path = write(tmp_path / "i.json", json.dumps({"values": values}))
        with pytest.raises(ParseError) as refused:
            load_instance(path)
        assert str(refused.value) == f"{path}: 'values' must be a list of rows"

    @pytest.mark.parametrize(
        "declared, message",
        [('"n": 2.5', "n must be an integer, got 5/2"), ('"m": 0.5', "m must be an integer, got 1/2"),
         ('"n": "2"', "n must be an integer, got '2'"), ('"m": true', "m must be an integer, got True")],
        ids=["n-decimal", "m-decimal", "n-text", "m-bool"],
    )
    def test_a_declared_size_that_is_not_an_integer_is_quoted_exactly(self, declared, message, tmp_path):
        path = write(tmp_path / "i.json", f'{{{declared}, "values": [["1"], ["1"]]}}')
        with pytest.raises(ParseError) as refused:
            load_instance(path)
        assert str(refused.value) == f"{path}: {message}"

    def test_canonical_form_uses_lowest_terms(self):
        inst = instance_from_rows([[F(2, 4)], [F(1)]])
        payload = json.loads(instance_to_json(inst))
        assert payload["values"][0][0] == "1/2"


#: String cells: the first 14 are literals of values >= 0, canonical or not, then
#: refused ones; some are over 40 characters.
LITERALS = ("1", "0", "1/2", "3/7", "2/4", "007", "1/02", "0/7", "0.25", "1e-3", "+1/2", " 1/2",
            "-0", "1/" + "3" * 44, "-1/2", "1/0", "x", "1" * 45 + "x", "x" * 45, "9" * 41 + "/0")
#: Any other JSON cell: integers, floats (read through their text), true, null and a list.
OTHER_CELLS = st.one_of(st.integers(-2, 10**45), st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([True, False, None, [1]]))


@st.composite
def instance_payloads(draw):
    """An instance file's object: rows drawn from a pool of at most four cells
    (literals of values >= 0, refused literals, any strings, or any cells),
    sometimes ragged, sometimes declaring n and m."""
    cell = draw(st.sampled_from([st.sampled_from(LITERALS[:14]), st.sampled_from(LITERALS[14:]),
                                 st.sampled_from(LITERALS),
                                 st.one_of(st.sampled_from(LITERALS), OTHER_CELLS)]))
    pool = draw(st.lists(cell, min_size=1, max_size=4))
    n, m = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rows = [[draw(st.sampled_from(pool)) for _ in range(m)] for _ in range(n)]
    if rows and draw(st.integers(0, 3)) == 0:
        row = rows[draw(st.integers(0, n - 1))]
        if row and draw(st.booleans()):
            row.pop()
        else:
            row.append(draw(st.sampled_from(pool)))
    payload = {"values": rows}
    for key, size in (("n", n), ("m", m)):
        if draw(st.booleans()):
            payload[key] = draw(st.sampled_from([size, size + 1]))
    return payload


def outcome(load, path):
    """What ``load`` makes of ``path``: an Instance, or the error's class and text."""
    try:
        return load(path)
    except FairdivError as exc:
        return type(exc), str(exc)


class TestLoaderDifferential:
    """``load_instance`` against ``load_instance_reference``, which reads each
    cell through ``parse_rational`` and builds the ``Instance`` in code."""

    @settings(max_examples=400, deadline=None)
    @given(payload=instance_payloads())
    def test_matches_the_definition(self, payload, tmp_path_factory):
        path = write(tmp_path_factory.getbasetemp() / "differential.json", json.dumps(payload))
        got, want = outcome(load_instance, path), outcome(load_instance_reference, path)
        if isinstance(want, tuple):
            assert got == want
            return
        assert (got.n, got.m) == (want.n, want.m)
        assert got.scaled == want.scaled
        assert got.values == want.values
        assert got == want == instance_from_rows(want.values)
        assert hash(got) == hash(want) and repr(got) == repr(want)
        assert all(type(v) is Fraction for row in got.values for v in row)
        cells = [c for row in payload["values"] for c in row]
        if all(isinstance(c, str) for c in cells):  # every repeat of a literal is one object
            shared: dict[str, Fraction] = {}
            for c, v in zip(cells, (v for row in got.values for v in row)):
                assert shared.setdefault(c, v) is v

    @pytest.mark.parametrize(
        "rows, message",
        [([["1", "v"], ["w", "x"], ["y", "z"]], "bad rational literal 'v': Invalid literal for Fraction: 'v'"),
         ([["1", "-5"], ["-4", "-3"], ["-2", "-1"]], "negative valuation -5"),
         ([["-1", "1/0"], ["2/0", "3/0"], ["4/0", "5/0"]], "bad rational literal '1/0': Fraction(1, 0)")],
        ids=["parse", "sign", "parse-before-sign"],
    )
    def test_the_first_bad_cell_in_file_order_is_reported(self, rows, message, tmp_path):
        path = write(tmp_path / "i.json", json.dumps({"values": rows}))
        with pytest.raises(ParseError) as refused:
            load_instance(path)
        assert str(refused.value) == f"{path}: {message}"

    def test_views_are_built_on_first_read(self, tmp_path):
        path = write(tmp_path / "i.json", '{"values": [["1/2", "1/3", "1/2"], ["1", "0", "2/4"]]}')
        inst = load_instance(path)
        assert (inst.n, inst.m) == (2, 3)
        assert "values" not in vars(inst) and "scaled" not in vars(inst)
        assert inst.scaled == ((6, (3, 2, 3)), (2, (2, 0, 1)))
        assert "values" not in vars(inst)  # the integer view builds no Fraction
        assert inst.values == ((F(1, 2), F(1, 3), F(1, 2)), (F(1), F(0), F(1, 2)))
        assert inst.values[0][0] is inst.values[0][2]

    def test_a_run_builds_no_integer_view(self, tmp_path):
        path = write(tmp_path / "i.json", '{"values": [["1", "1/3"], ["1/2", "1"]]}')
        inst = load_instance(path)
        run(make_allocator("greedy1", inst.n), inst)
        assert "scaled" not in vars(inst) and "values" not in vars(inst)


#: Cells code may hand ``instance_from_rows``: exact ones (bools are ints) and the rest.
EXACT_CELLS = st.one_of(st.integers(-2, 10**30), st.booleans(), st.fractions(max_denominator=50))
ANY_CELLS = st.one_of(EXACT_CELLS, st.floats(), st.text(max_size=3), st.none())


@st.composite
def value_rows(draw):
    """Up to 4 rows of up to 6 cells, all exact or of any kind, sometimes
    ragged.  Rows are cut into pieces, and a piece is either drawn cell by
    cell or one cell object repeated (``[v] * k``, as runs of equal goods are
    built), often the same object in every row; refused cells and ``True``
    make runs too."""
    cell = draw(st.sampled_from([st.fractions(min_value=0, max_denominator=50), EXACT_CELLS, ANY_CELLS]))
    run_cell = st.one_of(cell, st.just(True))
    shared = draw(run_cell)
    n, m = draw(st.integers(0, 4)), draw(st.integers(0, 6))
    rows = []
    for _ in range(n):
        row = []
        while len(row) < m:
            k = draw(st.integers(1, m - len(row)))
            if draw(st.booleans()):
                row += [shared if draw(st.booleans()) else draw(run_cell)] * k
            else:
                row += [draw(cell) for _ in range(k)]
        rows.append(row)
    if rows and draw(st.integers(0, 3)) == 0:
        row = rows[draw(st.integers(0, n - 1))]
        if row and draw(st.booleans()):
            row.pop()
        else:
            row.append(draw(cell))
    return rows


class TestInstanceFromRows:
    def test_fraction_cells_pass_through_and_ints_become_fractions(self):
        half = F(1, 2)
        inst = instance_from_rows([[half, 3, True], [0, F(4, 6), F(0)]])
        assert inst.values == ((F(1, 2), F(3), F(1)), (F(0), F(2, 3), F(0)))
        assert all(type(v) is Fraction for row in inst.values for v in row)
        assert inst._rows[1][0] is inst._rows[1][2] and inst.values[1][0] is inst.values[1][2]

    @pytest.mark.parametrize("cell", [0.5, "1/2", None], ids=["float", "text", "none"])
    def test_a_cell_that_is_not_exact_is_refused(self, cell):
        with pytest.raises(ParseError, match="non-exact valuation"):
            instance_from_rows([[F(1), cell], [F(1), F(1)]])

    def test_a_negative_cell_is_refused(self):
        with pytest.raises(ParseError, match="negative valuation -1"):
            instance_from_rows([[F(1), -1], [F(1), F(1)]])

    @settings(max_examples=400, deadline=None)
    @given(rows=value_rows())
    def test_matches_the_two_pass_reference(self, rows):
        try:
            want = instance_from_rows_reference(rows)
        except FairdivError as exc:
            with pytest.raises(FairdivError) as refused:
                instance_from_rows(rows)
            assert (type(refused.value), str(refused.value)) == (type(exc), str(exc))
            return
        got = instance_from_rows(rows)
        assert got.values == want and (got.n, got.m) == (len(want), len(want[0]))
        assert all(type(v) is Fraction for row in got.values for v in row)
        shared: dict = {}  # equal cells share one pair and one Fraction
        for pairs, values in zip(got._rows, got.values):
            for pair, v in zip(pairs, values):
                assert all(a is b for a, b in zip(shared.setdefault(v, (pair, v)), (pair, v)))
        assert got == instance_from_rows(want) and hash(got) == hash(instance_from_rows(want))


#: Spellings of one value each, canonical or not; ``1e-4300``'s denominator
#: is past Python's int-to-str digit limit, so it loads but cannot be written.
SPELLINGS = (("1/2", "2/4", "0.5", " 1/2", "+1/2", "1/02"), ("7", "007", "7.0", "14/2"),
             ("0", "-0", "0/7", "0.0"), ("1/1000", "1e-3", "0.001"), ("1", "1.0", "1e0", "3/3"),
             ("1e-4300",))
#: Cells code may hand ``instance_from_rows`` that it accepts.
CODE_CELLS = st.one_of(st.integers(0, 10**30), st.booleans(), st.fractions(min_value=0, max_denominator=50))


@st.composite
def spelled_rows(draw, n, m):
    """n rows of m cells, each a spelling of a value drawn from ``SPELLINGS``;
    the writable values are drawn far more often than the unwritable one."""
    kinds = st.sampled_from([*range(len(SPELLINGS) - 1)] * 8 + [len(SPELLINGS) - 1])
    values = [[draw(kinds) for _ in range(m)] for _ in range(n)]
    return values, [[draw(st.sampled_from(SPELLINGS[k])) for k in row] for row in values]


def written(inst):
    """``instance_to_json`` and its reference on ``inst``: each a text, or the error's class and text."""
    out = []
    for write_json in (instance_to_json, instance_to_json_reference):
        try:
            out.append(write_json(inst))
        except FairdivError as exc:
            out.append((type(exc), str(exc)))
    return out


class TestInstanceForm:
    """An instance keeps each cell as its reduced (p, q), loaded or built in
    code; writing, equality and hashing read those pairs directly."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(2, 3), m=st.integers(0, 4), loaded=st.booleans())
    def test_instance_to_json_matches_the_definition(self, data, n, m, loaded, tmp_path_factory):
        if loaded:
            _, rows = data.draw(spelled_rows(n, m))
            path = tmp_path_factory.getbasetemp() / "spelled.json"
            inst = load_instance(write(path, json.dumps({"values": rows})))
        else:
            rows = [[data.draw(CODE_CELLS) for _ in range(m)] for _ in range(n)]
            if m and data.draw(st.integers(0, 3)) == 0:  # a value past the digit limit
                rows[0][data.draw(st.integers(0, m - 1))] = F(1, 10**4300)
            inst = instance_from_rows(rows)
        got, want = written(inst)
        assert got == want

    @pytest.mark.parametrize("cell", ['"1e-4300"', '"1e4300"'], ids=["denominator", "numerator"])
    def test_a_loaded_value_past_the_digit_limit_is_refused_alike(self, cell, tmp_path, monkeypatch):
        inst = load_instance(write(tmp_path / "i.json", f'{{"values": [[{cell}], ["1"]]}}'))
        got, want = written(inst)
        assert got == want and "1" + "0" * 4300 in got  # written in pieces
        monkeypatch.setattr(core, "WRITE_DIGITS", 4300)
        got, want = written(inst)
        assert got == want == (DomainError, "rational too long to write: an integer over 4300 digits")

    def test_a_written_value_past_the_digit_limit_loads_back(self, tmp_path):
        rng = random.Random(3)
        cells = [F(1, 10**4300 + 1), F(10**4300, 3), F(10**WRITE_DIGITS - 1, 10**4300 + 7),
                 F(7, 10**WRITE_DIGITS - 3)]
        cells += [F(rng.randrange(10**rng.randint(4301, 30000)), rng.randrange(1, 10**rng.randint(4301, 30000)))
                  for _ in range(4)]
        inst = instance_from_rows([cells, [1] * len(cells)])
        assert load_instance(write(tmp_path / "i.json", instance_to_json(inst))) == inst

    def test_a_built_value_past_the_digit_limit_is_refused_alike(self):
        got, want = written(instance_from_rows([[F(1, 10**4300), 10**WRITE_DIGITS], [0, 1]]))
        assert got == want == (DomainError, f"rational too long to write: an integer over {WRITE_DIGITS} digits")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(2, 3), m=st.integers(0, 3))
    def test_equality_and_hash_follow_the_values_across_spellings(self, data, n, m, tmp_path_factory):
        (values_a, rows_a), (values_b, rows_b) = data.draw(spelled_rows(n, m)), data.draw(spelled_rows(n, m))
        if data.draw(st.booleans()):  # the same values, spelled anew
            rows_b = [[data.draw(st.sampled_from(SPELLINGS[k])) for k in row] for row in values_a]
        base = tmp_path_factory.getbasetemp()
        a = load_instance(write(base / "a.json", json.dumps({"values": rows_a})))
        b = load_instance(write(base / "b.json", json.dumps({"values": rows_b})))
        assert (a == b) == (a.values == b.values) == (b == a)
        if a == b:
            assert hash(a) == hash(b) == hash(instance_from_rows(b.values))


class TestCheckAllocation:
    @pytest.mark.parametrize("owner, bad", [((1, 0, 5), 0), ((1, 5, 0), 5), ((2, 2, -1), -1)])
    def test_the_first_owner_out_of_range_is_named(self, owner, bad):
        inst = instance_from_rows([[F(1)] * 3, [F(1)] * 3])
        with pytest.raises(DomainError) as refused:
            check_allocation(inst, Allocation(owner))
        assert str(refused.value) == f"owner {bad} out of range 1..2"

    def test_an_empty_allocation_of_no_goods_passes(self):
        assert check_allocation(instance_from_rows([[], []]), Allocation(())) is None

    def test_a_short_allocation_is_refused(self):
        with pytest.raises(DomainError, match="^allocation covers 2 goods, instance has 3$"):
            check_allocation(instance_from_rows([[F(1)] * 3] * 2), Allocation((1, 9)))


class TestAllocationFiles:
    def test_round_trip(self, tmp_path):
        alloc = Allocation((1, 2, 1))
        path = write(tmp_path / "a.json", json.dumps({"owner": list(alloc.owner)}))
        assert load_allocation(path) == alloc

    def test_owner_must_be_integers(self, tmp_path):
        path = write(tmp_path / "a.json", '{"owner": [1, "x"]}')
        with pytest.raises(ParseError):
            load_allocation(path)

    def test_json_integers_read_as_ints(self, tmp_path):
        digits = sys.get_int_max_str_digits()  # the longest literal int() takes
        for text in ("0", "-0", "7", "-12", "9" * digits, "-" + "9" * digits):
            path = write(tmp_path / "a.json", f'{{"owner": [{text}]}}')
            with _reading(path, "owner") as data:
                assert (type(data["owner"][0]), data["owner"][0]) == (int, int(text))
        path = write(tmp_path / "a.json", f'{{"owner": [{"9" * (digits + 1)}]}}')
        with pytest.raises(ParseError, match="an integer past Python's int-to-str digit limit"):
            with _reading(path, "owner"):
                pass

    @pytest.mark.parametrize(
        "owner, message",
        [("true", "owner entry must be an integer, got True"),
         ("9" * 5000, "an integer past Python's int-to-str digit limit")],
        ids=["bool", "past-digit-limit"],
    )
    def test_an_owner_that_is_not_an_integer_keeps_its_message(self, owner, message, tmp_path):
        path = write(tmp_path / "a.json", f'{{"owner": [1, {owner}]}}')
        with pytest.raises(ParseError) as refused:
            load_allocation(path)
        assert str(refused.value) == f"{path}: {message}"


@pytest.mark.parametrize("owner, message", [("1.5", "got 3/2"), ('"1"', "got '1'"), ("null", "got None")])
def test_an_owner_entry_that_is_not_an_integer_is_quoted_exactly(owner, message, tmp_path):
    path = write(tmp_path / "a.json", f'{{"owner": [1, {owner}]}}')
    with pytest.raises(ParseError) as refused:
        load_allocation(path)
    assert str(refused.value) == f"{path}: owner entry must be an integer, {message}"


class TestPredictions:
    """``run --algo miv`` reports the contract as ``prediction_contract_met``,
    read from the rule's ``seen_max`` flags; each case also checks it
    against ``check_predictions``, the contract by definition.  A count of
    predictions other than n is refused before the run (``tests/test_cli.py``)."""

    @staticmethod
    def contract_met(tmp_path, capsys, rows, pred):
        inst = write(tmp_path / "i.json", json.dumps({"values": rows}))
        p = write(tmp_path / "p.json", json.dumps({"p": list(map(str, pred.p)), "epsilon": str(pred.epsilon)}))
        assert main(["run", "--algo", "miv", "--instance", inst, "--predictions", p]) == 0
        met = json.loads(capsys.readouterr().out)["prediction_contract_met"]
        assert met is check_predictions(load_instance(inst), pred)
        return met

    def test_perfect_prediction_accepted(self, tmp_path, capsys):
        assert self.contract_met(tmp_path, capsys, [["1", "1/2"], ["1", "1"]], Predictions((F(1), F(1))))

    def test_overestimate_beyond_epsilon_rejected(self, tmp_path, capsys):
        pred = Predictions((F(1), F(1)), F(1, 4))
        assert not self.contract_met(tmp_path, capsys, [["1/2"], ["1"]], pred)  # 1/2 < 3/4

    def test_overestimate_within_epsilon_accepted(self, tmp_path, capsys):
        pred = Predictions((F(1), F(1)), F(1, 4))
        assert self.contract_met(tmp_path, capsys, [["4/5"], ["1"]], pred)  # 4/5 >= 3/4

    def test_contract_parameters_validated(self):
        with pytest.raises(DomainError):
            Predictions((F(0),))
        with pytest.raises(DomainError):
            Predictions((F(1),), F(1))
        with pytest.raises(DomainError):
            Predictions((F(1), F(1)), F(-1, 2))


class TestShown:
    """``_shown`` quotes a value in an error text, cut past 40 characters,
    and never raises."""

    @pytest.mark.parametrize("value", [F(3, 2), F(-4), 7, True, 0.5, "x", None, Decimal("0.5"), [1]])
    def test_a_short_value_keeps_its_text(self, value):
        assert _shown(value) == (str(value) if isinstance(value, F) else repr(value))

    def test_a_long_value_is_cut_to_its_first_forty_characters_and_its_length(self):
        assert _shown(F(1, 10**4400)) == "1/1" + "0" * 37 + "… (4403 characters)"
        assert _shown(-(10**4400)) == "-1" + "0" * 38 + "… (4402 characters)"
        assert _shown("a" * 50) == "'" + "a" * 39 + "… (52 characters)"

    def test_a_value_that_cannot_be_written_is_named_by_its_type(self):
        class Unrepresentable:
            def __repr__(self):
                raise RuntimeError("no text")

        assert _shown(Unrepresentable()) == "<unwritable Unrepresentable>"
        assert _shown(10**WRITE_DIGITS) == "<unwritable int>"


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


class TestRationalFieldAxioms:
    """Sanity net over the exact-arithmetic layer."""

    @given(rationals, rationals, rationals)
    def test_associativity_and_distributivity(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(rationals)
    def test_inverses(self, x):
        assert x + (-x) == 0
        if x != 0:
            assert x * (1 / x) == 1

    @given(st.fractions(max_denominator=1000))
    def test_lowest_terms(self, x):
        from math import gcd

        assert gcd(x.numerator, x.denominator) == 1
        assert x.denominator > 0


def test_instance_is_immutable(tmp_path):
    loaded = load_instance(write(tmp_path / "i.json", '{"values": [["1"], ["1"]]}'))
    for inst in (instance_from_rows([[F(1)], [F(1)]]), loaded):
        for field in ("values", "scaled", "n"):
            with pytest.raises(AttributeError):
                setattr(inst, field, ())


#: Strings with every character class json escapes: quotes, backslashes,
#: control characters, non-ASCII (astral included) and the line separators.
json_strings = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\u2028\u2029\U0001f600')), max_size=8
)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**100), max_value=2**100),
    st.floats(),  # written by the fallback
    json_strings,
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(json_strings, children, max_size=5),
    ),
    max_leaves=15,
)


#: Rows of one kind, which ``_encode`` writes in one piece when they are all
#: ints or all strs, and ints mixed with bools, which it must write item by item.
json_rows = st.one_of(
    st.lists(st.integers(), max_size=50),
    st.lists(st.integers(1, 5), max_size=50),
    st.lists(json_strings, max_size=50),
    st.lists(st.booleans(), max_size=50),
    st.lists(st.one_of(st.integers(0, 5), st.booleans()), max_size=50),
)


class TestWriter:
    """``_dumps`` against the json call whose bytes it keeps."""

    @given(st.dictionaries(json_strings, st.one_of(json_values, json_rows), max_size=3))
    def test_writes_what_json_dumps_writes(self, payload):
        assert _dumps(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "payload",
        [{}, {"a": {}}, {"a": []}, {"a": [[], {}, ()]}, {"a": [True, False, None, 1]}, {"a": [{"b": [[]]}]},
         {"a": [1, True]}, {"a": (2, 1, 0)}],
    )
    def test_empty_and_nested_empty_containers(self, payload):
        assert _dumps(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_a_value_json_cannot_write_is_refused_as_json_refuses_it(self):
        """A Fraction, a Decimal and ``INF`` are the writer's own: each is the
        string ``format_rational`` gives, in a row or alone.  Any other object
        json cannot write is still refused with json's ``TypeError``."""
        long = F(10**4400 + 1, 3 * 10**4400)
        rationals = [F(1, 2), F(3), long, Decimal("0.125"), Decimal("1E-40"), math.inf]
        payload = {"row": rationals, "one": F(-2, 3), "mixed": [1, F(1, 2), 0.5, "x", None]}
        written = {"row": list(map(format_rational, rationals)), "one": "-2/3", "mixed": [1, "1/2", 0.5, "x", None]}
        assert _dumps(payload) == json.dumps(written, indent=2, sort_keys=True) + "\n"
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            _dumps({"a": [{1, 2}]})
