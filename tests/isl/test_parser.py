"""Unit tests for the ISL-notation parser and printer round-trips."""

import pytest

from repro.isl import ParseError, parse, parse_map, parse_set, points


class TestSets:
    def test_simple_box(self):
        s = parse_set("{ S[i,j] : 0 <= i < 3 and 0 <= j < 2 }")
        assert s.space.out_name == "S"
        assert sorted(points(s)) == [(i, j) for i in range(3)
                                     for j in range(2)]

    def test_chained_comparison(self):
        s = parse_set("{ [i] : 0 <= i <= 5 }")
        assert sorted(points(s)) == [(i,) for i in range(6)]

    def test_comma_groups(self):
        s = parse_set("{ [i,j] : 0 <= i, j < 3 }")
        assert len(list(points(s))) == 9

    def test_or_makes_pieces(self):
        s = parse_set("{ [i] : i = 0 or i = 7 }")
        assert len(s.pieces) == 2
        assert sorted(points(s)) == [(0,), (7,)]

    def test_not_equal(self):
        s = parse_set("{ [i] : 0 <= i < 4 and i != 2 }")
        assert sorted(points(s)) == [(0,), (1,), (3,)]

    def test_true_false(self):
        assert not parse_set("{ [i] : true and 0 <= i < 1 }").is_empty()
        assert parse_set("{ [i] : false }").is_empty()

    def test_params_declared_and_inferred(self):
        s = parse_set("[N] -> { [i] : 0 <= i < N }")
        assert s.space.params == ("N",)
        t = parse_set("{ [i] : 0 <= i < M }")  # M inferred
        assert "M" in t.space.params

    def test_exists(self):
        s = parse_set("{ [i] : exists a : i = 5a and 0 <= i < 20 }")
        assert sorted(points(s)) == [(0,), (5,), (10,), (15,)]

    def test_mod(self):
        s = parse_set("{ [i] : i mod 4 = 1 and 0 <= i < 10 }")
        assert sorted(points(s)) == [(1,), (5,), (9,)]

    def test_negative_mod_semantics(self):
        # floor-division mod: -3 % 4 == 1.
        s = parse_set("{ [i] : i % 4 = 1 and -5 <= i <= 0 }")
        assert sorted(points(s)) == [(-3,)]

    def test_implicit_multiplication(self):
        s = parse_set("{ [i,j] : j = 2i and 0 <= i <= 2 }")
        assert sorted(points(s)) == [(0, 0), (1, 2), (2, 4)]

    def test_semicolon_union(self):
        s = parse_set("{ [i] : i = 1; [i] : i = 9 }")
        assert sorted(points(s)) == [(1,), (9,)]


class TestMaps:
    def test_expression_outputs(self):
        m = parse_map("{ [i,j] -> [j,i] }")
        assert m.contains_point([1, 2], [2, 1])

    def test_reused_name_means_equality(self):
        m = parse_map("{ S[i] -> T[i] }")
        assert m.contains_point([3], [3])
        assert not m.contains_point([3], [4])

    def test_floor(self):
        m = parse_map("{ [i] -> [floor(i/3)] }")
        assert m.contains_point([8], [2])
        assert m.contains_point([-1], [-1])
        assert not m.contains_point([8], [3])

    def test_tiling_map(self):
        m = parse_map("{ S[i] -> S[i0, i1] : i0 = floor(i/4) "
                      "and i1 = i % 4 }")
        assert m.contains_point([9], [2, 1])
        assert not m.contains_point([9], [2, 2])

    def test_exact_division(self):
        m = parse_map("{ [i] -> [i / 2] }")
        assert m.contains_point([6], [3])
        assert not m.contains_point([7], [3])  # 7/2 not exact

    def test_map_with_condition(self):
        m = parse_map("[N] -> { [i] -> [i+1] : 0 <= i < N }")
        assert m.contains_point([0], [1], param_vals={"N": 4})
        assert not m.contains_point([4], [5], param_vals={"N": 4})


class TestErrors:
    def test_unclosed_brace(self):
        with pytest.raises(ParseError):
            parse("{ [i] : i = 0 ")

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse("{ [i] : i ? 0 }")

    def test_nonaffine_product(self):
        with pytest.raises(ParseError):
            parse("{ [i,j] : i*j = 4 }")

    def test_set_vs_map_guards(self):
        with pytest.raises(ParseError):
            parse_map("{ [i] : i = 0 }")
        with pytest.raises(ParseError):
            parse_set("{ [i] -> [i] }")

    def test_empty_braces(self):
        with pytest.raises(ParseError):
            parse("{ }")


class TestPrintRoundTrip:
    CASES = [
        "{ S[i, j] : 0 <= i < 5 and 0 <= j <= i }",
        "[N] -> { [i] : 0 <= i < N }",
        "{ [i] -> [i + 2] : i >= 0 }",
        "{ [i] : exists e : i = 3e and 0 <= i < 12 }",
        "{ S[i, j] -> T[j, i] : i >= j }",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_print_parse(self, text):
        first = parse(text)
        printed = repr(first)
        second = parse(printed)
        try:
            if first.is_equal(second):
                return
        except NotImplementedError:
            pass  # subtract unavailable with divs; compare points instead
        assert _sample_points(first) == _sample_points(second)


def _sample_points(obj):
    """Concrete points of a (possibly parametric / unbounded) object,
    restricted to a test window."""
    from repro.isl import Set, parse_set
    sset = Set([p.to_set() for p in obj.pieces]) if obj.space.is_map \
        else obj
    dims = ", ".join(f"w{k}" for k in range(len(sset.space.out_dims)))
    conds = " and ".join(f"-8 <= w{k} <= 8"
                         for k in range(len(sset.space.out_dims)))
    window = parse_set(f"{{ [{dims}] : {conds} }}")
    boxed = sset.intersect(
        window.__class__([p.rename_tuple(out_name=sset.space.out_name,
                                         keep_out=False)
                          for p in window.pieces]))
    return sorted(points(boxed, {"N": 6}))
