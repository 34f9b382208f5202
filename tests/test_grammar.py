"""Grammar round-trips and syntax errors with positions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epshift import grammar
from epshift.core import Element, ZERO
from epshift.errors import ParseError
from epshift.family import Family
from epshift.omega_sets import EMPTY, EpSet

from test_omega_sets import epsets


def test_parse_set_literals():
    assert grammar.parse_set("{}") == EMPTY
    assert grammar.parse_set("{0,2}") == EpSet.of(0, 2)
    assert grammar.parse_set("[3)") == EpSet.ray(3)
    assert grammar.parse_set("2+3*w") == EpSet.progression(2, 3)
    assert grammar.parse_set("{0,2}|[7)") == EpSet.of(0, 2) | EpSet.ray(7)
    assert grammar.parse_set(" { 0 , 2 } | [ 7 ) ") \
        == grammar.parse_set("{0,2}|[7)")


def test_parse_set_normalizes():
    # a union that collapses to a ray prints as the ray
    f = grammar.parse_set("{0}|[1)")
    assert f == EpSet.ray(0)
    assert str(f) == "[0)"
    assert grammar.parse_set("3+1*w") == EpSet.ray(3)


def test_parse_element_literals():
    assert grammar.parse_element("0") is ZERO
    assert grammar.parse_element("(0,-2;{1})") == Element(0, -2, EpSet.of(1))
    assert grammar.parse_element("( 1 , 2 ; [0) )") == Element(1, 2, EpSet.ray(0))
    # an explicitly empty set component is the zero class
    assert grammar.parse_element("(3,4;{})") is ZERO


def test_parse_family_literals():
    fam = grammar.parse_family("family{ {}; 2+3*w }")
    assert isinstance(fam, Family)
    assert set(fam.members) == {EMPTY, EpSet.progression(2, 3)}
    closed = grammar.parse_family("closure{ {0,1} }")
    assert set(closed.members) == {EMPTY, EpSet.of(0), EpSet.of(0, 1)}
    with_trailing = grammar.parse_family("family{ {}; {3}; }")
    assert set(with_trailing.members) == {EMPTY, EpSet.of(3)}


def test_parse_command_shapes():
    cmd = grammar.parse_command("eval (0,0;[0)) * (1,1;[0))")
    assert isinstance(cmd, grammar.EvalCmd) and len(cmd.factors) == 2
    cmd = grammar.parse_command("classify closure{ {0,1} }")
    assert isinstance(cmd, grammar.ClassifyCmd) and cmd.kind == "closure"
    cmd = grammar.parse_command("green (0,3;{2}) (0,7;{2}) R")
    assert isinstance(cmd, grammar.GreenCmd) and cmd.rel == "R"
    cmd = grammar.parse_command("order (1,1;[0)) (0,0;[0))")
    assert isinstance(cmd, grammar.OrderCmd)
    cmd = grammar.parse_command("map sigma (2,5;[0))")
    assert isinstance(cmd, grammar.MapCmd) and cmd.name == "sigma"
    cmd = grammar.parse_command("map reindex(2,0,3) (0,1;2+3*w)")
    assert cmd.args == (2, 0, 3)
    cmd = grammar.parse_command("closure{ {3} }")
    assert isinstance(cmd, grammar.ClosureCmd)
    cmd = grammar.parse_command("check-hom brandt")
    assert isinstance(cmd, grammar.CheckHomCmd) and cmd.name == "brandt"
    cmd = grammar.parse_command("oracle-check")
    assert isinstance(cmd, grammar.SelfTestCmd) and cmd.suite == "oracle"
    cmd = grammar.parse_command("selftest green")
    assert isinstance(cmd, grammar.SelfTestCmd) and cmd.suite == "green"
    assert grammar.parse_command("selftest").suite is None


def test_syntax_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        grammar.parse_set("{0,}")
    assert err.value.line == 1 and err.value.col == 4
    with pytest.raises(ParseError) as err:
        grammar.parse_element("(0,1;{2}")
    assert err.value.col == 9
    with pytest.raises(ParseError) as err:
        grammar.parse_command("green (0,0;{1}) (0,0;{1}) Q")
    assert "R" in " ".join(err.value.expected)
    # digits that are not decimal are no integer literal, and a letter
    # outside ASCII starts no name; a decimal digit of another script is one
    for text, col in (("eval (²,0;{1})", 7), ("eval (0,0;{①})", 12),
                      ("é {0}", 1), ("map σ (0,0;{1})", 5)):
        with pytest.raises(ParseError) as err:
            grammar.parse_command(text)
        assert (err.value.line, err.value.col) == (1, col)
        assert err.value.message == f"unexpected character {text[col - 1]!r}"
    assert grammar.parse_element("(٣,0;{1})") == Element(3, 0, EpSet.of(1))
    with pytest.raises(ParseError):
        grammar.parse_set("{-1}")
    with pytest.raises(ParseError):
        grammar.parse_set("[3) extra")
    with pytest.raises(ParseError):
        grammar.parse_command("frobnicate {0}")
    with pytest.raises(ParseError) as err:
        grammar.parse_set("{0}\n| [x)")
    assert err.value.line == 2


@given(epsets())
@settings(max_examples=400)
def test_set_print_parse_round_trip(f):
    assert grammar.parse_set(str(f)) == f


@given(epsets(), st.integers(-30, 30), st.integers(-30, 30))
@settings(max_examples=200)
def test_element_print_parse_round_trip(f, i, j):
    e = ZERO if f.is_empty else Element(i, j, f)
    assert grammar.parse_element(str(e)) == e


def test_family_print_parse_round_trip():
    fam = Family([EMPTY, EpSet.of(0), EpSet.of(0, 1)])
    assert grammar.parse_family(str(fam)) == fam


def test_repr_mentions_parseable_text():
    f = EpSet.progression(2, 3)
    assert "2+3*w" in repr(f)
    assert EpSet.parse("2+3*w") == f
    assert Element.parse("(0,1;2+3*w)") == Element(0, 1, f)
