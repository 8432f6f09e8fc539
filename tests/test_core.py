import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from relpat.core import (
    Alphabet,
    Constraint,
    PatternSyntaxError,
    RelationalPattern,
    parse_document,
    parse_relational_pattern,
    print_relational_pattern,
    Mode,
)
from relpat.machines import parse_automaton
from relpat.reductions import read_dimacs
from relpat.relations import RelationKind

from helpers import make_rp


def test_parse_reversal_example():
    rp = parse_relational_pattern("alphabet:abc; pattern: x1 c c x2; rel: rev(x1,x2)")
    assert rp.alphabet.letters == ("a", "b", "c")
    assert rp.symbols == (1, "c", "c", 2)
    assert rp.constraints == {Constraint(RelationKind.REVERSAL, 1, 2)}


def test_parse_terminal_only():
    rp = parse_relational_pattern("alphabet:ab; pattern: a b")
    assert rp.symbols == ("a", "b")
    assert rp.constraints == frozenset()


def test_parse_repeated_variable_rejected():
    with pytest.raises(PatternSyntaxError, match="repeated"):
        parse_relational_pattern("alphabet:ab; pattern: x1 x1")


def test_parse_unknown_relation_name():
    with pytest.raises(PatternSyntaxError, match="unknown relation"):
        parse_relational_pattern("alphabet:ab; pattern: x1 x2; rel: weird(x1,x2)")


def test_parse_constraint_variable_absent():
    with pytest.raises(PatternSyntaxError, match="absent"):
        parse_relational_pattern("alphabet:ab; pattern: x1 x2; rel: eq(x1,x3)")


def test_parse_bad_token_reports_position():
    with pytest.raises(PatternSyntaxError, match="token 2"):
        parse_relational_pattern("alphabet:ab; pattern: a zz b")


def test_parse_newline_separated_clauses_and_mode():
    rp, mode = parse_document("alphabet:01#\npattern: x1 # x2\nmode: NE\n")
    assert rp.symbols == (1, "#", 2)
    assert mode is Mode.NE


def test_parse_renumbers_with_warning():
    with pytest.warns(UserWarning, match="renumbered"):
        rp = parse_relational_pattern("alphabet:ab; pattern: x7 a x2; rel: eq(x7,x2)")
    assert rp.symbols == (1, "a", 2)
    assert rp.constraints == {Constraint(RelationKind.EQ, 1, 2)}


def test_print_canonical_reversal_example():
    rp = parse_relational_pattern("alphabet:abc;pattern:  x1  c c   x2 ;rel: rev( x1 , x2 )")
    assert print_relational_pattern(rp) == "alphabet:abc; pattern: x1 c c x2; rel: rev(x1,x2)"


def test_print_preserves_constraint_direction():
    rp = make_rp((1, "a", 2), {Constraint(RelationKind.EQ, 2, 1)})
    assert print_relational_pattern(rp) == "alphabet:ab; pattern: x1 a x2; rel: eq(x2,x1)"


def test_print_omits_empty_rel_clause():
    rp = make_rp(("a", 1))
    assert print_relational_pattern(rp) == "alphabet:ab; pattern: a x1"


def test_duplicate_constraints_collapse():
    rp = make_rp(
        (1, 2),
        [Constraint(RelationKind.SUBSEQ, 1, 2), Constraint(RelationKind.SUBSEQ, 1, 2)],
    )
    assert len(rp.constraints) == 1


def test_alphabet_rejects_collisions_and_duplicates():
    with pytest.raises(ValueError):
        Alphabet.of("ax")  # 'x' is the variable prefix
    with pytest.raises(ValueError):
        Alphabet.of("aa")
    with pytest.raises(ValueError):
        Alphabet.of("")


@pytest.mark.parametrize("space", ["\x0b", "\x0c", "\x1c", "\xa0", "\u2028"])
def test_alphabet_rejects_whitespace_letters(space):
    # A whitespace letter would print as text that parses back as another pattern.
    with pytest.raises(ValueError, match="collides"):
        Alphabet.of("a" + space)
    with pytest.raises(PatternSyntaxError, match="collides"):
        parse_document(f"alphabet: a{space}b; pattern: a")


def test_rel_field_parse_is_linear():
    text = "alphabet:ab; pattern: x1 x2; rel: eq(x1,x2)" + "," * 100_000 + ")"
    start = time.perf_counter()
    with pytest.raises(PatternSyntaxError, match="malformed relation"):
        parse_document(text)
    assert time.perf_counter() - start < 1.0


def test_relational_pattern_invariants():
    with pytest.raises(ValueError):
        make_rp((1, "a", 1))  # repeated variable
    with pytest.raises(ValueError):
        make_rp(("c",))  # terminal outside alphabet
    with pytest.raises(ValueError):
        make_rp((1,), {Constraint(RelationKind.EQ, 1, 2)})  # x2 missing
    with pytest.raises(ValueError):
        make_rp(())


@st.composite
def normal_patterns(draw):
    letters = draw(st.sampled_from(["ab", "01#", "abc"]))
    alphabet = Alphabet.of(letters)
    num_vars = draw(st.integers(0, 4))
    extra = draw(st.lists(st.sampled_from(letters), max_size=5))
    slots = list(range(1, num_vars + 1)) + extra
    order = draw(st.permutations(slots))
    # keep the first occurrences increasing: renumber by occurrence
    seen: dict[int, int] = {}
    symbols = []
    for sym in order:
        if isinstance(sym, int):
            symbols.append(seen.setdefault(sym, len(seen) + 1))
        else:
            symbols.append(sym)
    if not symbols:
        symbols = [letters[0]]
    constraints = set()
    if num_vars >= 2:
        pairs = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(list(RelationKind)),
                    st.integers(1, num_vars),
                    st.integers(1, num_vars),
                ),
                max_size=3,
            )
        )
        constraints = {Constraint(kind, left, right) for kind, left, right in pairs}
    return RelationalPattern(alphabet, tuple(symbols), frozenset(constraints))


_SPACE = st.text(alphabet=" \t\x0b\x0c", max_size=2)
_PRINTED_REL_ITEM = re.compile(r"([a-z+*]+)\((x\d+),(x\d+)\)")


@settings(max_examples=200, deadline=None)
@given(normal_patterns(), st.data())
def test_parse_print_round_trip(rp, data):
    text = print_relational_pattern(rp)
    assert parse_relational_pattern(text) == rp
    # The same rel: field with whitespace around every token and blank items.
    head, _, rel = text.partition("; rel: ")
    items = []
    for item in rel.split(", ") if rel else []:
        name, left, right = _PRINTED_REL_ITEM.fullmatch(item).groups()
        items += data.draw(st.lists(_SPACE, max_size=2))
        w = [data.draw(_SPACE) for _ in range(6)]
        items.append(f"{w[0]}{name}{w[1]}({w[2]}{left}{w[3]},{w[4]}{right}{w[5]})")
    items += data.draw(st.lists(_SPACE, max_size=2))
    assert parse_relational_pattern(f"{head}; rel: {','.join(items)}") == rp


_PARSER_TEXT = st.one_of(
    st.text(),
    st.text(alphabet="abcx0123456789 \t\n:;,()-+#>qpnf/%"),
)


@pytest.mark.parametrize("parse", [parse_document, parse_automaton, read_dimacs])
@settings(max_examples=300, deadline=None)
@given(text=_PARSER_TEXT)
def test_parsers_raise_only_syntax_or_value_errors(parse, text):
    try:
        parse(text)
    except ValueError:  # PatternSyntaxError is a ValueError
        pass
