"""The inputs on which a statement scanner is easiest to get wrong; the
slice of ``parser_differential.py`` is in ``test_differential_runner.py``."""

import re

import pytest

from cqstar import parser
from cqstar.parser import ParseError, parse_facts

from oracles import parse_facts_reference


@pytest.mark.parametrize(
    "text, message",
    [
        # a comment runs to the end of its line, so no statement starts inside it
        ("#c\n(a,b).", "f:2:1: expected 'name', found '('"),
        ("P(a). #c\n(a,b).", "f:2:1: expected 'name', found '('"),
        # a bad character anywhere outranks an earlier arity error
        ('A(a1).A(b,c)."', "f:1:14: unexpected character '\"'"),
        ("A(a1).A(b,c).\n\n  B(x) & C(y).", "f:3:8: unexpected character '&'"),
        # the arity error itself, raised from a plain statement
        ("A(a1).\n A(b,c).\nB(x).", "f:2:2: predicate 'A' used with arity 2, earlier 1 (earlier at f:1:1)"),
        # a plain first use and a clash in a statement the token cursor reads
        ('P(a).\nQ("x").\nP(a, b).', "f:3:1: predicate 'P' used with arity 2, earlier 1 (earlier at f:1:1)"),
        # a first use and a clash in the plain statements after a cursor statement
        ('Q("x").\nP(a).\nP(a, b).', "f:3:1: predicate 'P' used with arity 2, earlier 1 (earlier at f:2:1)"),
        ('Q("x").\nP(a).\nP(a, b).\n@', "f:4:1: unexpected character '@'"),
        # a clash inside the second plain run, with the first use in the first
        ('P(a).\nQ(b, c).\nS("x").\nQ(d, e).\nP(f).\n  P(g, h).\nQ(i, j).\n',
         "f:6:3: predicate 'P' used with arity 2, earlier 1 (earlier at f:1:1)"),
        # rows of arity 0 and 1 hold the same number of commas
        ("P().\nP(a).", "f:2:1: predicate 'P' used with arity 1, earlier 0 (earlier at f:1:1)"),
        # a clash far from the first use, after many changes of predicate
        ("A(a).\nB(b, c).\n" * 50 + "B(d).", "f:101:1: predicate 'B' used with arity 1, earlier 2 (earlier at f:2:1)"),
        # a run of whitespace or comments before a stray token fails in linear
        # time; nested quantifiers over it would never return
        ("P(a)." + " " * 10_000 + "(", "f:1:10006: expected 'name', found '('"),
        ("P(a).\n" + "# c\n" * 10_000 + "(", "f:10002:1: expected 'name', found '('"),
        ("P(" + " " * 10_000 + "a" + " " * 10_000 + "b).", "f:1:20004: expected ')', found 'b'"),
    ],
    ids=[
        "comment-then-paren", "fact-comment-then-paren", "bad-char-after-arity", "bad-char-lines-later",
        "arity", "arity-plain-then-cursor", "arity-after-resume", "bad-char-after-resume", "arity-in-second-run",
        "arity-0-then-1", "arity-far",
        "spaces-before-paren", "comments-before-paren", "spaces-inside",
    ],
)
def test_facts_scanner_traps(text, message):
    with pytest.raises(ParseError) as err:
        parse_facts(text, "f")
    assert str(err.value) == message
    with pytest.raises(ParseError) as ref:
        parse_facts_reference(text, "f")
    assert str(ref.value) == message


def test_comment_only_line_holds_no_fact():
    assert parse_facts("#(a). Q(b).\nP(c).").relations.keys() == {"P"}
    assert parse_facts("P(a).#(a). Q(b).").relations.keys() == {"P"}


def test_plain_and_handed_over_statements_agree():
    """The same facts read by the scanner alone and after a hand-over to the
    token cursor (a quoted constant first) give the same relations."""
    plain = "P(a, 1).\n  # c\nQ( b ,c ) .\nP(\ta\t,\t2).\nR().\n"
    for text in (plain, 'S("x").\n' + plain, plain + 'S("x").\n', plain + 'S("x").\n' + plain):
        s = parse_facts(text)
        assert s == parse_facts_reference(text)
        names = {name: {tuple(s.domain[v] for v in row) for row in rel.rows} for name, rel in s.relations.items()}
        assert names["P"] == {("a", "1"), ("a", "2")}
        assert names["Q"] == {("b", "c")}
        assert names["R"] == {()}


def test_plain_statements_after_a_quoted_one_skip_the_cursor(monkeypatch):
    """One quoted constant at the top of a large file costs the token cursor
    one statement: the plain statements after it are matched again."""
    items = parser._Cursor.items
    read = []

    def counted(cur, item):
        read.append(cur.peek()[2])
        return items(cur, item)

    text = 'S("x y").\n' + "".join(f"E(v{i}, w{i}).\n" for i in range(3000))
    want = parse_facts_reference(text)  # reads every statement with the cursor
    monkeypatch.setattr(parser._Cursor, "items", counted)
    assert parse_facts(text) == want
    assert read == [1]


def _agrees(text: str):
    """``parse_facts(text)``, which must equal the reference's structure."""
    s = parse_facts(text, "f")
    assert s == parse_facts_reference(text, "f")
    return s


def test_whitespace_of_str_split_is_the_regex_whitespace():
    """The run reader finds a run with the regex ``\\s`` and then removes its
    whitespace with ``str.split()``; both must take the same characters."""
    every = "".join(map(chr, range(0x110000)))
    assert "".join(every.split()) == re.sub(r"\s", "", every)


@pytest.mark.parametrize("space", ["\x1c", "\x85", "\u2028", "\u3000", "\xa0"])
def test_runs_read_unicode_whitespace(space):
    text = space.join(["P(a,b).", f"Q({space}c{space},{space}1{space}){space}.", "R().", "P(b,a)."]) + space
    s = _agrees(text)
    assert {name: len(rel.rows) for name, rel in s.relations.items()} == {"P": 2, "Q": 1, "R": 1}
    assert s.domain == ("a", "b", "c", "1")


def test_runs_read_a_comment_line_between_every_statement():
    text = "".join(f"# fact {i} (x, y).\nE(v{i % 7}, w{i % 5}).\n" for i in range(200)) + "# end"
    s = _agrees(text)
    assert len(s.relations["E"].rows) == 35


def test_runs_read_predicates_and_arities_that_change_every_statement():
    preds = ["Z", "O", "T", "H"]  # arities 0, 1, 2 and 3
    text = "".join(
        f"{preds[i % 4]}({', '.join(f'c{(i + j) % 11}' for j in range(i % 4))}).\n" for i in range(400)
    )
    s = _agrees(text)
    assert {name: len(rel.schema) for name, rel in s.relations.items()} == {"Z": 0, "O": 1, "T": 2, "H": 3}
    assert s.relations["Z"].rows == {()}
