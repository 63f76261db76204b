"""Parsers and serializers for the query, fact, graph, and decomposition
file formats. This module is the only place concrete syntax lives.

Formats:
  .cq          ans(v1,...,vm) :- A1(...), ..., An(...).
  .facts       P(a,b,c). one fact per statement; constants are identifiers,
               integers, or double-quoted strings whose only escapes are a
               backslash before a backslash, a quote, n, r or t;
               duplicates collapse. A # comment runs to the end of its line
               and may stand between any two tokens.
  .edges       line-oriented "u v" pairs, 0-based; optional leading "n <int>",
               which bounds every vertex index.
  .decomp.json {"kind": ..., "nodes": [{"id", "parent", "lambda", "chi",
               "weights"?}]} with guard entries as 0-based atom ordinals.

Queries go through one token cursor, which reads ``(kind, text, offset)``
tuples with ``_TOKEN`` one at a time, as the parser asks for them. Before
it reports an error it looks ahead for a character no token starts with,
and reports the first such character instead. Facts are read a run of plain
statements at a time (a name and name or number constants, with whitespace
between tokens and comments before it). One ``_RUN`` match finds where the
run stops; with its comments and whitespace removed, string splits cut it
into predicates and constant lists, and the rows are built from them with
no Python step per statement. From the first offset where no plain
statement starts, a token cursor reads each statement that is not plain,
so quoted constants, comments inside a statement and every error get the
same diagnostics as when the cursor read the whole text. After each such
statement the run of plain statements that follows is read the same way,
and the cursor resumes where it stops.

A ParseError names its position as file:line:column. Lines and columns are
1-based, and a column counts characters, so a tab is one column.
"""

from __future__ import annotations

import json
import re
import sys
from collections import defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count, islice, repeat
from operator import add
from typing import Optional

from .decomposition import Decomposition, DecompKind, DecompNode
from .engine import Relation, Structure, _collector_paused
from .errors import CqstarError, DecompositionInvalid, VariableWithoutAtom
from .generators import SimpleGraph
from .hypergraph import Atom, Query, edge_sort_key


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    column: int

    @classmethod
    def at(cls, text: str, offset: int, file: str) -> "SourceSpan":
        """The position of ``text[offset]``: one more than the newlines
        before it, and one more than the characters since the last of them."""
        return cls(file, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))

    def __str__(self):
        return f"{self.file}:{self.line}:{self.column}"


class ParseError(CqstarError):
    def __init__(self, message: str, span: SourceSpan, other: Optional[SourceSpan] = None):
        suffix = f" (earlier at {other})" if other else ""
        super().__init__(f"{span}: {message}{suffix}")
        self.span = span
        self.other = other


_NAME = r"[A-Za-z_][A-Za-z0-9_]*+"

# One match per token: whitespace and comments are skipped before it. The
# ``bad`` group takes any character no other token starts with, and ``eof``
# is the empty match at the end of the text.
_TOKEN = re.compile(
    rf"""(?:\s+|\#[^\n]*)*
      (?: (?P<name>{_NAME})
        | (?P<number>\d+)
        | (?P<string>"(?:[^"\\\n]|\\.)*")
        | (?P<arrow>:-)
        | (?P<punct>[(),.])
        | (?P<eof>\Z)
        | (?P<bad>.)
      )""",
    re.VERBOSE,
)


class _Cursor:
    """Reads ``(kind, text, offset)`` tokens one at a time from ``start``, as
    the parser asks for them; a ``SourceSpan`` is built only for an error.
    Since the text ahead is not tokenized yet, an error first looks for a
    character no token starts with and reports that one instead: a bad
    character anywhere after the cursor's start outranks any other error."""

    def __init__(self, text: str, filename: str, start: int = 0):
        self.text = text
        self.filename = filename
        self.seek(start)

    def seek(self, offset: int) -> None:
        """Read on from ``offset``, which must not lie inside a token."""
        self._match = _TOKEN.scanner(self.text, offset).match
        self.token = self._read()

    def _read(self) -> tuple:
        m = self._match()
        kind = m.lastgroup
        if kind == "bad":
            raise self._error(f"unexpected character {m[kind]!r}", m.start(kind))
        return kind, m[kind], m.start(kind)

    def _error(self, message: str, offset: int, other: Optional[int] = None) -> ParseError:
        span = SourceSpan.at(self.text, offset, self.filename)
        earlier = None if other is None else SourceSpan.at(self.text, other, self.filename)
        return ParseError(message, span, earlier)

    def error(self, message: str, offset: int, other: Optional[int] = None) -> ParseError:
        for m in _TOKEN.finditer(self.text, self.token[2]):
            if m.lastgroup == "bad":
                return self._error(f"unexpected character {m['bad']!r}", m.start("bad"))
        return self._error(message, offset, other)

    def peek(self) -> tuple:
        return self.token

    def next(self) -> tuple:
        tok = self.token
        if tok[0] != "eof":
            self.token = self._read()
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> tuple:
        tok = self.token
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text or kind
            raise self.error(f"expected {want!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return self.next()

    def items(self, item) -> tuple:
        """Parse ``( item, item, ... )``, calling ``item()`` once per item;
        return the closing token."""
        self.expect("punct", "(")
        if self.peek()[1] != ")":
            item()
            while self.peek()[1] == ",":
                self.next()
                item()
        return self.expect("punct", ")")


def parse_query(text: str, filename: str = "<query>") -> Query:
    """``head(v1,...,vm) :- A1(t...), ..., An(t...).`` — head variables are
    free, every other body variable is existentially quantified. A head
    variable in no atom is a ``ParseError`` at that variable; ``Query``
    makes the check."""
    cur = _Cursor(text, filename)
    head = cur.expect("name")
    free: dict[str, int] = {}  # each head variable and its offset

    def head_variable():
        _, name, offset = cur.expect("name")
        if name in free:
            raise cur.error(f"duplicate head variable {name!r}", offset)
        free[name] = offset

    cur.items(head_variable)
    cur.expect("arrow")
    atoms: list[Atom] = []
    while True:
        pred = cur.expect("name")
        terms: list[str] = []
        close = cur.items(lambda: terms.append(cur.expect("name")[1]))
        if not terms:
            raise cur.error("atoms need at least one variable", close[2])
        atoms.append(Atom(pred[1], tuple(terms)))
        if cur.peek()[1] != ",":
            break
        cur.next()
    cur.expect("punct", ".")
    cur.expect("eof")
    try:
        return Query(head[1], tuple(free), tuple(atoms))
    except VariableWithoutAtom as exc:
        raise cur.error(str(exc), free[exc.variable]) from None


def query_to_text(query: Query) -> str:
    head = f"{query.head}({', '.join(query.free_vars)})"
    body = ", ".join(f"{a.predicate}({', '.join(a.variables)})" for a in query.atoms)
    return f"{head} :- {body}.\n"


# constants the tokenizer reads back as one name or number token
_PLAIN_CONST = re.compile(rf"(?:{_NAME}|[0-9]+)\Z")
# the one escape set of quoted constants, shared by the parser and the writer
_UNESCAPE = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
_ESCAPE = {char: "\\" + code for code, char in _UNESCAPE.items()}

# One plain fact statement: the whitespace and comments before it, then a
# name, ``(``, name or number constants separated by ``,``, ``)`` and ``.``.
# Each repetition of the prefix takes one whitespace character or one whole
# comment, which runs to the end of its line, and the prefix is atomic: a name
# cannot start with either, so giving any of it back never helps. Every other
# quantifier is possessive, since what follows it can never start what it
# takes. No match therefore backtracks through the splits of a run of spaces,
# and a run of statements is found in time linear in its length.
_CONST = rf"(?:{_NAME}|\d++)"
_PLAIN = rf"""(?>(?:\s|\#[^\n]*+)*)
      (?P<pred>{_NAME}) \s*+\(\s*+
      (?:(?P<consts>{_CONST}(?:\s*+,\s*+{_CONST})*+)\s*+)?+
      \)\s*+\."""
_FACT = re.compile(_PLAIN, re.VERBOSE)
# A run of plain statements, as many as follow each other, without captures.
_RUN = re.compile(f"(?:{_PLAIN.replace('?P<pred>', '?:').replace('?P<consts>', '?:')})*+", re.VERBOSE)
_COMMENT = re.compile(r"#[^\n]*")


def _unquote(cur: _Cursor, raw: str, offset: int) -> str:
    def unescape(m: re.Match) -> str:
        char = _UNESCAPE.get(m.group(1))
        if char is None:
            raise cur.error(f"unknown escape \\{m.group(1)} in string", offset)
        return char

    return re.sub(r"\\(.)", unescape, raw[1:-1])


def _plain_uses(text: str, runs: list, pred: str):
    """``(offset, arity)`` of each plain statement of ``pred``, in order; read
    again by one ``_FACT.match`` per statement from the start of each run of
    plain statements, for an arity error only."""
    for pos in runs:
        while (m := _FACT.match(text, pos)) is not None:
            if m["pred"] == pred:
                yield m.start("pred"), m["consts"].count(",") + 1 if m["consts"] else 0
            pos = m.end()


@_collector_paused
def parse_facts(text: str, filename: str = "<facts>") -> Structure:
    """Fact statements ``P(a,b,c).``; relations deduplicate, the domain is
    every constant appearing anywhere, interned in first-appearance order.

    Plain statements (names and numbers only, whitespace anywhere, and
    comments only before the predicate) are read a run at a time: one
    ``_RUN`` match finds where the run stops, and string methods cut it into
    predicates and constants, so no Python step runs once per statement.
    From the first offset where no plain statement starts, a token cursor
    reads each statement that is not plain: quoted constants, comments
    inside a statement, and every error. After each of those, the run of
    plain statements that follows is read the same way, and the cursor
    resumes where it stops, so one quoted constant costs one statement's
    tokens. The arity check runs once per distinct predicate and arity of a
    run, and an arity error finds its offsets by reading the plain
    statements again.

    It runs with Python's cyclic collector paused, as the count functions
    do (see ``engine``): it builds a tuple per fact and no reference cycle,
    so the collector's passes over those tuples, 2% of a ``c9-cli`` op,
    would reclaim nothing. Another thread's cyclic garbage waits until it
    returns."""
    # a miss stores and returns the next id, all in C
    domain: dict[str, int] = defaultdict(count().__next__)
    schemas: dict[str, tuple[int, Optional[int]]] = {}  # arity and offset of first use, None if plain
    rows: dict[str, set] = {}
    runs = []  # where each run of plain statements starts

    def arity_error(pred: str, arity: int, offset: Optional[int] = None) -> ParseError:
        known, first = schemas[pred]
        uses = _plain_uses(text, runs, pred)
        if first is None:
            first = next(uses)[0]
        if offset is None:
            offset = next(where for where, n in uses if n != known)
        message = f"predicate {pred!r} used with arity {arity}, earlier {known}"
        # A cursor's error looks ahead for a bad character first, so one
        # after this statement still takes precedence.
        return _Cursor(text, filename, offset).error(message, offset, first)

    def read_run(start: int) -> int:
        """Add the run of plain statements at ``start``; return where it stops.

        In a run, ``#`` only starts a comment and whitespace only separates
        tokens, so without both the run reads ``P(a,b).Q().``, and with each
        ``).`` made a ``(``, splitting at ``(`` alternates predicates and
        constant lists. ``str.split()`` and ``\\s`` agree on whitespace."""
        stop = _RUN.match(text, start).end()
        if stop == start:
            return stop
        runs.append(start)
        run = text[start:stop]
        if "#" in run:
            run = _COMMENT.sub("", run)
        parts = "".join(run.split()).replace(").", "(").split("(")
        preds, lists = parts[0:-1:2], parts[1::2]
        arities = list(map(add, map(str.count, lists, repeat(",")), map(bool, lists)))
        for pred, arity in dict.fromkeys(zip(preds, arities)):
            if schemas.setdefault(pred, (arity, None))[0] != arity:
                raise arity_error(pred, arity)
            rows.setdefault(pred, set())
        consts = ",".join(filter(None, lists))
        ids = tuple(map(domain.__getitem__, consts.split(","))) if consts else ()
        bounds = list(accumulate(arities, initial=0))
        rows_iter = map(ids.__getitem__, map(slice, bounds, islice(bounds, 1, None)))
        deque(map(set.add, map(rows.__getitem__, preds), rows_iter), 0)
        return stop

    cur = _Cursor(text, filename, read_run(0))

    def constant() -> int:
        kind, value, offset = cur.next()
        if kind == "string":
            value = _unquote(cur, value, offset)
        elif kind != "name" and kind != "number":
            raise cur.error(f"expected a constant, found {value!r}", offset)
        return domain[value]

    while cur.peek()[0] != "eof":
        _, pred, offset = cur.expect("name")
        values = []
        cur.items(lambda: values.append(constant()))
        end = cur.expect("punct", ".")[2] + 1
        if schemas.setdefault(pred, (len(values), offset))[0] != len(values):
            raise arity_error(pred, len(values), offset)
        rows.setdefault(pred, set()).add(tuple(values))
        stop = read_run(end)
        if stop != end:
            cur.seek(stop)
    relations = {
        name: Relation(name, tuple(f"c{i}" for i in range(schemas[name][0])), frozenset(tuples))
        for name, tuples in rows.items()
    }
    return Structure(tuple(domain), relations)


def facts_to_text(structure: Structure) -> str:
    lines = []
    for name in sorted(structure.relations):
        rel = structure.relations[name]
        for row in sorted(rel.rows):
            consts = []
            for vid in row:
                value = structure.domain[vid]
                if _PLAIN_CONST.match(value):
                    consts.append(value)
                else:
                    escaped = "".join(_ESCAPE.get(c, c) for c in value)
                    consts.append(f'"{escaped}"')
            lines.append(f"{name}({', '.join(consts)}).")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_edge_list(text: str, filename: str = "<edges>") -> SimpleGraph:
    """Lines of ``u v`` (0-based); an optional first line ``n <count>``
    declares the vertex count, otherwise it is max index + 1."""
    n: Optional[int] = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        span = SourceSpan(filename, lineno, 1)
        parts = line.split()
        if n is None and not pairs and parts[0] == "n":
            if len(parts) != 2 or not parts[1].isdecimal():
                raise ParseError(f"expected 'n <count>', found {line!r}", span)
            n = _integer(parts[1], span)
            continue
        if len(parts) != 2 or not all(p.isdecimal() for p in parts):
            raise ParseError(f"expected 'u v', found {line!r}", span)
        u, v = _integer(parts[0], span), _integer(parts[1], span)
        if u == v:
            raise ParseError("loops are not allowed", span)
        if n is not None and max(u, v) >= n:
            raise ParseError(f"vertex {max(u, v)} out of range for n={n}", span)
        pairs.append((u, v))
    if n is None:
        n = max((max(p) for p in pairs), default=-1) + 1
    return SimpleGraph.from_pairs(n, pairs)


def _integer(text: str, span: SourceSpan, convert=int):
    """``convert(text)`` of an integer's or a weight's digits; past Python's
    limit, a ParseError."""
    try:
        return convert(text)
    except ValueError:
        raise ParseError(f"integer longer than {sys.get_int_max_str_digits()} digits", span) from None


# -- decomposition JSON -------------------------------------------------------

_KINDS = {k.value: k for k in DecompKind}


def decomposition_to_json(d: Decomposition) -> str:
    nodes = []
    for n in d.topo_order():
        entry = {
            "id": n.node_id,
            "parent": n.parent,
            "lambda": sorted(n.guard, key=edge_sort_key),
            "chi": sorted(n.bag),
        }
        if n.weights is not None:
            entry["weights"] = {str(e): str(w) for e, w in n.weights.items()}
        nodes.append(entry)
    return json.dumps({"kind": d.kind.value, "nodes": nodes}, indent=2, sort_keys=True) + "\n"


def decomposition_from_json(text: str, filename: str = "<decomp>") -> Decomposition:
    span = SourceSpan(filename, 1, 1)
    try:
        doc = json.loads(text, parse_int=lambda digits: _integer(digits, span))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", span) from None
    if not isinstance(doc, dict):
        raise ParseError("expected a JSON object at the top level", span)
    kind = _KINDS.get(doc.get("kind"))
    if kind is None:
        raise ParseError(f"unknown decomposition kind {doc.get('kind')!r}", span)
    entries = doc.get("nodes", [])
    if not isinstance(entries, list):
        raise ParseError("\"nodes\" must be a list", span)
    nodes = [_node_from_json(entry, span) for entry in entries]
    if not nodes:
        raise ParseError("decomposition has no nodes", span)
    try:
        return Decomposition(kind, tuple(nodes))
    except DecompositionInvalid as exc:  # the tree's shape: ids, root, parents, cycles
        raise ParseError(str(exc), span) from None


_JSON_INT = re.compile(r"-?(?:0|[1-9][0-9]*)")
_WEIGHT = re.compile(r"-?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def _json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer, not a bool or a float."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def _json_weight(value, span: SourceSpan) -> Fraction:
    """A JSON number that is not a bool, or a string ``p``, ``p/q`` or a plain
    decimal. An exponent is refused: ``Fraction`` would expand it in full."""
    if type(value) in (int, float):
        return Fraction(value)
    if type(value) is str and _WEIGHT.fullmatch(value):
        return _integer(value, span, Fraction)
    raise ValueError(f"weight must be a number, \"p\", \"p/q\" or a decimal, got {json.dumps(value)}")


def _json_list(value, what: str) -> list:
    """``value`` if it is a JSON array; a string or an object is not read
    as the collection of its characters or keys."""
    if type(value) is not list:
        raise ValueError(f"{what} must be a list, got {json.dumps(value)}")
    return value


def _node_from_json(entry, span: SourceSpan) -> DecompNode:
    if not isinstance(entry, dict) or "id" not in entry:
        raise ParseError("every node must be an object with an \"id\"", span)
    where = ""
    try:
        node_id = _json_int(entry["id"], "node id")
        where = f"node {node_id}: "
        weights = None
        if "weights" in entry:
            # an object key is a string: the text of a JSON integer is read as one
            weights = {
                _json_int(_integer(e, span) if _JSON_INT.fullmatch(e) else e, "weights key"): _json_weight(w, span)
                for e, w in entry["weights"].items()
            }
        parent = entry.get("parent")
        return DecompNode(
            node_id,
            None if parent is None else _json_int(parent, "parent"),
            frozenset(_json_int(e, "lambda entry") for e in _json_list(entry.get("lambda", []), "lambda")),
            frozenset(_json_list(entry.get("chi", []), "chi")),
            weights,
        )
    except (AttributeError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ParseError(f"{where}{exc}", span) from None
