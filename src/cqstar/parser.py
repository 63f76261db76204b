"""Parsers and serializers for the query, fact, graph, and decomposition
file formats. This module is the only place concrete syntax lives.

Formats:
  .cq          ans(v1,...,vm) :- A1(...), ..., An(...).
  .facts       P(a,b,c). one fact per statement; constants are identifiers,
               integers, or double-quoted strings whose only escapes are a
               backslash before a backslash, a quote, n, r or t;
               duplicates collapse.
  .edges       line-oriented "u v" pairs, 0-based; optional leading "n <int>",
               which bounds every vertex index.
  .decomp.json {"kind": ..., "nodes": [{"id", "parent", "lambda", "chi",
               "weights"?}]} with guard entries as 0-based atom ordinals.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .decomposition import Decomposition, DecompKind, DecompNode
from .engine import Relation, Structure
from .errors import CqstarError
from .generators import SimpleGraph
from .hypergraph import Atom, Query


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    column: int
    end_column: int

    def __str__(self):
        return f"{self.file}:{self.line}:{self.column}"


class ParseError(CqstarError):
    def __init__(self, message: str, span: SourceSpan, other: Optional[SourceSpan] = None):
        suffix = f" (earlier at {other})" if other else ""
        super().__init__(f"{span}: {message}{suffix}")
        self.span = span
        self.other = other


_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<number>\d+)
      | (?P<string>"(?:[^"\\\n]|\\.)*")
      | (?P<arrow>:-)
      | (?P<punct>[(),.])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    span: SourceSpan


def _tokenize(text: str, filename: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            span = SourceSpan(filename, line, col, col + 1)
            raise ParseError(f"unexpected character {text[pos]!r}", span)
        kind = m.lastgroup
        raw = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, raw, SourceSpan(filename, line, col, col + len(raw))))
        newlines = raw.count("\n")
        if newlines:
            line += newlines
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        pos = m.end()
    tokens.append(_Token("eof", "", SourceSpan(filename, line, col, col)))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text or 'end of input'!r}", tok.span)
        return self.next()


def parse_query(text: str, filename: str = "<query>") -> Query:
    """``head(v1,...,vm) :- A1(t...), ..., An(t...).`` — head variables are
    free, every other body variable is existentially quantified."""
    cur = _Cursor(_tokenize(text, filename))
    head = cur.expect("name")
    cur.expect("punct", "(")
    free: list[str] = []
    if cur.peek().text != ")":
        while True:
            tok = cur.expect("name")
            if tok.text in free:
                raise ParseError(f"duplicate head variable {tok.text!r}", tok.span)
            free.append(tok.text)
            if cur.peek().text == ",":
                cur.next()
                continue
            break
    cur.expect("punct", ")")
    cur.expect("arrow")
    atoms: list[Atom] = []
    while True:
        pred = cur.expect("name")
        cur.expect("punct", "(")
        terms: list[str] = []
        if cur.peek().text != ")":
            while True:
                terms.append(cur.expect("name").text)
                if cur.peek().text == ",":
                    cur.next()
                    continue
                break
        close = cur.expect("punct", ")")
        if not terms:
            raise ParseError("atoms need at least one variable", close.span)
        atoms.append(Atom(pred.text, tuple(terms)))
        if cur.peek().text == ",":
            cur.next()
            continue
        break
    cur.expect("punct", ".")
    cur.expect("eof")
    if not atoms:
        raise ParseError("query body is empty", head.span)
    return Query(head.text, tuple(free), tuple(atoms))


def query_to_text(query: Query) -> str:
    head = f"{query.head}({', '.join(query.free_vars)})"
    body = ", ".join(f"{a.predicate}({', '.join(a.variables)})" for a in query.atoms)
    return f"{head} :- {body}.\n"


# constants the tokenizer reads back as one name or number token
_PLAIN_CONST = re.compile(r"(?:[A-Za-z_][A-Za-z0-9_]*|[0-9]+)\Z")
# the one escape set of quoted constants, shared by the parser and the writer
_UNESCAPE = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
_ESCAPE = {char: "\\" + code for code, char in _UNESCAPE.items()}


def _unquote(tok: _Token) -> str:
    def unescape(m: re.Match) -> str:
        char = _UNESCAPE.get(m.group(1))
        if char is None:
            raise ParseError(f"unknown escape \\{m.group(1)} in string", tok.span)
        return char

    return re.sub(r"\\(.)", unescape, tok.text[1:-1])


def parse_facts(text: str, filename: str = "<facts>") -> Structure:
    """Fact statements ``P(a,b,c).``; relations deduplicate, the domain is
    every constant appearing anywhere, interned in first-appearance order."""
    cur = _Cursor(_tokenize(text, filename))
    domain: dict[str, int] = {}
    schemas: dict[str, tuple[int, SourceSpan]] = {}
    rows: dict[str, set] = {}
    while cur.peek().kind != "eof":
        pred = cur.expect("name")
        cur.expect("punct", "(")
        values: list[int] = []
        if cur.peek().text != ")":
            while True:
                tok = cur.peek()
                if tok.kind == "name" or tok.kind == "number":
                    cur.next()
                    value = tok.text
                elif tok.kind == "string":
                    cur.next()
                    value = _unquote(tok)
                else:
                    raise ParseError(f"expected a constant, found {tok.text!r}", tok.span)
                values.append(domain.setdefault(value, len(domain)))
                if cur.peek().text == ",":
                    cur.next()
                    continue
                break
        cur.expect("punct", ")")
        cur.expect("punct", ".")
        known = schemas.get(pred.text)
        if known is not None and known[0] != len(values):
            raise ParseError(
                f"predicate {pred.text!r} used with arity {len(values)}, earlier {known[0]}",
                pred.span,
                known[1],
            )
        if known is None:
            schemas[pred.text] = (len(values), pred.span)
        rows.setdefault(pred.text, set()).add(tuple(values))
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
        span = SourceSpan(filename, lineno, 1, len(raw) + 1)
        parts = line.split()
        if n is None and not pairs and parts[0] == "n":
            if len(parts) != 2 or not parts[1].isdecimal():
                raise ParseError(f"expected 'n <count>', found {line!r}", span)
            n = int(parts[1])
            continue
        if len(parts) != 2 or not all(p.isdecimal() for p in parts):
            raise ParseError(f"expected 'u v', found {line!r}", span)
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise ParseError("loops are not allowed", span)
        if n is not None and max(u, v) >= n:
            raise ParseError(f"vertex {max(u, v)} out of range for n={n}", span)
        pairs.append((u, v))
    if n is None:
        n = max((max(p) for p in pairs), default=-1) + 1
    return SimpleGraph.from_pairs(n, pairs)


def edge_list_to_text(g: SimpleGraph) -> str:
    lines = [f"n {g.n}"]
    for e in sorted(g.edges, key=lambda e: tuple(sorted(e))):
        u, v = sorted(e)
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


# -- decomposition JSON -------------------------------------------------------

_KINDS = {k.value: k for k in DecompKind}


def decomposition_to_json(d: Decomposition) -> str:
    nodes = []
    for n in d.topo_order():
        entry = {
            "id": n.node_id,
            "parent": n.parent,
            "lambda": sorted(n.guard, key=lambda e: (0, e) if isinstance(e, int) else (1, str(e))),
            "chi": sorted(n.bag),
        }
        if n.weights is not None:
            entry["weights"] = {str(e): str(w) for e, w in sorted(n.weights.items(), key=lambda kv: str(kv[0]))}
        nodes.append(entry)
    return json.dumps({"kind": d.kind.value, "nodes": nodes}, indent=2, sort_keys=True) + "\n"


def decomposition_from_json(text: str, filename: str = "<decomp>") -> Decomposition:
    span = SourceSpan(filename, 1, 1, 1)
    try:
        doc = json.loads(text)
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
    return Decomposition(kind, tuple(nodes))


def _node_from_json(entry, span: SourceSpan) -> DecompNode:
    if not isinstance(entry, dict) or "id" not in entry:
        raise ParseError("every node must be an object with an \"id\"", span)
    try:
        weights = None
        if "weights" in entry:
            weights = {int(e): Fraction(w) for e, w in entry["weights"].items()}
        return DecompNode(
            int(entry["id"]),
            None if entry.get("parent") is None else int(entry["parent"]),
            frozenset(int(e) for e in entry.get("lambda", [])),
            frozenset(entry.get("chi", [])),
            weights,
        )
    except (AttributeError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"node {entry['id']!r}: {exc}", span) from None
