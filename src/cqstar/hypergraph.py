"""Hypergraphs, S-hypergraphs, and their component structure.

Vertices keep their first-appearance order and every operation here is a
pure function over immutable values, so component lists and all witnesses
derived from them are reproducible across runs. Every component comes from
one flood of edge classes, ``edge_classes``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import AbstractSet, Iterable, Mapping, Sequence, Union

from .errors import UnknownVertex, VariableWithoutAtom

EdgeId = Union[int, str]
VertexId = str


def edge_sort_key(eid: EdgeId):
    """Total order over mixed int/str edge ids (ints first)."""
    if isinstance(eid, int):
        return (0, eid, "")
    return (1, 0, str(eid))


def pair_id(u: VertexId, v: VertexId) -> str:
    """The id of the primal-graph edge {u, v}, u first: ``u~v``, with each
    backslash and tilde inside a name escaped by a backslash, so distinct
    pairs get distinct ids. Names without either keep ``f"{u}~{v}"``."""
    return "~".join(str(w).replace("\\", "\\\\").replace("~", "\\~") for w in (u, v))


@dataclass(frozen=True)
class Atom:
    predicate: str
    variables: tuple[str, ...]


@dataclass(frozen=True)
class Query:
    """A conjunctive query: head variables are free, other body variables bound.
    A head variable that occurs in no atom is a ``VariableWithoutAtom``:
    silent answer multiplication by the domain size is a foot-gun we reject.

    Atoms are identified by their 0-based ordinal in the body; repeated
    predicate names are legal as long as arities agree at bind time.
    """

    head: str
    free_vars: tuple[str, ...]
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        if len(set(self.free_vars)) != len(self.free_vars):
            raise ValueError("duplicate free variable in query head")
        present = set(self.variables())
        for v in self.free_vars:
            if v not in present:
                raise VariableWithoutAtom(v)

    def variables(self) -> tuple[str, ...]:
        """All variables in first-appearance (body) order."""
        seen: dict[str, None] = {}
        for atom in self.atoms:
            for v in atom.variables:
                seen.setdefault(v)
        return tuple(seen)


class Hypergraph:
    """Finite hypergraph with ordered vertices and identified edges.

    Edges may repeat as sets under distinct ids; ``dedup_edges`` is the
    deduplicated set family used by independence and cover computations,
    built on its first call and kept. Instances are immutable by
    convention: no method mutates state.
    """

    __slots__ = ("vertices", "edges", "_vindex", "_edge_map", "_dedup", "_incidence")

    def __init__(
        self,
        vertices: Iterable[VertexId],
        edges: Iterable[tuple[EdgeId, Iterable[VertexId]]] = (),
    ):
        vs = tuple(dict.fromkeys(vertices))
        vset = set(vs)
        out: list[tuple[EdgeId, frozenset[VertexId]]] = []
        seen_ids: set[EdgeId] = set()
        for eid, members in edges:
            fs = frozenset(members)
            if eid in seen_ids:
                raise ValueError(f"duplicate edge id {eid!r}")
            seen_ids.add(eid)
            for v in fs:
                if v not in vset:
                    raise UnknownVertex(v)
            out.append((eid, fs))
        acc: dict[VertexId, list[int]] = {v: [] for v in vs}
        for o, (_, fs) in enumerate(out):
            for v in fs:
                acc[v].append(o)
        self._index(vs, tuple(out), {v: tuple(ords) for v, ords in acc.items()})

    def _index(self, vertices: tuple, edges: tuple, incidence: dict) -> None:
        """Store checked vertices, edges and incidence (vertex -> ordinals of
        the edges holding it, in declared order); build the other lookups."""
        self.vertices = vertices
        self.edges = edges
        self._vindex = {v: i for i, v in enumerate(vertices)}
        self._edge_map = dict(edges)
        self._dedup = None  # dedup_edges(), once built
        self._incidence = incidence

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Hypergraph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    # -- basic accessors -------------------------------------------------

    def vertex_index(self, v: VertexId) -> int:
        try:
            return self._vindex[v]
        except KeyError:
            raise UnknownVertex(v) from None

    def has_vertex(self, v: VertexId) -> bool:
        return v in self._vindex

    def has_vertices(self, vs: AbstractSet[VertexId]) -> bool:
        """Whether every member of the set ``vs`` is a vertex, by one subset test."""
        return self._vindex.keys() >= vs

    def edge_ids(self) -> tuple[EdgeId, ...]:
        return tuple(eid for eid, _ in self.edges)

    def edge_set(self, eid: EdgeId) -> frozenset[VertexId]:
        return self._edge_map[eid]

    def has_edge_id(self, eid: EdgeId) -> bool:
        return eid in self._edge_map

    def has_edge_ids(self, eids: AbstractSet[EdgeId]) -> bool:
        """Whether every member of the set ``eids`` is an edge id, by one subset test."""
        return self._edge_map.keys() >= eids

    def dedup_edges(self) -> tuple[tuple[EdgeId, frozenset[VertexId]], ...]:
        """The deduplicated set family, one (first id, set) per distinct set."""
        if self._dedup is None:
            self._dedup = _first_ids(self.edges)
        return self._dedup

    def incident_edges(self, v: VertexId) -> tuple[EdgeId, ...]:
        try:
            ordinals = self._incidence[v]
        except KeyError:
            raise UnknownVertex(v) from None
        return tuple(self.edges[o][0] for o in ordinals)

    def sort_vertices(self, vs: Iterable[VertexId]) -> tuple[VertexId, ...]:
        return tuple(sorted(vs, key=self.vertex_index))

    def _meeting(self, vs: Iterable[VertexId]) -> set[int]:
        """The ordinals of the edges that hold a vertex of ``vs``."""
        try:
            return {o for v in vs for o in self._incidence[v]}
        except KeyError as exc:
            raise UnknownVertex(exc.args[0]) from None

    def conflict_adjacency(self) -> dict[VertexId, frozenset[VertexId]]:
        """v -> vertices sharing at least one edge with v (v excluded)."""
        adj: dict[VertexId, set[VertexId]] = {v: set() for v in self.vertices}
        for _, fs in self.dedup_edges():
            for v in fs:
                adj[v].update(fs)
        return {v: frozenset(s - {v}) for v, s in adj.items()}

    # -- operations ------------------------------------------------------

    def induced(self, vs: Iterable[VertexId]) -> "Hypergraph":
        """Induced subhypergraph on ``vs``: each edge's nonempty intersection
        with ``vs``, under the edge's own id, in declared order. Only edges
        holding a vertex of ``vs`` are visited. Retained ids double as
        provenance back to the originating edges. A cut of this hypergraph is
        valid by construction, so its members are not checked again, and its
        incidence is this one's, renumbered.
        """
        keep = set(vs)
        vertices = self.sort_vertices(keep)  # raises UnknownVertex first
        ordinals = sorted(self._meeting(keep))
        renumber = {o: i for i, o in enumerate(ordinals)}.__getitem__
        sub = object.__new__(Hypergraph)
        sub._index(
            vertices,
            tuple((self.edges[o][0], self.edges[o][1] & keep) for o in ordinals),
            {v: tuple(map(renumber, self._incidence[v])) for v in vertices},
        )
        return sub

    def induced_dedup_edges(self, vs: AbstractSet[VertexId]) -> tuple[tuple[EdgeId, frozenset[VertexId]], ...]:
        """``induced(vs).dedup_edges()``, read off this hypergraph without
        building the induced one: each edge that holds a vertex of the set
        ``vs``, cut to it, in declared order, once per distinct cut."""
        return _first_ids((self.edges[o][0], self.edges[o][1] & vs) for o in sorted(self._meeting(vs)))

    def meeting_edge_ids(self, vs: Iterable[VertexId]) -> tuple[EdgeId, ...]:
        """``induced(vs).edge_ids()``, read off this hypergraph without
        building the induced one: the ids of the edges that hold a vertex of
        ``vs``, in declared order."""
        return tuple(self.edges[o][0] for o in sorted(self._meeting(vs)))


def _first_ids(edges: Iterable[tuple[EdgeId, frozenset[VertexId]]]) -> tuple[tuple[EdgeId, frozenset[VertexId]], ...]:
    """One (first id, set) per distinct set of ``edges``, in order of first appearance."""
    first: dict[frozenset[VertexId], EdgeId] = {}
    for eid, fs in edges:
        first.setdefault(fs, eid)
    return tuple((eid, fs) for fs, eid in first.items())


def holding(edges: Iterable[EdgeId], sets: Mapping[EdgeId, frozenset]) -> dict[VertexId, list[EdgeId]]:
    """Vertex -> the ``edges`` that hold it, in the order given: an
    incidence for ``edge_classes``."""
    held: dict[VertexId, list[EdgeId]] = {}
    for e in edges:
        for v in sets[e]:
            held.setdefault(v, []).append(e)
    return held


def edge_classes(
    starts: Iterable[EdgeId],
    sets: Union[Mapping[EdgeId, frozenset], Sequence[frozenset]],
    held: Mapping[VertexId, Iterable[EdgeId]],
    cut: AbstractSet[VertexId] = frozenset(),
) -> list[list[EdgeId]]:
    """The one flood: the classes of the edges reached from ``starts``
    through shared vertices outside ``cut``, in order of their first start,
    each in the order reached. ``sets`` gives each edge's vertices, and
    ``held`` maps each vertex outside ``cut`` that a reached edge holds to
    the edges that hold it. A start already reached opens no class, and an
    empty edge is a class of its own. Each class is one flood of ``held``,
    which reads each vertex once."""
    reached: set[EdgeId] = set()
    seen = set(cut)
    classes = []
    for e in starts:
        if e in reached:
            continue
        reached.add(e)
        cls = [e]
        for f in cls:
            for v in sets[f]:
                if v not in seen:
                    seen.add(v)
                    for g in held[v]:
                        if g not in reached:
                            reached.add(g)
                            cls.append(g)
        classes.append(cls)
    return classes


@dataclass(frozen=True)
class SHypergraph:
    """A hypergraph with a distinguished vertex set S (the free variables)."""

    hypergraph: Hypergraph
    s: frozenset[VertexId]

    def __post_init__(self):
        for v in self.s:
            if not self.hypergraph.has_vertex(v):
                raise UnknownVertex(v)


@dataclass(frozen=True)
class SComponent:
    """One S-component of ``hypergraph``, from one class of the flood in
    ``s_components``: a connected chunk of quantified vertices (the core),
    the union of the edges meeting it (the closure) and the closure's free
    vertices. ``induced``, the subhypergraph induced on the closure, whose
    kept edge ids are the provenance, is built on its first read and kept;
    a caller that needs only its dedup edges or its edge ids reads them with
    ``hypergraph.induced_dedup_edges(closure)`` or
    ``hypergraph.meeting_edge_ids(closure)`` instead."""

    core: frozenset[VertexId]
    closure: frozenset[VertexId]
    s_vertices: frozenset[VertexId]
    hypergraph: Hypergraph = field(repr=False)

    @cached_property
    def induced(self) -> Hypergraph:
        return self.hypergraph.induced(self.closure)


def from_query(query: Query) -> SHypergraph:
    """Canonical S-hypergraph of a query: a vertex per variable, an edge per
    atom. ``Query`` itself rejects a free variable in no atom."""
    vertices = query.variables()
    edges = [(i, frozenset(atom.variables)) for i, atom in enumerate(query.atoms)]
    return SHypergraph(Hypergraph(vertices, edges), frozenset(query.free_vars))


def s_components(sh: SHypergraph) -> list[SComponent]:
    """S-components of (H, S), ordered by the earliest core vertex.

    One ``edge_classes`` flood of H's incidence from the quantified vertices'
    edges, cut at S, gives each closure; the closure less S is the core. A
    quantified vertex on no edge is a core with an empty closure. No induced
    subhypergraph is built until one is read. Empty when S = V.
    """
    h, s = sh.hypergraph, sh.s
    incidence = h._incidence
    quantified = [v for v in h.vertices if v not in s]
    sets = [fs for _, fs in h.edges]
    out = []
    for cls in edge_classes((o for v in quantified for o in incidence[v]), sets, incidence, s):
        closure = frozenset().union(*map(sets.__getitem__, cls))
        out.append(SComponent(closure - s, closure, closure & s, h))
    lone = [SComponent(frozenset({v}), frozenset(), frozenset(), h) for v in quantified if not incidence[v]]
    if lone:
        out += lone
        out.sort(key=lambda c: min(map(h.vertex_index, c.core)))
    return out
