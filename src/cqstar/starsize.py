"""Maximum independent sets on hypergraphs and the quantified-star-size driver.

Four strategies: brute force (the oracle for everything else), the
edge-cover duality on acyclic hypergraphs, dynamic programming along a
generalized hypertree decomposition, and a fixed-parameter dynamic program
along a hingetree decomposition; plus a width-factor approximation.

Every witness is re-checked for independence on construction, from
incidence: it is independent iff no edge id repeats among its vertices'
incident edges, so the conflict graph is built only for a set that fails,
to name its first conflicting pair in vertex order.

BRUTE, GHD_DP and HINGE_FPT return the lexicographically smallest maximum
set (by vertex order); ACYCLIC and APPROX return their greedy's choice,
which for ACYCLIC is a maximum set but not always that one.

There is one greedy, ``_cover_greedy``, fed a deepest-first walk of a
join tree. ``acyclic_is_and_cover`` and APPROX feed it a ``Decomposition``,
and so does the count pipeline for its cover sizes. Star size's ACYCLIC
strategy feeds it plain lists: each S-component's edges cut to its
closure (``Hypergraph.induced_dedup_edges``), their parents from the GYO
reduction that ``gyo_join_tree`` also runs (``decomposition._gyo``), and
the walk a join tree of them would take; no induced hypergraph, tree or
node is built per component.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import AbstractSet, Iterable, Optional

from .decomposition import (
    Decomposition,
    DecompKind,
    _gyo,
    blocks_hypergraph,
    ensure_valid,
    guarded,
    gyo_join_tree,  # unused here, but bench/tracing.py wraps starsize.gyo_join_tree
    induced_decomposition,
    jointree_over_bags,
    verify,  # unused here, but bench/tracing.py wraps starsize.verify
)
from .errors import (
    DecompositionInvalid,
    InvariantViolation,
    NotHinge,
    TooLarge,
    UncoverableVertex,
    WidthNotOne,
)
from .hypergraph import EdgeId, Hypergraph, SComponent, SHypergraph, VertexId, s_components

BRUTE_CUTOFF = 24
_KINDS = (DecompKind.JOINTREE, DecompKind.GHD, DecompKind.HINGE, DecompKind.TREE)


class ISMethod(str, Enum):
    BRUTE = "brute"
    ACYCLIC = "acyclic"
    GHD_DP = "ghd_dp"
    HINGE_FPT = "hinge_fpt"
    APPROX = "approx"


@dataclass(frozen=True)
class ISWitness:
    vertices: frozenset
    method: ISMethod
    bound: Optional[int] = None  # guaranteed ratio, APPROX only

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class StarWitness:
    size: int
    component_index: int
    star: frozenset
    cover_edges: Optional[frozenset] = None  # acyclic strategy only


def _checked_witness(h: Hypergraph, vertices: Iterable, method: ISMethod,
                     bound: Optional[int] = None) -> ISWitness:
    """The witness, once no edge of ``h`` holds two of its vertices: no edge
    id repeats among their incident edges. Only a repeat builds the conflict
    graph, to name the first conflicting pair in vertex order."""
    verts = frozenset(vertices)
    held = [e for v in verts for e in h.incident_edges(v)]
    if len(set(held)) != len(held):
        adj = h.conflict_adjacency()
        ordered = h.sort_vertices(verts)
        for i, v in enumerate(ordered):
            for u in ordered[i + 1:]:
                if u in adj[v]:
                    raise InvariantViolation(f"witness not independent: {v!r} and {u!r} share an edge")
    return ISWitness(verts, method, bound)


def _candidates(h: Hypergraph, restrict_to) -> list:
    return list(h.vertices if restrict_to is None else h.sort_vertices(set(restrict_to)))


def _rank(h: Hypergraph, verts: Iterable) -> tuple:
    """The key under which exact strategies pick a witness: larger sets
    first, then the lexicographically smallest vertex sequence. No two
    distinct sets share a key, so the least one is the same in any order."""
    return -len(verts), tuple(h.vertex_index(v) for v in h.sort_vertices(verts))


def max_is_brute(h: Hypergraph, restrict_to=None) -> ISWitness:
    """Exhaustive maximum independent set among the candidate vertices.

    Include-first depth-first search, so the first maximum found is the
    lexicographically smallest one.
    """
    cands = _candidates(h, restrict_to)
    if len(cands) > BRUTE_CUTOFF:
        raise TooLarge(f"{len(cands)} candidate vertices exceed brute-force cutoff {BRUTE_CUTOFF}")
    best: list = []
    _include_first(cands, h.conflict_adjacency(), 0, [], frozenset(), best)
    return _checked_witness(h, best, ISMethod.BRUTE)


def _include_first(cands: list, adj, i: int, chosen: list, blocked: frozenset, best: list) -> None:
    """``max_is_brute``'s search from ``cands[i]`` on, with ``chosen`` taken
    and the vertices in ``blocked`` ruled out; a larger set replaces the
    contents of ``best``. A module-level function, not a closure that names
    itself, so the search leaves no reference cycle behind."""
    if len(chosen) + (len(cands) - i) <= len(best):
        return
    if i == len(cands):
        best[:] = chosen
        return
    v = cands[i]
    if v not in blocked:
        chosen.append(v)
        _include_first(cands, adj, i + 1, chosen, blocked | adj[v], best)
        chosen.pop()
    _include_first(cands, adj, i + 1, chosen, blocked, best)


def acyclic_is_and_cover(
    h: Hypergraph, jt: Decomposition, restrict_to=None
) -> tuple[ISWitness, frozenset]:
    """Greedy duality on an acyclic hypergraph: a maximum independent set and
    a minimum edge cover of the candidates, of equal size.

    Walks the join tree deepest-first; whenever a bag holds an uncovered
    candidate seen for the last time, the bag's edge enters the cover and
    one such candidate enters the independent set. Raises WidthNotOne unless
    ``jt`` is a valid width-1 join tree or GHD of ``h``.
    """
    try:
        width = ensure_valid(h, jt, (DecompKind.JOINTREE, DecompKind.GHD)).width
    except DecompositionInvalid as exc:
        raise WidthNotOne(str(exc)) from None
    if width > 1:
        raise WidthNotOne(f"decomposition has width {width}, need 1")
    return _acyclic_is_and_cover(h, jt, restrict_to)


def _acyclic_is_and_cover(h: Hypergraph, jt: Decomposition, restrict_to) -> tuple[ISWitness, frozenset]:
    """``acyclic_is_and_cover`` along a join tree valid by construction."""
    cands = _candidates(h, restrict_to)
    for v in cands:
        if not h.incident_edges(v):
            raise UncoverableVertex(v)
    bag_of = {n.node_id: n.bag for n in jt.nodes}
    walk = (
        (n.guard, n.bag, bag_of[n.parent] if n.parent is not None else frozenset())
        for n in jt.post_order()
        if n.guard
    )
    chosen, cover = _cover_greedy(walk, set(cands), h.vertex_index)
    return _checked_witness(h, chosen, ISMethod.ACYCLIC), frozenset(cover)


def _acyclic_star(h: Hypergraph, comp: SComponent, idx: int) -> tuple[ISWitness, frozenset]:
    """The ACYCLIC strategy on one S-component of ``h``: what
    ``_acyclic_is_and_cover`` gives along ``gyo_join_tree(comp.induced)``,
    from plain lists, with neither built. Node ``i`` is the closure's
    ``i``-th dedup edge, cut to the closure, under its GYO parent, and the
    walk is the join tree's post-order: breadth-first from the root with
    children in node order, reversed. No candidate can be uncovered: each
    closure vertex lies in an edge that meets the core, which the closure
    holds whole. The witness is checked against ``h``, whose edges conflict
    on the closure exactly as their cuts do."""
    dd = h.induced_dedup_edges(comp.closure)
    sets = [fs for _, fs in dd]
    parent, alive, _ = _gyo(sets)
    if len(alive) > 1:
        raise WidthNotOne(f"component {idx} is not acyclic")
    order: list[int] = []  # the root, then the breadth-first walk
    children: list[list[int]] = [[] for _ in sets]
    for i in range(len(sets)):
        if i in parent:
            children[parent[i]].append(i)
        else:
            order.append(i)
    for i in order:
        order.extend(children[i])
    empty = frozenset()
    walk = (((dd[i][0],), sets[i], sets[parent[i]] if i in parent else empty) for i in reversed(order))
    chosen, cover = _cover_greedy(walk, comp.s_vertices, h.vertex_index)
    return _checked_witness(h, chosen, ISMethod.ACYCLIC), frozenset(cover)


def _cover_greedy(walk: Iterable, cands: AbstractSet, rank) -> tuple[list, list[EdgeId]]:
    """The duality's greedy, shared by every route to it: the independent
    set and the edge cover of ``cands`` along a width-1 join tree walked
    deepest-first, given as each guarded node's guard, bag and parent's bag
    (empty at the root). Whenever a bag holds an uncovered candidate seen
    for the last time (not in the parent's bag), the bag's one edge enters
    the cover and the first such candidate by ``rank`` the independent set."""
    covered: set = set()
    chosen: list = []
    cover: list[EdgeId] = []
    for guard, bag, parent_bag in walk:
        last_chance = [v for v in bag if v in cands and v not in covered and v not in parent_bag]
        if last_chance:
            (eid,) = guard
            cover.append(eid)
            chosen.append(min(last_chance, key=rank))
            covered |= bag & cands
    if len(chosen) != len(cover):
        raise InvariantViolation("independent set and cover sizes diverged")
    missing = cands - covered
    if missing:
        raise InvariantViolation(f"cover misses candidates {sorted(missing)}")
    return chosen, cover


def _independent_subsets(adj, items: list, limit: int):
    """All subsets of ``items`` at most ``limit`` big with no member in another's ``adj``."""
    out = [frozenset()]
    stack = [(0, [], frozenset())]
    while stack:
        i, chosen, blocked = stack.pop()
        for j in range(i, len(items)):
            v = items[j]
            if v in blocked:
                continue
            picked = chosen + [v]
            out.append(frozenset(picked))
            if len(picked) < limit:
                stack.append((j + 1, picked, blocked | adj[v]))
    return out


def max_is_ghd_dp(h: Hypergraph, d: Decomposition, restrict_to=None) -> ISWitness:
    """Bottom-up table of best independent sets per bag-local choice.

    For every node and every independent subset of its bag, keep the
    largest independent set of the subtree agreeing with that subset on
    the bag; children combine through their shared-bag keys. A tree
    decomposition is guarded first.
    """
    ensure_valid(h, d, _KINDS)
    return _max_is_ghd_dp(h, guarded(h, d), restrict_to)


def _max_is_ghd_dp(h: Hypergraph, d: Decomposition, restrict_to) -> ISWitness:
    """``max_is_ghd_dp`` along a decomposition valid by construction."""
    cands = _candidates(h, restrict_to)
    cand_set = set(cands)
    adj = h.conflict_adjacency()
    freebies = [v for v in cands if not h.incident_edges(v)]

    rank = partial(_rank, h)
    tables: dict[int, dict[frozenset, frozenset]] = {}
    children = d.children_map()
    for node in d.post_order():
        bag_cands = [v for v in h.sort_vertices(node.bag) if v in cand_set]
        limit = max(1, len(node.guard))
        table: dict[frozenset, frozenset] = {}
        child_indexes = []
        for child in children[node.node_id]:
            idx: dict[frozenset, frozenset] = {}
            shared_scope = child.bag & node.bag
            for sigma_c, best_c in tables[child.node_id].items():
                key = sigma_c & shared_scope
                if key not in idx or rank(best_c) < rank(idx[key]):
                    idx[key] = best_c
            child_indexes.append((child, idx))
        for sigma in _independent_subsets(adj, bag_cands, limit):
            acc = set(sigma)
            ok = True
            for child, idx in child_indexes:
                key = sigma & child.bag
                sub = idx.get(key)
                if sub is None:
                    ok = False
                    break
                acc |= sub
            if ok:
                table[sigma] = frozenset(acc)
        tables[node.node_id] = table

    root_table = tables[d.root().node_id]
    best = min(root_table.values(), key=rank)
    return _checked_witness(h, set(best) | set(freebies), ISMethod.GHD_DP)


# -- hingetree fixed-parameter DP -------------------------------------------


def max_is_hinge_fpt(h: Hypergraph, d: Decomposition, restrict_to=None) -> ISWitness:
    """Fixed-parameter maximum independent set along a hingetree decomposition.

    One pass in post-order. Each node keeps the best independent set of its
    subtree holding each candidate of its interface (the part of its bag it
    shares with its parent, which lies inside one edge), plus the best one
    avoiding the interface. A bag's candidates are grouped by the set of
    guard edges that hold them; two groups conflict when those sets meet,
    and a node tries every set of at most ``max(1, |guard|)`` groups with
    no conflict. Each group of a set contributes its best vertex together
    with the children that hang on that group (their bags meet it), and
    every other child joins with its interface-avoiding set.
    """
    if d.kind is not DecompKind.HINGE:
        raise NotHinge(f"expected hinge decomposition, got {d.kind.value}")
    ensure_valid(h, d, (DecompKind.HINGE,))
    return _max_is_hinge_fpt(h, d, restrict_to)


def _max_is_hinge_fpt(h: Hypergraph, d: Decomposition, restrict_to) -> ISWitness:
    """``max_is_hinge_fpt`` along a hingetree valid by construction.

    An interface lies in one guard edge of its node and of its child, so
    the groups holding interface vertices conflict pairwise, and each child
    hangs on groups that conflict pairwise: at most one group of a set
    holds the interface or any one child's part of the bag.
    """
    cands = _candidates(h, restrict_to)
    cand_set = set(cands)
    rank = partial(_rank, h)
    bag_of = {n.node_id: n.bag for n in d.nodes}
    children = d.children_map()
    best: dict[int, dict[Optional[VertexId], frozenset]] = {}  # node -> interface vertex or None -> set
    for node in d.post_order():
        interface = node.bag & bag_of[node.parent] if node.parent is not None else frozenset()
        groups: dict[frozenset, list[VertexId]] = {}  # guard edges holding a candidate -> the candidates
        for v in h.sort_vertices(node.bag & cand_set):
            groups.setdefault(frozenset(e for e in node.guard if v in h.edge_set(e)), []).append(v)
        sigs, members, kids = list(groups), list(groups.values()), children[node.node_id]
        hangs = [[c for c in kids if not c.bag.isdisjoint(group)] for group in members]
        part = {  # a candidate with the best sets of the children hanging on its group
            u: frozenset({u}).union(*(best[c.node_id][u if u in c.bag else None] for c in hang))
            for group, hang in zip(members, hangs)
            for u in group
        }
        avoid = [min((part[u] for u in g if u not in interface), key=rank, default=None) for g in members]
        clash = [{j for j, other in enumerate(sigs) if sig & other} for sig in sigs]
        found: dict[Optional[VertexId], list[frozenset]] = {}
        for chosen in _independent_subsets(clash, range(len(sigs)), max(1, len(node.guard))):
            hung = {c.node_id for i in chosen for c in hangs[i]}
            rest = frozenset().union(*(best[c.node_id][None] for c in kids if c.node_id not in hung))
            for i in [None, *chosen]:  # None avoids the interface; a group pins each interface vertex in it
                for v in [None] if i is None else [u for u in members[i] if u in interface]:
                    blocks = [part[v] if j == i else avoid[j] for j in chosen]
                    if None not in blocks:
                        found.setdefault(v, []).append(rest.union(*blocks))
        best[node.node_id] = {v: min(sets, key=rank) for v, sets in found.items()}
    root_best = best[d.root().node_id][None]
    return _checked_witness(h, root_best | {v for v in cands if not h.incident_edges(v)}, ISMethod.HINGE_FPT)


def approx_is(h: Hypergraph, d: Decomposition, restrict_to=None) -> ISWitness:
    """Width-factor approximation: exact maximum on the acyclic hypergraph of
    bags, which stays independent in h; guaranteed within 1/width of optimal.
    A tree decomposition is guarded first.
    """
    ensure_valid(h, d, _KINDS)
    return _approx_is(h, guarded(h, d), restrict_to)


def _approx_is(h: Hypergraph, d: Decomposition, restrict_to) -> ISWitness:
    """``approx_is`` along a decomposition valid by construction, whose join
    tree over its bags is then valid too."""
    cands = _candidates(h, restrict_to)
    freebies = [v for v in cands if not h.incident_edges(v)]
    hp = blocks_hypergraph(h, d)
    in_bags = [v for v in cands if hp.incident_edges(v)]
    witness, _ = _acyclic_is_and_cover(hp, jointree_over_bags(d), in_bags)
    bound = max(int(d.raw_width()), 1)
    return _checked_witness(h, set(witness.vertices) | set(freebies), ISMethod.APPROX, bound=bound)


# strategy -> its worker along a restriction of a decomposition verified once
_ALONG = {ISMethod.GHD_DP: _max_is_ghd_dp, ISMethod.HINGE_FPT: _max_is_hinge_fpt, ISMethod.APPROX: _approx_is}


def s_star_size(
    sh: SHypergraph,
    strategy: ISMethod,
    decomposition: Optional[Decomposition] = None,
) -> tuple[int, list[StarWitness]]:
    """Largest independent set of S-vertices over the S-components.

    Decomposition-backed strategies verify the decomposition and its kind
    against h once, guard a tree decomposition, then run on its subtree
    meeting each component closure, which is valid by construction, so it
    is not verified again. ACYCLIC builds no tree: it runs GYO and the
    greedy on each component's cut edges (``_acyclic_star``), and raises
    WidthNotOne for the first component that is cyclic. Returns 0 with no
    witnesses when S = V, and 0 with empty stars when S is empty.
    """
    h = sh.hypergraph
    if strategy in _ALONG:
        if decomposition is None:
            raise ValueError(f"strategy {strategy.value} requires a decomposition")
        ensure_valid(h, decomposition, (DecompKind.HINGE,) if strategy is ISMethod.HINGE_FPT else _KINDS)
        decomposition = guarded(h, decomposition)
    witnesses: list[StarWitness] = []
    best = 0
    for idx, comp in enumerate(s_components(sh)):
        cands = comp.s_vertices
        cover: Optional[frozenset] = None
        if strategy is ISMethod.BRUTE:
            w = max_is_brute(comp.induced, cands)
        elif strategy is ISMethod.ACYCLIC:
            w, cover = _acyclic_star(h, comp, idx)
        elif not comp.closure:  # an edgeless quantified vertex: no S-vertex, no bag to restrict to
            w = max_is_brute(comp.induced, cands)
        else:
            di = induced_decomposition(h, decomposition, comp.closure)
            w = _ALONG[strategy](comp.induced, di, cands)
        witnesses.append(StarWitness(w.size, idx, w.vertices, cover))
        best = max(best, w.size)
    return best, witnesses
