"""Maximum independent sets on hypergraphs and the quantified-star-size driver.

Four strategies: brute force (the oracle for everything else), the
edge-cover duality on acyclic hypergraphs, dynamic programming along a
generalized hypertree decomposition, and a fixed-parameter dynamic program
along a hingetree decomposition; plus a width-factor approximation.

Every witness is re-checked for independence on construction, and ties
always break toward the lexicographically smallest vertex sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .decomposition import (
    Decomposition,
    DecompKind,
    NotAcyclic,
    blocks_hypergraph,
    ensure_valid,
    guarded,
    gyo_join_tree,
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
from .hypergraph import EdgeId, Hypergraph, SHypergraph, VertexId, s_components

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
    verts = frozenset(vertices)
    adj = h.conflict_adjacency()
    ordered = h.sort_vertices(verts)
    for i, v in enumerate(ordered):
        for u in ordered[i + 1:]:
            if u in adj[v]:
                raise InvariantViolation(f"witness not independent: {v!r} and {u!r} share an edge")
    return ISWitness(verts, method, bound)


def _candidates(h: Hypergraph, restrict_to) -> list:
    return list(h.vertices if restrict_to is None else h.sort_vertices(set(restrict_to)))


def _lex_key(h: Hypergraph, verts: Iterable) -> tuple:
    return tuple(h.vertex_index(v) for v in h.sort_vertices(verts))


def max_is_brute(h: Hypergraph, restrict_to=None, *, cutoff: int = BRUTE_CUTOFF) -> ISWitness:
    """Exhaustive maximum independent set among the candidate vertices.

    Include-first depth-first search, so the first maximum found is the
    lexicographically smallest one.
    """
    cands = _candidates(h, restrict_to)
    if len(cands) > cutoff:
        raise TooLarge(f"{len(cands)} candidate vertices exceed brute-force cutoff {cutoff}")
    adj = h.conflict_adjacency()
    best: list = []

    def dfs(i: int, chosen: list, blocked: frozenset) -> None:
        nonlocal best
        if len(chosen) + (len(cands) - i) <= len(best):
            return
        if i == len(cands):
            best = list(chosen)
            return
        v = cands[i]
        if v not in blocked:
            chosen.append(v)
            dfs(i + 1, chosen, blocked | adj[v])
            chosen.pop()
        dfs(i + 1, chosen, blocked)

    dfs(0, [], frozenset())
    return _checked_witness(h, best, ISMethod.BRUTE)


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
    cand_set = set(cands)
    by_id = {n.node_id: n for n in jt.nodes}
    covered: set = set()
    chosen: list = []
    cover: list[EdgeId] = []
    for node in jt.post_order():
        if not node.guard:
            continue
        parent_bag = by_id[node.parent].bag if node.parent is not None else frozenset()
        last_chance = [
            v
            for v in h.sort_vertices(node.bag)
            if v in cand_set and v not in covered and v not in parent_bag
        ]
        if last_chance:
            (eid,) = node.guard
            cover.append(eid)
            chosen.append(last_chance[0])
            covered |= set(node.bag) & cand_set
    if len(chosen) != len(cover):
        raise InvariantViolation("independent set and cover sizes diverged")
    missing = cand_set - covered
    if missing:
        raise InvariantViolation(f"cover misses candidates {sorted(missing)}")
    return _checked_witness(h, chosen, ISMethod.ACYCLIC), frozenset(cover)


def _bag_independent_subsets(h, adj, bag_cands: list, limit: int):
    """All independent subsets of the bag candidates, at most ``limit`` big."""
    out = [frozenset()]
    stack = [(0, [], frozenset())]
    while stack:
        i, chosen, blocked = stack.pop()
        for j in range(i, len(bag_cands)):
            v = bag_cands[j]
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
            items = sorted(
                tables[child.node_id].items(),
                key=lambda kv: (len(kv[0]), _lex_key(h, kv[0])),
            )
            for sigma_c, best_c in items:
                key = sigma_c & shared_scope
                cur = idx.get(key)
                if cur is None or (-len(best_c), _lex_key(h, best_c)) < (-len(cur), _lex_key(h, cur)):
                    idx[key] = best_c
            child_indexes.append((child, idx))
        for sigma in _bag_independent_subsets(h, adj, bag_cands, limit):
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
    best = min(root_table.values(), key=lambda s: (-len(s), _lex_key(h, s)))
    return _checked_witness(h, set(best) | set(freebies), ISMethod.GHD_DP)


# -- hingetree fixed-parameter DP -------------------------------------------


def max_is_hinge_fpt(h: Hypergraph, d: Decomposition, restrict_to=None) -> ISWitness:
    """Fixed-parameter maximum independent set along a hingetree decomposition.

    Vertices of a bag are grouped into equivalence classes by their guard
    incidence signature; per node we keep one best independent set per
    interface vertex plus one avoiding the interface entirely.
    """
    if d.kind is not DecompKind.HINGE:
        raise NotHinge(f"expected hinge decomposition, got {d.kind.value}")
    ensure_valid(h, d, (DecompKind.HINGE,))
    return _max_is_hinge_fpt(h, d, restrict_to)


def _max_is_hinge_fpt(h: Hypergraph, d: Decomposition, restrict_to) -> ISWitness:
    """``max_is_hinge_fpt`` along a hingetree valid by construction."""
    cands = _candidates(h, restrict_to)
    cand_set = set(cands)
    freebies = [v for v in cands if not h.incident_edges(v)]
    by_id = {n.node_id: n for n in d.nodes}
    children = d.children_map()

    def better(a: Optional[frozenset], b: frozenset) -> frozenset:
        if a is None:
            return b
        return min((a, b), key=lambda s: (-len(s), _lex_key(h, s)))

    # j_sets[node_id] maps interface vertex v -> best subtree IS containing v,
    # and the key None -> best subtree IS avoiding the interface.
    j_sets: dict[int, dict[Optional[VertexId], frozenset]] = {}

    for node in d.post_order():
        interface = (node.bag & by_id[node.parent].bag) if node.parent is not None else frozenset()
        sig: dict[VertexId, frozenset] = {}
        for v in h.sort_vertices(node.bag):
            if v in cand_set:
                sig[v] = frozenset(e for e in node.guard if v in h.edge_set(e))
        classes: dict[frozenset, list[VertexId]] = {}
        for v, s in sig.items():
            classes.setdefault(s, []).append(v)
        class_list = sorted(classes.values(), key=lambda vs: h.vertex_index(vs[0]))
        kids = children[node.node_id]
        child_bags = [(c.node_id, c.bag) for c in kids]

        def class_of(v: VertexId) -> list[VertexId]:
            return classes[sig[v]]

        def adjacent_classes(c1: list, c2: list) -> bool:
            return bool(sig[c1[0]] & sig[c2[0]])

        def class_sets(exclude_interface: bool) -> list[list[VertexId]]:
            if not exclude_interface:
                return class_list
            out = []
            for members in class_list:
                kept = [v for v in members if v not in interface]
                if kept:
                    out.append(kept)
            return out

        def solve(required: Optional[VertexId], exclude_interface: bool) -> Optional[frozenset]:
            """Best IS of the subtree hypergraph containing ``required`` (or
            avoiding the interface when ``exclude_interface``)."""
            universe = class_sets(exclude_interface)
            if required is not None:
                req_class = class_of(required)
                universe = [req_class] + [c for c in universe if sig[c[0]] != sig[required]]
            best: Optional[frozenset] = None
            max_picks = max(1, len(node.guard))

            def assemble(sigma: list[list[VertexId]]) -> Optional[frozenset]:
                # sigma: chosen classes, pairwise non-adjacent
                acc: set = set()
                used_children: set[int] = set()
                blocks: list[tuple[list[VertexId], list[int]]] = []
                for members in sigma:
                    touching = [
                        cid for cid, cbag in child_bags
                        if any(m in cbag for m in classes[sig[members[0]]])
                    ]
                    if set(touching) & used_children:
                        raise InvariantViolation("hinge class blocks overlap on a child")
                    used_children.update(touching)
                    blocks.append((members, touching))
                for members, touching in blocks:
                    pinned = required is not None and sig[members[0]] == sig[required]
                    pool = [required] if pinned else members
                    best_block: Optional[frozenset] = None
                    for u in pool:
                        part: set = {u}
                        feasible = True
                        for cid in touching:
                            sub = j_sets[cid].get(u) if u in by_id[cid].bag else j_sets[cid].get(None)
                            if sub is None:
                                feasible = False
                                break
                            part |= sub
                        if feasible:
                            best_block = better(best_block, frozenset(part))
                    if best_block is None:
                        return None
                    acc |= best_block
                for cid, _ in child_bags:
                    if cid not in used_children:
                        sub = j_sets[cid].get(None)
                        if sub is None:
                            return None
                        acc |= sub
                return frozenset(acc)

            def enumerate_sigmas(start: int, chosen: list[list[VertexId]]) -> None:
                nonlocal best
                if required is None or any(sig[c[0]] == sig[required] for c in chosen):
                    candidate = assemble(chosen)
                    if candidate is not None:
                        best = better(best, candidate)
                if len(chosen) >= max_picks:
                    return
                for idx in range(start, len(universe)):
                    cls = universe[idx]
                    if any(adjacent_classes(cls, c) for c in chosen):
                        continue
                    enumerate_sigmas(idx + 1, chosen + [cls])

            enumerate_sigmas(0, [])
            return best

        per_node: dict[Optional[VertexId], frozenset] = {}
        empty = solve(None, exclude_interface=True)
        if empty is not None:
            per_node[None] = empty
        for v in h.sort_vertices(interface):
            if v in cand_set:
                got = solve(v, exclude_interface=False)
                if got is not None:
                    per_node[v] = got
        j_sets[node.node_id] = per_node

    root_best = j_sets[d.root().node_id].get(None, frozenset())
    return _checked_witness(h, set(root_best) | set(freebies), ISMethod.HINGE_FPT)


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
    is not verified again; nor is the join tree ACYCLIC builds. Returns 0
    with no witnesses when S = V, and 0 with empty stars when S is empty.
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
            jt = gyo_join_tree(comp.induced)
            if isinstance(jt, NotAcyclic):
                raise WidthNotOne(f"component {idx} is not acyclic")
            w, cover = _acyclic_is_and_cover(comp.induced, jt, cands)
        elif not comp.closure:  # an edgeless quantified vertex: no S-vertex, no bag to restrict to
            w = max_is_brute(comp.induced, cands)
        else:
            di = induced_decomposition(h, decomposition, comp.closure)
            w = _ALONG[strategy](comp.induced, di, cands)
        witnesses.append(StarWitness(w.size, idx, w.vertices, cover))
        best = max(best, w.size)
    return best, witnesses
