"""Independent brute-force oracles for the test suite.

Everything here is deliberately written from first principles (union-find,
permutation sweeps, exhaustive tree enumeration) so it shares no code path
with the operations it checks. The exceptions keep superseded routes of
the library instead, and say what they share: ``acyclic_star_reference``,
``star_size_along_reference``, the bags-hypergraph route of
``bag_cover_reference``, with its ``blocks_hypergraph`` and
``jointree_over_bags``, and ``hinge_reference``. ``min_fill_order_reference``
is a copy of the library's min-fill, a full rescan of every vertex at every
step, over an adjacency of its own, so a faster min-fill must keep its order,
ties included.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from cqstar.decomposition import (
    CONNECTEDNESS,
    EDGE_UNCOVERED,
    GUARD_GAP,
    HINGE_EDGE_MISSING,
    HINGE_INTERSECTION,
    HINGE_UNION,
    NEGATIVE_WEIGHT,
    STRAY_WEIGHTS,
    WEIGHT_DEFICIT,
    DecompKind,
    DecompNode,
    Decomposition,
    NotAcyclic,
    Violation,
    WidthReport,
    _checked,
    guarded,
    gyo_join_tree,
    induced_decomposition,
)
from cqstar.engine import Relation, Structure
from cqstar.errors import (
    CqstarError,
    DecompositionInvalid,
    IdMismatch,
    InvariantViolation,
    UnknownVariable,
    UnknownVertex,
    WidthNotOne,
)
from cqstar.generators import SimpleGraph
from cqstar.hypergraph import EdgeId, Hypergraph, Query, SHypergraph, VertexId, edge_sort_key, pair_id, s_components
from cqstar.parser import _Cursor, _unquote
from cqstar.starsize import (
    ISMethod,
    ISWitness,
    StarWitness,
    acyclic_is_and_cover,
    approx_is,
    max_is_brute,
    max_is_ghd_dp,
    max_is_hinge_fpt,
)


def components_union_find(h: Hypergraph) -> set[frozenset]:
    parent = {v: v for v in h.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _, fs in h.edges:
        members = sorted(fs, key=h.vertex_index)
        for a, b in zip(members, members[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    groups: dict = {}
    for v in h.vertices:
        groups.setdefault(find(v), set()).add(v)
    return {frozenset(g) for g in groups.values()}


def hypergraph_induced_reference(h: Hypergraph, vs: Iterable[VertexId]) -> Hypergraph:
    """Every edge's nonempty intersection with ``vs``, by one scan of all
    edges in declared order. The oracle for ``Hypergraph.induced``."""
    keep = set(vs)
    for v in keep:
        if not h.has_vertex(v):
            raise UnknownVertex(v)
    new_vertices = tuple(v for v in h.vertices if v in keep)
    new_edges = []
    for eid, fs in h.edges:
        cut = fs & keep
        if cut:
            new_edges.append((eid, cut))
    return Hypergraph(new_vertices, new_edges)


def components_reference(h: Hypergraph) -> list[frozenset]:
    """Maximal path-connected vertex classes, ordered by earliest vertex, by
    a search from every unseen vertex that rescans each edge from each of
    its vertices. The oracle for the vertex classes that the library's
    ``edge_classes`` flood gives."""
    seen: set = set()
    out: list[frozenset] = []
    for start in h.vertices:
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for eid in h.incident_edges(v):
                for u in h.edge_set(eid):
                    if u not in comp:
                        comp.add(u)
                        frontier.append(u)
        seen |= comp
        out.append(frozenset(comp))
    return out


def closure_reference(h: Hypergraph, vs: Iterable[VertexId]) -> frozenset:
    """The union of every edge that meets ``vs``, by one scan of all edges.
    The oracle for the closures that the library's ``edge_classes`` flood
    gives."""
    keep = set(vs)
    for v in keep:
        if not h.has_vertex(v):
            raise UnknownVertex(v)
    closure: set = set()
    for _, fs in h.edges:
        if fs & keep:
            closure |= fs
    return frozenset(closure)


def touching_reference(h: Hypergraph, vs: Iterable[VertexId]) -> Hypergraph:
    """Every edge that meets ``vs``, whole, by one scan of all edges in
    declared order, on the union of those edges. The oracle for the core
    pieces that the count pipeline reads off the query's hypergraph by
    edge ordinal, with no hypergraph of their own."""
    keep = set(vs)
    for v in keep:
        if not h.has_vertex(v):
            raise UnknownVertex(v)
    edges = [(eid, fs) for eid, fs in h.edges if fs & keep]
    union = frozenset().union(*(fs for _, fs in edges))
    return Hypergraph((v for v in h.vertices if v in union), edges)


class ComponentReference(NamedTuple):
    """An S-component as ``s_components_reference`` builds it: the fields of
    ``SComponent``, with ``induced`` built up front by the reference."""

    core: frozenset
    closure: frozenset
    induced: Hypergraph
    s_vertices: frozenset


def s_components_reference(sh: SHypergraph) -> list[ComponentReference]:
    """S-components by the definition: the components of H with S removed,
    each closed under every edge that meets it, with two scans of all edges
    per component. The oracle for ``s_components``."""
    h = sh.hypergraph
    quantified = [v for v in h.vertices if v not in sh.s]
    out = []
    for core in components_reference(hypergraph_induced_reference(h, quantified)):
        closure = closure_reference(h, core)
        out.append(
            ComponentReference(
                core=core,
                closure=closure,
                induced=hypergraph_induced_reference(h, closure),
                s_vertices=closure & sh.s,
            )
        )
    return out


def acyclic_star_reference(sh: SHypergraph) -> tuple[int, list[StarWitness]]:
    """``s_star_size(sh, ISMethod.ACYCLIC)`` by the per-component route it
    took before it ran on plain lists: each component's induced hypergraph,
    its GYO join tree as a ``Decomposition``, and the greedy along that
    tree. It shares ``s_components``, ``gyo_join_tree`` and the greedy with
    the library, so it checks the list route (the cut edges, their GYO
    parents and the walk order), not those."""
    witnesses: list[StarWitness] = []
    best = 0
    for idx, comp in enumerate(s_components(sh)):
        cands = comp.s_vertices
        jt = gyo_join_tree(comp.induced)
        if isinstance(jt, NotAcyclic):
            raise WidthNotOne(f"component {idx} is not acyclic")
        w, cover = acyclic_is_and_cover(comp.induced, jt, cands)
        witnesses.append(StarWitness(w.size, idx, w.vertices, cover))
        best = max(best, w.size)
    return best, witnesses


def star_size_along_reference(sh: SHypergraph, strategy: ISMethod, d: Decomposition) -> tuple[int, list[StarWitness]]:
    """``s_star_size(sh, strategy, d)`` for GHD_DP, HINGE_FPT or APPROX by the
    route it took before it ran on the whole hypergraph: each component's
    worker on the component's induced hypergraph (``comp.induced``), along
    ``induced_decomposition`` of the guarded ``d``; the component of an
    edgeless vertex by brute force. It runs the public worker, which also
    verifies each restriction against the induced hypergraph, and shares
    the workers with the library, so it checks what they are given, not
    the workers."""
    h = sh.hypergraph
    worker = {ISMethod.GHD_DP: max_is_ghd_dp, ISMethod.HINGE_FPT: max_is_hinge_fpt, ISMethod.APPROX: approx_is}[strategy]
    read = guarded(h, d)
    witnesses: list[StarWitness] = []
    best = 0
    for idx, comp in enumerate(s_components(sh)):
        if comp.closure:
            w = worker(comp.induced, induced_decomposition(h, read, comp.closure), comp.s_vertices)
        else:
            w = max_is_brute(comp.induced, comp.s_vertices)
        witnesses.append(StarWitness(w.size, idx, w.vertices))
        best = max(best, w.size)
    return best, witnesses


def blocks_hypergraph(h: Hypergraph, d: Decomposition) -> Hypergraph:
    """Hypergraph over h's vertices with one edge per nonempty bag.

    Always acyclic for a valid decomposition: the tree itself, restricted
    to bags, is a join tree.
    """
    edges = [(n.node_id, n.bag) for n in d.topo_order() if n.bag]
    return Hypergraph(h.vertices, edges)


def jointree_over_bags(d: Decomposition) -> Decomposition:
    """The width-1 decomposition whose guard edges are d's own bags, each
    identified by its node id in ``blocks_hypergraph``."""
    nodes = []
    for n in d.topo_order():
        guard = frozenset({n.node_id}) if n.bag else frozenset()
        nodes.append(DecompNode(n.node_id, n.parent, guard, n.bag))
    return Decomposition(DecompKind.JOINTREE, tuple(nodes))


def bag_cover_reference(h: Hypergraph, d: Decomposition, cands) -> tuple[ISWitness, frozenset]:
    """The independent set and edge cover of ``cands`` on the acyclic
    hypergraph of ``d``'s bags by the route ``starsize._bag_cover``
    replaced: the bags built as a hypergraph, a second join tree over them,
    both verified, and the witness checked against that hypergraph. It
    shares the cover greedy with the library, so it checks the walk and the
    certificate, not the greedy."""
    return acyclic_is_and_cover(blocks_hypergraph(h, d), jointree_over_bags(d), cands)


def max_is_size(h: Hypergraph, candidates=None) -> int:
    """Maximum independent set size by subset enumeration over candidates."""
    cands = list(h.vertices) if candidates is None else [v for v in h.vertices if v in set(candidates)]
    sets = [fs for _, fs in h.dedup_edges()]
    best = 0
    for size in range(len(cands), 0, -1):
        if size <= best:
            break
        for combo in itertools.combinations(cands, size):
            chosen = set(combo)
            if all(len(chosen & fs) <= 1 for fs in sets):
                best = size
                break
        if best:
            break
    return best


def min_edge_cover_size(h: Hypergraph, targets) -> int:
    """Smallest number of edges whose union contains the targets."""
    want = set(targets)
    dd = h.dedup_edges()
    for size in range(0, len(dd) + 1):
        for combo in itertools.combinations(dd, size):
            union = set().union(*(fs for _, fs in combo)) if combo else set()
            if want <= union:
                return size
    raise AssertionError("targets not coverable")


def is_acyclic_bruteforce(h: Hypergraph) -> bool:
    """Join-tree existence by enumerating all trees over the dedup edges.

    A tree is a join tree iff for every pair of edges, their intersection
    is contained in every edge on the connecting path.
    """
    dd = h.dedup_edges()
    m = len(dd)
    if m <= 2:
        return True
    sets = [fs for _, fs in dd]

    def valid(adj) -> bool:
        for a, b in itertools.combinations(range(m), 2):
            shared = sets[a] & sets[b]
            if not shared:
                continue
            # path a -> b
            prev = {a: None}
            stack = [a]
            while stack:
                cur = stack.pop()
                if cur == b:
                    break
                for nxt in adj[cur]:
                    if nxt not in prev:
                        prev[nxt] = cur
                        stack.append(nxt)
            node = prev[b]
            while node is not None and node != a:
                if not shared <= sets[node]:
                    return False
                node = prev[node]
        return True

    for code in itertools.product(range(m), repeat=m - 2):
        # Pruefer decode
        degree = [1] * m
        for x in code:
            degree[x] += 1
        adj = {i: set() for i in range(m)}
        ptr = 0
        leaf = 0
        code_list = list(code)
        degree2 = degree[:]
        leaves = sorted(i for i in range(m) if degree2[i] == 1)
        import heapq

        heap = leaves[:]
        heapq.heapify(heap)
        for x in code_list:
            leaf = heapq.heappop(heap)
            adj[leaf].add(x)
            adj[x].add(leaf)
            degree2[x] -= 1
            if degree2[x] == 1:
                heapq.heappush(heap, x)
        u = heapq.heappop(heap)
        v = heapq.heappop(heap)
        adj[u].add(v)
        adj[v].add(u)
        if valid(adj):
            return True
    return False


def min_hinge_width(h: Hypergraph) -> int:
    """Minimum hingetree width by exhaustive recursion over all split
    choices; acyclic blocks cost 1, unsplittable cyclic blocks their size.

    Edges contained in other edges always externalize to width-1 leaves, so
    the recursion runs on the maximal set family per connected component.
    """
    dd = h.dedup_edges()
    if not dd:
        return 0
    sets = dict(dd)

    comps: list[list] = []
    assigned: dict = {}
    for eid, fs in dd:
        hit = sorted({assigned[v] for v in fs if v in assigned})
        if hit:
            target = hit[0]
            for other in hit[1:]:
                comps[target].extend(comps[other])
                for v, c in assigned.items():
                    if c == other:
                        assigned[v] = target
                comps[other] = []
            comps[target].append(eid)
        else:
            target = len(comps)
            comps.append([eid])
        for v in fs:
            assigned[v] = target

    def acyclic(edge_ids: frozenset) -> bool:
        verts = sorted(set().union(*(sets[e] for e in edge_ids)))
        return is_acyclic_bruteforce(Hypergraph(verts, [(e, sets[e]) for e in sorted(edge_ids, key=str)]))

    memo: dict = {}

    def best(family: frozenset) -> int:
        if family in memo:
            return memo[family]
        if len(family) == 1:
            memo[family] = 1
            return 1
        if acyclic(family):
            memo[family] = 1
            return 1
        result = len(family)
        for pivot in family:
            rest = [e for e in family if e != pivot]
            parent = {e: e for e in rest}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            home: dict = {}
            for e in rest:
                for v in sets[e] - sets[pivot]:
                    if v in home:
                        ra, rb = find(home[v]), find(e)
                        if ra != rb:
                            parent[ra] = rb
                    else:
                        home[v] = e
            groups: dict = {}
            for e in rest:
                groups.setdefault(find(e), []).append(e)
            if len(groups) < 2:
                continue
            width = max(best(frozenset(g) | {pivot}) for g in groups.values())
            result = min(result, width)
        memo[family] = result
        return result

    total = 1
    for comp in comps:
        if not comp:
            continue
        maximal = [e for e in comp if not any(f != e and sets[e] < sets[f] for f in comp)]
        total = max(total, best(frozenset(maximal)))
    return total


def hinge_reference(h: Hypergraph) -> Decomposition:
    """The route ``hinge_decompose`` replaced, kept but for one swap: a GYO
    pass over ``h`` to classify the blocks, a ``Hypergraph`` per cyclic
    block or part, the vertex classes of its restriction outside each
    pivot, and a join tree of the guards' bags built as a hypergraph. The
    classes come from ``components_reference`` over
    ``hypergraph_induced_reference``, where the library's route read a
    vertex flood that the library no longer has. It shares
    ``_gyo``, through ``gyo_join_tree``, and the closing ``verify`` with
    the library, so it checks the construction, not the reduction.

    Hinge splitting (Gyssens, Jeavons and Cohen 1994) over a worklist of
    blocks, then one join tree of the guards' bags.

    Each connected part's maximal edges form one block. A popped block that
    is acyclic gives one width-1 guard per edge. Otherwise it is split at
    its first pivot in edge order whose removal leaves two or more parts
    connected outside the pivot, and each part plus the pivot is pushed; a
    block that no pivot splits is one guard. The parts are the vertex
    classes of the block restricted to the vertices outside the pivot, each
    with the edges that reach it. An edge inside another edge is a width-1 guard
    of its own. The hinge conditions that ``verify`` checks hold for any
    join tree of these guards' bags, so ``gyo_join_tree`` over the bags
    gives the tree. Nothing here recurses.

    GYO runs once over ``h`` to classify the original blocks. It reduces
    each connected part on its own, so a block is acyclic iff the kernel
    that run leaves holds none of its part's vertices; an acyclic block
    gets its guards with no hypergraph or GYO run of its own. Only a cyclic
    block, to find its pivot, and each part of a split, to classify it, are
    built as hypergraphs, and only the parts are reduced again.
    """
    sets = dict(h.dedup_edges())
    comp_of = {v: i for i, comp in enumerate(components_reference(h)) for v in comp}
    blocks: dict[int, list[EdgeId]] = {}
    guards: dict[frozenset, None] = {}
    for eid, fs in sets.items():
        v = next(iter(fs), None)
        if v is None or any(fs < h.edge_set(f) for f in h.incident_edges(v)):
            guards[frozenset({eid})] = None
        else:
            blocks.setdefault(comp_of[v], []).append(eid)
    reduced = gyo_join_tree(h)
    cyclic = {comp_of[v] for v in reduced.kernel.vertices} if isinstance(reduced, NotAcyclic) else set()
    work: list = [(block, i not in cyclic) for i, block in blocks.items()]  # (edges, acyclic or None if unknown)
    while work:
        block, acyclic = work.pop()
        block = sorted(block, key=edge_sort_key)
        if not acyclic:
            sub = Hypergraph(frozenset().union(*map(sets.get, block)), [(e, sets[e]) for e in block])
            if acyclic is None:
                acyclic = not isinstance(gyo_join_tree(sub), NotAcyclic)
        if acyclic:
            guards.update(dict.fromkeys(frozenset({e}) for e in block))
            continue
        for pivot in block:
            classes = components_reference(hypergraph_induced_reference(sub, set(sub.vertices) - sets[pivot]))
            if len(classes) > 1:
                class_of = {v: i for i, c in enumerate(classes) for v in c}
                parts: dict[int, list[EdgeId]] = {}
                for e in block:
                    if e != pivot:  # a maximal edge has a vertex outside the pivot
                        home = class_of[next(iter(sets[e] - sets[pivot]))]
                        parts.setdefault(home, []).append(e)
                work.extend((part + [pivot], None) for part in parts.values())
                break
        else:
            guards[frozenset(block)] = None
    order = list(guards)
    bags = [frozenset().union(*map(sets.get, g)) for g in order]
    jt = gyo_join_tree(Hypergraph(h.vertices, enumerate(bags)))
    if isinstance(jt, NotAcyclic):
        raise InvariantViolation("hinge blocks' bags are cyclic")
    nodes = tuple(
        DecompNode(n.node_id, n.parent, frozenset().union(*(order[i] for i in n.guard)), n.bag)
        for n in jt.nodes
    )
    return _checked(h, Decomposition(DecompKind.HINGE, nodes), "hinge_decompose")


def primal_adjacency_reference(h: Hypergraph) -> dict:
    """v -> the vertices sharing an edge of ``h.edges`` with v, v excluded."""
    adj: dict = {v: set() for v in h.vertices}
    for _, fs in h.edges:
        for v in fs:
            adj[v].update(fs - {v})
    return adj


def elimination_width_reference(h: Hypergraph, order: Sequence[VertexId]) -> int:
    """The width of eliminating ``order``: the most neighbours a vertex has
    left when it goes, -1 for no vertex."""
    adj = primal_adjacency_reference(h)
    width = -1
    for v in order:
        nbrs = adj.pop(v)
        width = max(width, len(nbrs))
        for a in nbrs:
            adj[a].discard(v)
        for a, b in itertools.combinations(nbrs, 2):
            adj[a].add(b)
            adj[b].add(a)
    return width


def treewidth_by_permutations(h: Hypergraph) -> int:
    """Exact treewidth as the best elimination order over all permutations."""
    return min((elimination_width_reference(h, order) for order in itertools.permutations(h.vertices)), default=-1)


def min_fill_order_reference(h: Hypergraph) -> list[VertexId]:
    """The min-fill order by a full rescan of every remaining vertex at every
    step, ties to the lowest vertex index: ``decomposition._min_fill_order``
    but for its name and that it reads ``primal_adjacency_reference``."""
    adj = primal_adjacency_reference(h)
    index = {v: i for i, v in enumerate(h.vertices)}
    order = []
    remaining = set(h.vertices)
    while remaining:
        best_v, best_fill = None, None
        for v in sorted(remaining, key=index.__getitem__):
            nbrs = [u for u in adj[v] if u in remaining]
            fill = sum(
                1
                for a, b in itertools.combinations(nbrs, 2)
                if b not in adj[a]
            )
            if best_fill is None or fill < best_fill:
                best_v, best_fill = v, fill
        nbrs = [u for u in adj[best_v] if u in remaining]
        for a, b in itertools.combinations(nbrs, 2):
            adj[a].add(b)
            adj[b].add(a)
        remaining.discard(best_v)
        order.append(best_v)
    return order


def minor_min_width_reference(h: Hypergraph) -> int:
    """The minor-min-width bound over an edge list: take the vertex of least
    degree, then its neighbour of least degree, ties to the lower vertex
    index in both, and contract the edge between them (a vertex with no
    neighbour is dropped); the bound is the largest least degree seen."""
    index = {v: i for i, v in enumerate(h.vertices)}
    alive = set(h.vertices)
    edges = {frozenset(pair) for _, fs in h.edges for pair in itertools.combinations(fs, 2)}

    def degree(v):
        return sum(v in e for e in edges)

    bound = 0
    while alive:
        v = min(sorted(alive, key=index.__getitem__), key=degree)
        bound = max(bound, degree(v))
        alive.remove(v)
        nbrs = [u for e in edges if v in e for u in e if u != v]
        if nbrs:
            into = min(sorted(nbrs, key=index.__getitem__), key=degree)
            edges = {frozenset(into if u == v else u for u in e) for e in edges}
            edges = {e for e in edges if len(e) == 2}
    return bound


def _reachable_targets(adj, through: set, v) -> set:
    """Vertices outside ``through`` u {v} reachable from v via ``through``."""
    seen = {v}
    out = set()
    frontier = [v]
    while frontier:
        cur = frontier.pop()
        for u in adj[cur]:
            if u in seen:
                continue
            seen.add(u)
            if u in through:
                frontier.append(u)
            else:
                out.add(u)
    return out


def exact_elimination_order_reference(h: Hypergraph) -> list[VertexId]:
    """Subset DP over elimination prefixes; exact for small vertex counts.

    The oracle for ``decomposition._exact_elimination_order``: it rebuilds
    the ``through`` set and searches afresh for every (subset, vertex) pair,
    visits subsets by size, and breaks ties to the lowest vertex index."""
    vs = list(h.vertices)
    n = len(vs)
    adj = primal_adjacency_reference(h)

    cost: dict[int, int] = {0: -1}
    choice: dict[int, int] = {}
    subsets_by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1 << n):
        subsets_by_size[bin(mask).count("1")].append(mask)
    for size in range(1, n + 1):
        for mask in subsets_by_size[size]:
            best = None
            best_v = None
            for i in range(n):
                bit = 1 << i
                if not mask & bit:
                    continue
                prev = mask ^ bit
                through = {vs[j] for j in range(n) if prev & (1 << j)}
                q = len(_reachable_targets(adj, through, vs[i]))
                val = max(cost[prev], q)
                if best is None or val < best:
                    best, best_v = val, i
            cost[mask] = best
            choice[mask] = best_v
    order = []
    mask = (1 << n) - 1
    while mask:
        i = choice[mask]
        order.append(vs[i])
        mask ^= 1 << i
    order.reverse()
    return order


def count_by_full_join(instance) -> int:
    """Distinct free assignments via literal nested enumeration over atoms."""
    from cqstar.engine import atom_relation

    rels = [atom_relation(instance.structure, a) for a in instance.query.atoms]
    solutions: set = set()

    def walk(i: int, binding: dict):
        if i == len(rels):
            solutions.add(tuple(binding[v] for v in instance.query.free_vars))
            return
        rel = rels[i]
        for row in rel.rows:
            new = dict(binding)
            ok = True
            for v, val in zip(rel.schema, row):
                if new.get(v, val) != val:
                    ok = False
                    break
                new[v] = val
            if ok:
                walk(i + 1, new)

    walk(0, {})
    return len(solutions)


def count_k_cliques(graph, k: int) -> int:
    from itertools import combinations

    count = 0
    for combo in combinations(range(graph.n), k):
        if all(graph.adjacent(u, v) for u, v in combinations(combo, 2)):
            count += 1
    return count


def has_k_independent_set(graph, k: int) -> bool:
    from itertools import combinations

    for combo in combinations(range(graph.n), k):
        if all(not graph.adjacent(u, v) for u, v in combinations(combo, 2)):
            return True
    return False


def gyo_reference(h: Hypergraph) -> Union[Decomposition, NotAcyclic]:
    """Quadratic GYO ear elimination, the oracle for ``gyo_join_tree``.

    Every round recounts vertex occurrences over the alive reduced sets,
    drops the vertices seen once, and absorbs the first alive edge (in
    declared order) whose reduced set lies in another alive edge's, under
    the first such edge.
    """
    dd = h.dedup_edges()
    if not dd:
        node = DecompNode(0, None, frozenset(), frozenset())
        return Decomposition(DecompKind.JOINTREE, (node,))
    reduced = {eid: set(fs) for eid, fs in dd}
    alive = [eid for eid, _ in dd]
    parent: dict[EdgeId, EdgeId] = {}
    while True:
        occ = Counter(v for eid in alive for v in reduced[eid])
        for eid in alive:
            solo = {v for v in reduced[eid] if occ[v] == 1}
            reduced[eid] -= solo
        absorbed = None
        for eid in alive:
            for fid in alive:
                if fid != eid and reduced[eid] <= reduced[fid]:
                    parent[eid] = fid
                    absorbed = eid
                    break
            if absorbed is not None:
                break
        if absorbed is None:
            break
        alive.remove(absorbed)
    if len(alive) > 1:
        kernel_vertices = [v for v in h.vertices if any(v in reduced[eid] for eid in alive)]
        kernel = Hypergraph(kernel_vertices, [(eid, frozenset(reduced[eid])) for eid in alive])
        return NotAcyclic(kernel)
    ordinal = {eid: i for i, (eid, _) in enumerate(dd)}
    sets = dict(dd)
    nodes = []
    for eid, _ in dd:
        par = ordinal[parent[eid]] if eid in parent else None
        nodes.append(DecompNode(ordinal[eid], par, frozenset({eid}), sets[eid]))
    return Decomposition(DecompKind.JOINTREE, tuple(nodes))


def induced_reference(h: Hypergraph, d: Decomposition, vs: Iterable[VertexId]) -> Decomposition:
    """Restrict bags and guards to ``vs``; empty nodes stay to keep the tree
    shape. The oracle for ``induced_decomposition``, which keeps only the
    subtree whose bags meet ``vs``.
    """
    keep = frozenset(vs)
    nodes = []
    for n in d.nodes:
        guard = frozenset(e for e in n.guard if not keep.isdisjoint(h.edge_set(e)))
        weights = None
        if n.weights is not None:
            weights = {e: w for e, w in n.weights.items() if not keep.isdisjoint(h.edge_set(e))}
        nodes.append(DecompNode(n.node_id, n.parent, guard, n.bag & keep, weights))
    return Decomposition(d.kind, tuple(nodes))


# The verifier that ``decomposition.verify`` was before it ran as bulk set
# and count passes, kept word for word: one Python step per (node, vertex)
# incidence, and every node pair that shares a vertex compared.
def _connectedness_violations(holders: dict[VertexId, list[DecompNode]]) -> list[Violation]:
    """A vertex's nodes are connected iff exactly one of them has its parent
    outside the set."""
    out = []
    for v in sorted(holders):
        ids = {n.node_id for n in holders[v]}
        if sum(n.parent not in ids for n in holders[v]) > 1:
            out.append(Violation(CONNECTEDNESS, vertex=v))
    return out


def tree_targets(h: Hypergraph) -> list:
    """What some bag of a tree decomposition must hold, each: the one-vertex
    edges of h under their own ids, in declared order, then the edges of
    its primal graph."""
    singles = [(eid, fs) for eid, fs in h.dedup_edges() if len(fs) == 1]
    return singles + list(primal_graph(h).dedup_edges())


def verify_reference(h: Hypergraph, d: Decomposition) -> WidthReport:
    """Check exactly the conditions of d.kind against h; report all findings.

    Raises IdMismatch for ids that do not refer to h at all. A width is
    reported only when the violation list is empty.

    One index maps each vertex to the nodes whose bag holds it, in node
    order. It gives the connectedness check. It limits the coverage check
    of an edge to the bags holding the edge's rarest vertex, and the hinge
    intersection check to pairs of nodes that share a vertex, so neither
    check compares every edge or node with every node. A TREE
    decomposition is checked against its ``tree_targets``. Violations come
    in a fixed order: connectedness by vertex, uncovered edges in declared
    order (for a TREE, in the order of ``tree_targets``), then the
    conditions of the kind, node by node or pair by pair in node order; a
    fractional node reports each negative weight, by edge, before each bag
    vertex its weights do not cover, and a node of any other kind that
    carries a weights map reports it. An empty edge is always covered.
    """
    holders: dict[VertexId, list[DecompNode]] = {}
    for n in d.nodes:
        for eid in n.guard:
            if not h.has_edge_id(eid):
                raise IdMismatch(f"node {n.node_id}: unknown edge id {eid!r}")
        for v in n.bag:
            if not h.has_vertex(v):
                raise IdMismatch(f"node {n.node_id}: unknown vertex {v!r}")
            holders.setdefault(v, []).append(n)
        for eid in n.weights or ():
            if not h.has_edge_id(eid):
                raise IdMismatch(f"node {n.node_id}: unknown weighted edge id {eid!r}")

    violations = _connectedness_violations(holders)
    for eid, fs in tree_targets(h) if d.kind is DecompKind.TREE else h.dedup_edges():
        if fs and not any(fs <= n.bag for n in min((holders.get(v, ()) for v in fs), key=len)):
            violations.append(Violation(EDGE_UNCOVERED, edge=eid))

    if d.kind in (DecompKind.JOINTREE, DecompKind.GHD, DecompKind.HINGE):
        for n in d.nodes:
            if n.bag:
                for v in sorted(n.bag.difference(*map(h.edge_set, n.guard))):
                    violations.append(Violation(GUARD_GAP, node=n.node_id, vertex=v))

    if d.kind is DecompKind.HINGE:
        for n in d.nodes:
            if frozenset().union(*map(h.edge_set, n.guard)) != n.bag:
                violations.append(Violation(HINGE_UNION, node=n.node_id))
        position = {n.node_id: i for i, n in enumerate(d.nodes)}
        meeting = {
            (position[a.node_id], position[b.node_id])
            for nodes in holders.values()
            for a, b in itertools.combinations(nodes, 2)
        }
        for i, j in sorted(meeting):
            a, b = d.nodes[i], d.nodes[j]
            shared = a.bag & b.bag
            if not any(
                shared <= (h.edge_set(e1) & h.edge_set(e2))
                for e1 in a.guard
                for e2 in b.guard
            ):
                violations.append(Violation(HINGE_INTERSECTION, node=a.node_id, node2=b.node_id))
        guarded_sets = {h.edge_set(e) for n in d.nodes for e in n.guard}
        for eid, fs in h.dedup_edges():
            if fs not in guarded_sets:
                violations.append(Violation(HINGE_EDGE_MISSING, edge=eid))

    if d.kind is DecompKind.FRACTIONAL:
        for n in d.nodes:
            weights = n.weights or {}
            for eid in sorted(weights, key=edge_sort_key):
                if weights[eid] < 0:
                    violations.append(Violation(NEGATIVE_WEIGHT, node=n.node_id, edge=eid))
            for v in sorted(n.bag):
                total = sum((w for eid, w in weights.items() if v in h.edge_set(eid)), Fraction(0))
                if total < 1:
                    violations.append(Violation(WEIGHT_DEFICIT, node=n.node_id, vertex=v))
    else:
        violations += [Violation(STRAY_WEIGHTS, node=n.node_id) for n in d.nodes if n.weights is not None]

    if violations:
        return WidthReport(d.kind, None, tuple(violations))
    width = d.raw_width()
    if d.kind is DecompKind.TREE:
        width = max(width, 0)
    return WidthReport(d.kind, width, ())


def require_width_one(h: Hypergraph, jt: Decomposition) -> None:
    """Raise WidthNotOne unless jt is a valid width-1 join tree or GHD of h.
    The checked form that ``decomposition.require_width_one`` had; the
    library now checks a join tree only where one enters
    ``starsize.acyclic_is_and_cover``."""
    if jt.kind not in (DecompKind.JOINTREE, DecompKind.GHD):
        raise WidthNotOne(f"expected a join tree, got kind {jt.kind.value}")
    report = verify_reference(h, jt)
    if not report.ok:
        raise WidthNotOne(f"join tree fails verification: {report.violations}")
    if report.width > 1:
        raise WidthNotOne(f"decomposition has width {report.width}, need 1")


def tree_fault(h: Hypergraph, d: Decomposition) -> Optional[str]:
    """None if ``d`` is a valid decomposition of ``h`` by ``verify_reference``,
    and of width 1 when it is a join tree; else what is wrong. The check of
    the trees the library derives from a verified decomposition and trusts:
    a component's own join tree, a restriction, and the join tree over a
    decomposition's bags."""
    try:
        if d.kind is DecompKind.JOINTREE:
            require_width_one(h, d)
        else:
            report = verify_reference(h, d)
            if not report.ok:
                violations = ", ".join(map(str, report.violations))
                raise DecompositionInvalid(f"decomposition fails verification: {violations}")
    except CqstarError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def parse_facts_reference(text: str, filename: str = "<facts>") -> Structure:
    """Token-by-token fact parsing, the oracle for ``parse_facts``'s
    statement scanner: every statement goes through the token cursor, which
    reads one token at a time and, before any error, looks ahead for a
    character no token starts with.

    Fact statements ``P(a,b,c).``; relations deduplicate, the domain is
    every constant appearing anywhere, interned in first-appearance order."""
    cur = _Cursor(text, filename)
    domain: dict[str, int] = {}
    schemas: dict[str, tuple[int, int]] = {}  # arity and offset of first use
    rows: dict[str, set] = {}

    def constant() -> int:
        kind, value, offset = cur.next()
        if kind == "string":
            value = _unquote(cur, value, offset)
        elif kind != "name" and kind != "number":
            raise cur.error(f"expected a constant, found {value!r}", offset)
        return domain.setdefault(value, len(domain))

    while cur.peek()[0] != "eof":
        _, pred, offset = cur.expect("name")
        values: list[int] = []
        cur.items(lambda: values.append(constant()))
        cur.expect("punct", ".")
        known = schemas.get(pred)
        if known is None:
            schemas[pred] = (len(values), offset)
        elif known[0] != len(values):
            message = f"predicate {pred!r} used with arity {len(values)}, earlier {known[0]}"
            raise cur.error(message, offset, known[1])
        rows.setdefault(pred, set()).add(tuple(values))
    relations = {
        name: Relation(name, tuple(f"c{i}" for i in range(schemas[name][0])), frozenset(tuples))
        for name, tuples in rows.items()
    }
    return Structure(tuple(domain), relations)


def natural_join_reference(r1: Relation, r2: Relation, name: Optional[str] = None) -> Relation:
    """Hash join with one generator per row and per match, the oracle for
    ``engine.natural_join``: r2's whole rows are indexed by their shared
    values, and each match rebuilds r2's tail from the row."""
    shared = [v for v in r1.schema if v in r2.schema]
    extra = [v for v in r2.schema if v not in r1.schema]
    schema = r1.schema + tuple(extra)
    p1 = [r1.schema.index(v) for v in shared]
    p2 = [r2.schema.index(v) for v in shared]
    pextra = [r2.schema.index(v) for v in extra]
    index: dict = {}
    for row in r2.rows:
        index.setdefault(tuple(row[i] for i in p2), []).append(row)
    out = set()
    for row in r1.rows:
        key = tuple(row[i] for i in p1)
        for other in index.get(key, ()):
            out.add(row + tuple(other[i] for i in pextra))
    return Relation(name or f"({r1.name}*{r2.name})", schema, frozenset(out))


def natural_join_onto_reference(r1: Relation, r2: Relation, onto, name: Optional[str] = None) -> Relation:
    """The reference join cut, position by position, to the columns whose
    variable is in ``onto``: the oracle for ``engine.natural_join`` with
    ``onto``. A repeated variable keeps every one of its columns."""
    joined = natural_join_reference(r1, r2, name)
    keep = [i for i, v in enumerate(joined.schema) if v in onto]
    rows = frozenset(tuple(row[i] for i in keep) for row in joined.rows)
    return Relation(joined.name, tuple(joined.schema[i] for i in keep), rows)


def project_reference(r: Relation, variables: Sequence[str], name: Optional[str] = None) -> Relation:
    """A fresh tuple per row, also for an identity projection; the oracle
    for ``engine.project``."""
    positions = []
    for v in variables:
        if v not in r.schema:
            raise UnknownVariable(f"variable {v!r} not in schema {r.schema!r}")
        positions.append(r.schema.index(v))
    rows = frozenset(tuple(row[i] for i in positions) for row in r.rows)
    return Relation(name or r.name, tuple(variables), rows)


def semijoin_reference(r: Relation, s: Relation, name: Optional[str] = None) -> Relation:
    """Key tuples built per row by generators; the oracle for ``engine.semijoin``."""
    shared = [v for v in r.schema if v in s.schema]
    if not shared:
        rows = r.rows if s.rows else frozenset()
        return Relation(name or r.name, r.schema, rows)
    pr = [r.schema.index(v) for v in shared]
    ps = [s.schema.index(v) for v in shared]
    keys = {tuple(row[i] for i in ps) for row in s.rows}
    rows = frozenset(row for row in r.rows if tuple(row[i] for i in pr) in keys)
    return Relation(name or r.name, r.schema, rows)


def bag_relations_reference(rels: Mapping[int, Relation], d: Decomposition) -> dict[int, Relation]:
    """Per node of a decomposition of any kind, the reference join of its
    guard atoms, of the atoms its weights name and of the atoms assigned to
    it (each atom to the first node in topological order whose bag holds its
    variables), projected onto the bag's variables in sorted order: the
    oracle for ``engine._bag_materialize``. ``rels[e]`` is the relation of
    edge e."""
    order = d.topo_order()
    parts = {n.node_id: set(n.guard) | set(n.weights or ()) for n in order}
    for e, rel in rels.items():
        parts[next(n for n in order if set(rel.schema) <= n.bag).node_id].add(e)
    out = {}
    for n in order:
        joined = Relation("", (), frozenset({()}))
        for e in sorted(parts[n.node_id]):
            joined = natural_join_reference(joined, rels[e])
        out[n.node_id] = project_reference(joined, sorted(n.bag), f"b{n.node_id}")
    return out


def absorb_child_reference(table: dict, schema: tuple, child: dict, child_schema: tuple) -> dict:
    """The child sum of ``count_acyclic_qf`` row by row: the oracle for
    ``engine._absorb_child``. Returns a new table and leaves ``table`` as it is."""
    table = dict(table)
    shared = [v for v in schema if v in child_schema]
    pc = [child_schema.index(v) for v in shared]
    pp = [schema.index(v) for v in shared]
    sums: dict[tuple, int] = {}
    for crow, c in child.items():
        key = tuple(crow[i] for i in pc)
        sums[key] = sums.get(key, 0) + c
    for row in list(table):
        key = tuple(row[i] for i in pp)
        table[row] *= sums.get(key, 0)
    return table


# -- helpers that only tests call ------------------------------------------------


def integralize(d: Decomposition) -> Decomposition:
    """Characteristic-function weights turn a guard-based decomposition into
    a fractional one of the same width."""
    nodes = tuple(replace(n, weights={e: Fraction(1) for e in n.guard}) for n in d.nodes)
    return Decomposition(DecompKind.FRACTIONAL, nodes)


def bound_vars(query: Query) -> tuple[str, ...]:
    free = set(query.free_vars)
    return tuple(v for v in query.variables() if v not in free)


def edge_list_to_text(g: SimpleGraph) -> str:
    lines = [f"n {g.n}"]
    for e in sorted(g.edges, key=lambda e: tuple(sorted(e))):
        u, v = sorted(e)
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def primal_graph(h: Hypergraph) -> Hypergraph:
    """Clique expansion: one 2-vertex edge per co-occurring pair, under
    its ``pair_id``."""
    pairs: dict[frozenset[VertexId], None] = {}
    for _, fs in h.dedup_edges():
        members = h.sort_vertices(fs)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pairs.setdefault(frozenset((members[i], members[j])))
    edges = []
    for pair in pairs:
        u, v = h.sort_vertices(pair)
        edges.append((pair_id(u, v), pair))
    return Hypergraph(h.vertices, edges)
