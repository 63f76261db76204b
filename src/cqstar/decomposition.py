"""Decompositions of hypergraphs: join trees, GHDs, hingetrees, tree
decompositions, and fractional hypertree decompositions.

A decomposition is a rooted tree of guarded blocks. ``verify`` checks
exactly the conditions of the decomposition's kind and reports every
violation; constructors only ever return decompositions that verify clean.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .errors import BudgetExceeded, DecompositionInvalid, IdMismatch, InvariantViolation, WidthNotOne
from .hypergraph import EdgeId, Hypergraph, VertexId, edge_sort_key


class DecompKind(str, Enum):
    JOINTREE = "jointree"
    GHD = "ghd"
    HINGE = "hinge"
    TREE = "tree"
    FRACTIONAL = "fractional"


@dataclass(frozen=True)
class DecompNode:
    node_id: int
    parent: Optional[int]  # None for the root
    guard: frozenset  # edge ids
    bag: frozenset  # vertex ids
    weights: Optional[Mapping[EdgeId, Fraction]] = None  # FRACTIONAL only


@dataclass(frozen=True)
class Decomposition:
    kind: DecompKind
    nodes: tuple[DecompNode, ...]

    def __post_init__(self):
        ids = [n.node_id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise DecompositionInvalid("duplicate node id")
        idset = set(ids)
        roots = [n for n in self.nodes if n.parent is None]
        if len(roots) != 1:
            raise DecompositionInvalid(f"expected exactly one root, found {len(roots)}")
        for n in self.nodes:
            if n.parent is not None and n.parent not in idset:
                raise DecompositionInvalid(f"node {n.node_id} has dangling parent {n.parent}")
        # parent pointers must be acyclic
        by_id = {n.node_id: n for n in self.nodes}
        for n in self.nodes:
            seen = set()
            cur = n
            while cur.parent is not None:
                if cur.node_id in seen:
                    raise DecompositionInvalid("cycle in parent pointers")
                seen.add(cur.node_id)
                cur = by_id[cur.parent]

    def root(self) -> DecompNode:
        return next(n for n in self.nodes if n.parent is None)

    def node(self, node_id: int) -> DecompNode:
        for n in self.nodes:
            if n.node_id == node_id:
                return n
        raise KeyError(node_id)

    def children_map(self) -> dict[int, list[DecompNode]]:
        out: dict[int, list[DecompNode]] = {n.node_id: [] for n in self.nodes}
        for n in self.nodes:
            if n.parent is not None:
                out[n.parent].append(n)
        return out

    def topo_order(self) -> list[DecompNode]:
        """Nodes with every parent before its children."""
        children = self.children_map()
        order = [self.root()]
        i = 0
        while i < len(order):
            order.extend(children[order[i].node_id])
            i += 1
        return order

    def post_order(self) -> list[DecompNode]:
        return list(reversed(self.topo_order()))

    def raw_width(self) -> Union[int, Fraction]:
        """Width by kind convention, without any validity check."""
        if self.kind is DecompKind.TREE:
            return max((len(n.bag) for n in self.nodes), default=0) - 1 if self.nodes else 0
        if self.kind is DecompKind.FRACTIONAL:
            widths = [sum((n.weights or {}).values(), Fraction(0)) for n in self.nodes]
            return max(widths, default=Fraction(0))
        return max((len(n.guard) for n in self.nodes), default=0)


# -- verification ---------------------------------------------------------

CONNECTEDNESS = "CONNECTEDNESS"
EDGE_UNCOVERED = "EDGE_UNCOVERED"
GUARD_GAP = "GUARD_GAP"
HINGE_INTERSECTION = "HINGE_INTERSECTION"
HINGE_UNION = "HINGE_UNION"
HINGE_EDGE_MISSING = "HINGE_EDGE_MISSING"
WEIGHT_DEFICIT = "WEIGHT_DEFICIT"


@dataclass(frozen=True)
class Violation:
    tag: str
    node: Optional[int] = None
    node2: Optional[int] = None
    vertex: Optional[str] = None
    edge: Optional[EdgeId] = None

    def __str__(self):
        parts = [self.tag]
        if self.node is not None:
            parts.append(f"node={self.node}")
        if self.node2 is not None:
            parts.append(f"node2={self.node2}")
        if self.vertex is not None:
            parts.append(f"vertex={self.vertex}")
        if self.edge is not None:
            parts.append(f"edge={self.edge}")
        return "(" + " ".join(parts) + ")"


@dataclass(frozen=True)
class WidthReport:
    kind: DecompKind
    width: Optional[Union[int, Fraction]]  # reported only when violations is empty
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _connectedness_violations(d: Decomposition) -> list[Violation]:
    occupied: dict[str, set[int]] = {}
    for n in d.nodes:
        for v in n.bag:
            occupied.setdefault(v, set()).add(n.node_id)
    by_id = {n.node_id: n for n in d.nodes}
    out = []
    for v in sorted(occupied):
        nodes = occupied[v]
        tops = [t for t in nodes if by_id[t].parent not in nodes]
        if len(tops) > 1:
            out.append(Violation(CONNECTEDNESS, vertex=v))
    return out


def verify(h: Hypergraph, d: Decomposition) -> WidthReport:
    """Check exactly the conditions of d.kind against h; report all findings.

    Raises IdMismatch for ids that do not refer to h at all. A width is
    reported only when the violation list is empty.
    """
    for n in d.nodes:
        for eid in n.guard:
            if not h.has_edge_id(eid):
                raise IdMismatch(f"node {n.node_id}: unknown edge id {eid!r}")
        for v in n.bag:
            if not h.has_vertex(v):
                raise IdMismatch(f"node {n.node_id}: unknown vertex {v!r}")
        if n.weights:
            for eid in n.weights:
                if not h.has_edge_id(eid):
                    raise IdMismatch(f"node {n.node_id}: unknown weighted edge id {eid!r}")

    violations: list[Violation] = []
    target = h.primal_graph() if d.kind is DecompKind.TREE else h
    violations.extend(_connectedness_violations(d))
    for eid, fs in target.dedup_edges():
        if not any(fs <= n.bag for n in d.nodes):
            violations.append(Violation(EDGE_UNCOVERED, edge=eid))

    if d.kind in (DecompKind.JOINTREE, DecompKind.GHD, DecompKind.HINGE):
        for n in d.nodes:
            union = frozenset().union(*(h.edge_set(e) for e in n.guard)) if n.guard else frozenset()
            for v in sorted(n.bag - union):
                violations.append(Violation(GUARD_GAP, node=n.node_id, vertex=v))

    if d.kind is DecompKind.HINGE:
        for n in d.nodes:
            union = frozenset().union(*(h.edge_set(e) for e in n.guard)) if n.guard else frozenset()
            if union != n.bag:
                violations.append(Violation(HINGE_UNION, node=n.node_id))
        for a, b in itertools.combinations(d.nodes, 2):
            shared = a.bag & b.bag
            if not shared:
                continue
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
            for v in sorted(n.bag):
                total = sum((w for eid, w in weights.items() if v in h.edge_set(eid)), Fraction(0))
                if total < 1:
                    violations.append(Violation(WEIGHT_DEFICIT, node=n.node_id, vertex=v))

    if violations:
        return WidthReport(d.kind, None, tuple(violations))
    width = d.raw_width()
    if d.kind is DecompKind.TREE:
        width = max(width, 0)
    return WidthReport(d.kind, width, ())


def ensure_valid(h: Hypergraph, d: Decomposition, kinds: tuple[DecompKind, ...]) -> WidthReport:
    if d.kind not in kinds:
        raise DecompositionInvalid(f"expected kind in {[k.value for k in kinds]}, got {d.kind.value}")
    report = verify(h, d)
    if not report.ok:
        raise DecompositionInvalid(
            f"decomposition fails verification: {', '.join(map(str, report.violations))}",
            report.violations,
        )
    return report


def require_width_one(h: Hypergraph, jt: Decomposition) -> None:
    """Raise WidthNotOne unless jt is a valid width-1 join tree or GHD of h."""
    if jt.kind not in (DecompKind.JOINTREE, DecompKind.GHD):
        raise WidthNotOne(f"expected a join tree, got kind {jt.kind.value}")
    report = verify(h, jt)
    if not report.ok:
        raise WidthNotOne(f"join tree fails verification: {report.violations}")
    if report.width > 1:
        raise WidthNotOne(f"decomposition has width {report.width}, need 1")


# -- GYO join trees --------------------------------------------------------


@dataclass(frozen=True)
class NotAcyclic:
    """Certificate that GYO reduction got stuck: the irreducible kernel."""

    kernel: Hypergraph


def gyo_join_tree(h: Hypergraph) -> Union[Decomposition, NotAcyclic]:
    """GYO ear elimination; a width-1 decomposition over the dedup edges,
    or the irreducible kernel when the hypergraph is cyclic.

    Ties break toward the earliest-declared edge, so the tree is stable.
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


# -- hingetree decompositions ----------------------------------------------


class _TreeNode:
    """Mutable scratch node used while building hinge decompositions."""

    __slots__ = ("guard", "links")

    def __init__(self, guard):
        self.guard = set(guard)
        self.links: list[tuple["_TreeNode", EdgeId]] = []  # (neighbor, shared edge label)


def _link(a: _TreeNode, b: _TreeNode, label: EdgeId) -> None:
    a.links.append((b, label))
    b.links.append((a, label))


def _unlink(a: _TreeNode, b: _TreeNode) -> None:
    a.links = [(n, l) for n, l in a.links if n is not b]
    b.links = [(n, l) for n, l in b.links if n is not a]


def _e_components(members: list[EdgeId], pivot_set, edge_sets) -> list[list[EdgeId]]:
    """Partition edges by connectivity through vertices outside the pivot edge."""
    parent = {m: m for m in members}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    vertex_home: dict = {}
    for m in members:
        for v in edge_sets[m] - pivot_set:
            if v in vertex_home:
                ra, rb = find(vertex_home[v]), find(m)
                if ra != rb:
                    parent[ra] = rb
            else:
                vertex_home[v] = m
    groups: dict = {}
    for m in members:
        groups.setdefault(find(m), []).append(m)
    comps = [sorted(g, key=edge_sort_key) for g in groups.values()]
    comps.sort(key=lambda g: edge_sort_key(g[0]))
    return comps


def _split_once(nodes: list[_TreeNode], edge_sets) -> bool:
    """Apply the first possible hinge split, preserving conditions 1-6."""
    for node in nodes:
        if len(node.guard) < 2:
            continue
        for pivot in sorted(node.guard, key=edge_sort_key):
            rest = [e for e in node.guard if e != pivot]
            comps = _e_components(rest, edge_sets[pivot], edge_sets)
            if len(comps) < 2:
                continue
            children = [_TreeNode(comp + [pivot]) for comp in comps]
            for neighbor, label in list(node.links):
                _unlink(node, neighbor)
                if label == pivot:
                    target = children[0]
                else:
                    target = next(c for c, comp in zip(children, comps) if label in comp)
                _link(neighbor, target, label)
            for extra in children[1:]:
                _link(children[0], extra, pivot)
            nodes.remove(node)
            nodes.extend(children)
            return True
    return False


def _expand_acyclic(nodes: list[_TreeNode], h: Hypergraph, edge_sets) -> None:
    """Replace multi-edge nodes whose edge set is acyclic by its join tree."""
    for node in list(nodes):
        if len(node.guard) < 2:
            continue
        members = sorted(node.guard, key=edge_sort_key)
        vertices = [v for v in h.vertices if any(v in edge_sets[m] for m in members)]
        sub = Hypergraph(vertices, [(m, edge_sets[m]) for m in members])
        jt = gyo_join_tree(sub)
        if isinstance(jt, NotAcyclic):
            continue
        pieces = {next(iter(n.guard)): _TreeNode(n.guard) for n in jt.nodes}
        for n in jt.nodes:
            if n.parent is not None:
                par = jt.node(n.parent)
                _link(pieces[next(iter(n.guard))], pieces[next(iter(par.guard))],
                      next(iter(par.guard)))
        for neighbor, label in list(node.links):
            _unlink(node, neighbor)
            _link(neighbor, pieces[label], label)
        nodes.remove(node)
        nodes.extend(pieces[m] for m in members)


def _contract_duplicates(nodes: list[_TreeNode]) -> None:
    """Merge adjacent nodes with identical guards (expansion leftovers)."""
    changed = True
    while changed:
        changed = False
        for node in nodes:
            for neighbor, _ in node.links:
                if neighbor.guard == node.guard:
                    for other, label in list(neighbor.links):
                        _unlink(neighbor, other)
                        if other is not node:
                            _link(node, other, label)
                    nodes.remove(neighbor)
                    changed = True
                    break
            if changed:
                break


def _assemble(forest_roots: list[_TreeNode], edge_sets) -> Decomposition:
    nodes_out: list[DecompNode] = []
    counter = itertools.count()
    if len(forest_roots) == 1:
        roots = [(forest_roots[0], None)]
    else:
        root_id = next(counter)
        nodes_out.append(DecompNode(root_id, None, frozenset(), frozenset()))
        roots = [(r, root_id) for r in forest_roots]
    stack = list(reversed(roots))
    seen = set()
    while stack:
        node, parent_id = stack.pop()
        nid = next(counter)
        bag = frozenset().union(*(edge_sets[e] for e in node.guard)) if node.guard else frozenset()
        nodes_out.append(DecompNode(nid, parent_id, frozenset(node.guard), bag))
        seen.add(id(node))
        for neighbor, _ in node.links:
            if id(neighbor) not in seen:
                stack.append((neighbor, nid))
    return Decomposition(DecompKind.HINGE, tuple(nodes_out))


def hinge_decompose(h: Hypergraph) -> Decomposition:
    """Greedy hinge splitting, then join-tree expansion of acyclic blocks.

    Disconnected inputs are decomposed per component and attached under a
    synthetic empty root. Edges contained in another edge ride along as
    width-1 leaves next to a node guarding their dominator.
    """
    dd = h.dedup_edges()
    if not dd:
        return Decomposition(DecompKind.HINGE, (DecompNode(0, None, frozenset(), frozenset()),))
    edge_sets = {eid: fs for eid, fs in dd}

    # group dedup edges into vertex-connected components
    comp_of: dict[EdgeId, int] = {}
    vertex_comp: dict[VertexId, int] = {}
    next_comp = 0
    for eid, fs in dd:
        hit = sorted({vertex_comp[v] for v in fs if v in vertex_comp})
        if not hit:
            comp = next_comp
            next_comp += 1
        else:
            comp = hit[0]
            if len(hit) > 1:
                for e2, c2 in list(comp_of.items()):
                    if c2 in hit[1:]:
                        comp_of[e2] = comp
                for v, c2 in list(vertex_comp.items()):
                    if c2 in hit[1:]:
                        vertex_comp[v] = comp
        comp_of[eid] = comp
        for v in fs:
            vertex_comp[v] = comp

    roots: list[_TreeNode] = []
    for comp in sorted(set(comp_of.values())):
        members = [eid for eid, _ in dd if comp_of[eid] == comp]
        maximal = [
            eid
            for eid in members
            if not any(f != eid and edge_sets[eid] < edge_sets[f] for f in members)
        ]
        maximal_set = set(maximal)
        dominated = [
            (eid, next(f for f in maximal if edge_sets[eid] < edge_sets[f]))
            for eid in members
            if eid not in maximal_set
        ]
        nodes = [_TreeNode(maximal)]
        while _split_once(nodes, edge_sets):
            pass
        _expand_acyclic(nodes, h, edge_sets)
        _contract_duplicates(nodes)
        for eid, dom in dominated:
            host = next(n for n in nodes if dom in n.guard)
            leaf = _TreeNode([eid])
            _link(host, leaf, eid)
            nodes.append(leaf)
        roots.append(nodes[0])

    d = _assemble(roots, edge_sets)
    report = verify(h, d)
    if not report.ok:
        raise InvariantViolation(f"hinge construction failed verification: {report.violations}")
    return d


# -- generalized hypertree decompositions -----------------------------------

GHD_EXACT_EDGE_CUTOFF = 10


@dataclass
class _Plan:
    guard: tuple[EdgeId, ...]
    bag: frozenset
    children: list["_Plan"] = field(default_factory=list)


def ghd_search(
    h: Hypergraph,
    k: int,
    *,
    node_budget: int = 200_000,
    exact_edge_cutoff: int = GHD_EXACT_EDGE_CUTOFF,
    branch_limit: int = 512,
) -> Optional[Decomposition]:
    """Search for a GHD of width <= k by component-splitting over candidate
    guards (subsets of at most k dedup edges).

    Exhaustive below ``exact_edge_cutoff`` dedup edges; beyond that the
    candidate guards at each state are pruned by a fixed edge order, so a
    None answer only means "not found". Raises BudgetExceeded when the
    state budget runs out.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    dd = h.dedup_edges()
    exact = len(dd) <= exact_edge_cutoff
    budget = [node_budget]
    memo: dict[frozenset, Optional[_Plan]] = {}

    edge_list = list(dd)

    def components_within(w: frozenset) -> list[frozenset]:
        unseen = set(w)
        comps = []
        for start in h.vertices:
            if start not in unseen:
                continue
            comp = {start}
            frontier = [start]
            unseen.discard(start)
            while frontier:
                v = frontier.pop()
                for eid in h.incident_edges(v):
                    for u in h.edge_set(eid):
                        if u in unseen:
                            unseen.discard(u)
                            comp.add(u)
                            frontier.append(u)
            comps.append(frozenset(comp))
        return comps

    def connector(w: frozenset) -> frozenset:
        out = set()
        for eid, fs in edge_list:
            if fs & w:
                out |= fs
        return frozenset(out) - w

    def candidate_edges(scope: frozenset, x: frozenset) -> list[tuple[EdgeId, frozenset]]:
        cands = [(eid, fs) for eid, fs in edge_list if fs & scope]
        if exact:
            return cands
        cands.sort(key=lambda item: (-len(item[1] & x), -len(item[1] & scope),
                                     edge_sort_key(item[0])))
        return cands[: max(k + 8, 16)]

    def solve(w: frozenset) -> Optional[_Plan]:
        if w in memo:
            return memo[w]
        x = connector(w)
        scope = w | x
        cands = candidate_edges(scope, x)
        tried = 0
        result: Optional[_Plan] = None
        for size in range(1, k + 1):
            for combo in itertools.combinations(cands, size):
                budget[0] -= 1
                if budget[0] < 0:
                    raise BudgetExceeded("ghd_search node budget exhausted")
                tried += 1
                if not exact and tried > branch_limit:
                    break
                union = frozenset().union(*(fs for _, fs in combo))
                if not (x <= union):
                    continue
                bag = union & scope
                if not (bag & w):
                    continue
                remaining = w - bag
                plans = []
                failed = False
                for comp in components_within(remaining):
                    sub = solve(comp)
                    if sub is None:
                        failed = True
                        break
                    plans.append(sub)
                if failed:
                    continue
                result = _Plan(tuple(eid for eid, _ in combo), bag, plans)
                break
            if result is not None or (not exact and tried > branch_limit):
                break
        memo[w] = result
        return result

    covered = set()
    for _, fs in edge_list:
        covered |= fs
    top_plans = []
    for comp in components_within(frozenset(covered)):
        plan = solve(comp)
        if plan is None:
            return None
        top_plans.append(plan)

    nodes: list[DecompNode] = []
    counter = itertools.count()
    if not top_plans:
        nodes.append(DecompNode(next(counter), None, frozenset(), frozenset()))
    elif len(top_plans) == 1:
        _materialize_plan(top_plans[0], None, nodes, counter)
    else:
        root_id = next(counter)
        nodes.append(DecompNode(root_id, None, frozenset(), frozenset()))
        for plan in top_plans:
            _materialize_plan(plan, root_id, nodes, counter)
    d = Decomposition(DecompKind.GHD, tuple(nodes))
    report = verify(h, d)
    if not report.ok:
        raise InvariantViolation(f"ghd_search produced invalid decomposition: {report.violations}")
    return d


def _materialize_plan(plan: _Plan, parent: Optional[int], nodes: list, counter) -> None:
    nid = next(counter)
    nodes.append(DecompNode(nid, parent, frozenset(plan.guard), plan.bag))
    for child in plan.children:
        _materialize_plan(child, nid, nodes, counter)


# -- tree decompositions ----------------------------------------------------

TREE_EXACT_VERTEX_CUTOFF = 12


def _primal_adjacency(h: Hypergraph) -> dict[VertexId, set[VertexId]]:
    adj: dict[VertexId, set[VertexId]] = {v: set() for v in h.vertices}
    for _, fs in h.dedup_edges():
        for v in fs:
            adj[v].update(fs - {v})
    return adj


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


def _exact_elimination_order(h: Hypergraph) -> list[VertexId]:
    """Subset DP over elimination prefixes; exact for small vertex counts."""
    vs = list(h.vertices)
    n = len(vs)
    adj = _primal_adjacency(h)

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


def _min_fill_order(h: Hypergraph) -> list[VertexId]:
    adj = {v: set(s) for v, s in _primal_adjacency(h).items()}
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


def tree_decompose(h: Hypergraph, *, exact_vertex_cutoff: int = TREE_EXACT_VERTEX_CUTOFF) -> Decomposition:
    """Tree decomposition of the primal graph via an elimination order.

    Exact (subset DP) up to ``exact_vertex_cutoff`` vertices, min-fill
    heuristic beyond; width convention is max bag size minus one.
    """
    if not h.vertices:
        return Decomposition(DecompKind.TREE, (DecompNode(0, None, frozenset(), frozenset()),))
    if len(h.vertices) <= exact_vertex_cutoff:
        order = _exact_elimination_order(h)
    else:
        order = _min_fill_order(h)
    adj = {v: set(s) for v, s in _primal_adjacency(h).items()}
    position = {v: i for i, v in enumerate(order)}
    bags: list[frozenset] = []
    for v in order:
        nbrs = {u for u in adj[v] if position[u] > position[v]}
        bags.append(frozenset({v} | nbrs))
        for a, b in itertools.combinations(nbrs, 2):
            adj[a].add(b)
            adj[b].add(a)
    n = len(order)
    nodes = []
    for i, bag in enumerate(bags):
        rest = bag - {order[i]}
        if rest:
            parent = min(position[u] for u in rest)
        elif i < n - 1:
            parent = n - 1
        else:
            parent = None
        nodes.append(DecompNode(i, parent, frozenset(), bag))
    d = Decomposition(DecompKind.TREE, tuple(nodes))
    report = verify(h, d)
    if not report.ok:
        raise InvariantViolation(f"tree_decompose produced invalid decomposition: {report.violations}")
    return d


# -- derived decompositions ---------------------------------------------------


def induced_decomposition(h: Hypergraph, d: Decomposition, vs: Iterable[VertexId]) -> Decomposition:
    """Restrict bags and guards to ``vs``; empty nodes stay to keep the tree shape.

    Width never increases, per the subhypergraph-width observation.
    """
    keep = frozenset(vs)
    nodes = []
    for n in d.nodes:
        guard = frozenset(e for e in n.guard if h.edge_set(e) & keep)
        weights = None
        if n.weights is not None:
            weights = {e: w for e, w in n.weights.items() if h.edge_set(e) & keep}
        nodes.append(replace(n, guard=guard, bag=n.bag & keep, weights=weights))
    return Decomposition(d.kind, tuple(nodes))


def integralize(d: Decomposition) -> Decomposition:
    """Characteristic-function weights turn a guard-based decomposition into
    a fractional one of the same width."""
    nodes = tuple(replace(n, weights={e: Fraction(1) for e in n.guard}) for n in d.nodes)
    return Decomposition(DecompKind.FRACTIONAL, nodes)


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
