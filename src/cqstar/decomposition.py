"""Decompositions of hypergraphs: join trees, GHDs, hingetrees, tree
decompositions, and fractional hypertree decompositions.

A decomposition is a rooted tree of guarded blocks; a tree decomposition's
bags are guarded by ``guarded`` before a count or star size reads them.
``verify`` checks exactly the conditions of the decomposition's kind and
reports every violation. The hinge, GHD and tree constructors verify their
own output. A decomposition from outside is verified, kind included, where
it enters: by ``ensure_valid`` in each public function that takes one. The
trees that ``_join_tree`` builds, and those derived from a verified one
(``guarded``, the subtree that meets a connected set), are valid by
construction and are not verified again at run time; the differentials
in ``tests/`` verify every one. A valid decomposition's own tree is also a
join tree of the hypergraph of its bags, and the cover greedy behind
cover sizes and APPROX walks it, or a subtree of it, as one
(``starsize._bag_cover``).

Structural work is done once per value. A decomposition keeps the last
report of ``verify`` with its hypergraph, so checking it again against the
same or an equal hypergraph is free, and an index from each vertex to the
nodes that hold it, which ``verify``'s cover pass and the one restriction,
``subtree_nodes``, share: the nodes whose bags meet an S-component's
closure are looked up from its vertices rather than by scanning every
node. Star size walks those nodes uncut, in place, and builds no
``Decomposition`` per component; ``induced_decomposition`` cuts the same
nodes to the closure for the count pipeline's cyclic pieces.
``hinge_decompose`` runs GYO once over the guards' bags as
they would be if every block were acyclic: that run classifies the blocks
and, when none is cyclic, is the tree. It builds no hypergraph; only the
parts of a split and, after a split, the final bags are reduced again.

There is one GYO reduction, ``_gyo``, over a plain list of sets: it gives
each absorbed set's parent, or the state the kernel is read from. There
is one join-tree builder, ``_join_tree``, over plain ``(id, set)`` pairs:
one ``_gyo`` run, one node per pair under its parent. ``gyo_join_tree``
calls it on a hypergraph's dedup edges and reads a ``NotAcyclic`` kernel
off a cyclic run; the count pipeline calls it on each piece's edges and
builds no hypergraph for the piece. Star size's ACYCLIC strategy reads
``_gyo``'s parents directly.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import BudgetExceeded, DecompositionInvalid, IdMismatch, InvariantViolation
from .hypergraph import EdgeId, Hypergraph, VertexId, edge_classes, edge_sort_key, holding, pair_id


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
    """A rooted tree of nodes linked by parent ids.

    Construction checks the shape in linear time: unique ids, exactly one
    root, no dangling parent, and no cycle. With one root and every parent
    present, a node lies on or below a cycle exactly when the root does not
    reach it, so one walk down from the root finds every cycle, a
    self-parent included. That walk's order and children map are kept and
    shared by every traversal below; callers must not mutate them.

    Two more lookups are kept once made: the vertex index of ``holders``,
    and the last report of ``verify`` with the hypergraph it was made
    against. None of the kept fields takes part in ``==``, ``hash`` or
    ``repr``, and ``dataclasses.replace`` starts without them. A
    decomposition is immutable by convention, its weights maps included.
    """

    kind: DecompKind
    nodes: tuple[DecompNode, ...]
    _order: tuple[DecompNode, ...] = field(init=False, repr=False, compare=False)
    _children: dict[int, list[DecompNode]] = field(init=False, repr=False, compare=False)
    _holders: Optional[dict[VertexId, list[int]]] = field(init=False, repr=False, compare=False)
    _report: Optional[tuple[Hypergraph, WidthReport]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        children: dict[int, list[DecompNode]] = {n.node_id: [] for n in self.nodes}
        if len(children) != len(self.nodes):
            raise DecompositionInvalid("duplicate node id")
        roots = [n for n in self.nodes if n.parent is None]
        if len(roots) != 1:
            raise DecompositionInvalid(f"expected exactly one root, found {len(roots)}")
        for n in self.nodes:
            if n.parent is not None:
                if n.parent not in children:
                    raise DecompositionInvalid(f"node {n.node_id} has dangling parent {n.parent}")
                children[n.parent].append(n)
        order = roots
        for n in order:
            order.extend(children[n.node_id])
        if len(order) != len(self.nodes):
            raise DecompositionInvalid("cycle in parent pointers")
        object.__setattr__(self, "_order", tuple(order))
        object.__setattr__(self, "_children", children)
        object.__setattr__(self, "_holders", None)
        object.__setattr__(self, "_report", None)

    def root(self) -> DecompNode:
        return self._order[0]

    def holders(self) -> dict[VertexId, list[int]]:
        """Vertex -> the positions in ``nodes`` of the nodes whose bags hold
        it, ascending. Built on first use and kept; callers must not mutate it."""
        if self._holders is None:
            held: dict[VertexId, list[int]] = {}
            for i, n in enumerate(self.nodes):
                for v in n.bag:
                    held.setdefault(v, []).append(i)
            object.__setattr__(self, "_holders", held)
        return self._holders

    def children_map(self) -> dict[int, list[DecompNode]]:
        return self._children

    def topo_order(self) -> tuple[DecompNode, ...]:
        """Nodes with every parent before its children."""
        return self._order

    def post_order(self) -> tuple[DecompNode, ...]:
        return self._order[::-1]

    def raw_width(self) -> Union[int, Fraction]:
        """Width by kind convention, without any validity check."""
        if self.kind is DecompKind.TREE:
            return max(max(len(n.bag) for n in self.nodes) - 1, 0)  # a tree has a node
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
NEGATIVE_WEIGHT = "NEGATIVE_WEIGHT"
WEIGHT_DEFICIT = "WEIGHT_DEFICIT"
STRAY_WEIGHTS = "STRAY_WEIGHTS"


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


def verify(h: Hypergraph, d: Decomposition) -> WidthReport:
    """Check exactly the conditions of d.kind against h; report all findings.

    Raises IdMismatch for ids that do not refer to h at all. A width is
    reported only when the violation list is empty.

    The checks run as a few passes over whole sets and counts, with a
    Python step per node or per edge but not per (node, vertex) incidence:

    - Ids: one subset test of all bag vertices, and one of all guard and
      weight edge ids, against h. Only when one fails is the first unknown
      id looked for, node by node, to name it.
    - Connectedness: a vertex's nodes form one subtree iff the count of
      nodes holding it, less the count of (node, parent) links whose two
      bags both hold it, is 1. Summed over all vertices this is one
      comparison; only when it fails are the two counts made per vertex.
    - Cover: an edge equal to some bag is covered by one set lookup. Only
      the other edges are looked for among the bags that hold their rarest
      vertex, through ``d.holders()``, which is built only then. A TREE
      decomposition is checked against its one-vertex edges, each under
      its own id, then the primal graph's edges: a covered edge covers its
      pairs, so only the pairs of the edges not covered are checked, and
      the primal graph is not built.
    - Guards: a one-edge guard's union is that edge's own set. One pass of
      subset tests finds whether any bag has a gap; only then are the gaps
      listed node by node.
    - Hinge: two nodes each guarded by one edge equal to its bag meet
      inside both edges, so of the node pairs that share a vertex, only
      those with a node guarded otherwise are checked.

    Violations come in a fixed order: connectedness by vertex, uncovered
    edges in declared order (for a TREE, the one-vertex edges, then the
    pairs in order of first appearance), then the conditions of the kind,
    node by node or pair by pair in node order; a fractional node reports
    each negative weight, by edge, before each bag vertex its weights do
    not cover, and a node of any other kind that carries a weights map
    reports it. An empty edge is always covered.

    The report is kept on ``d`` with ``h``, the last one only: verifying
    ``d`` again against ``h`` itself or an equal hypergraph returns it
    without another pass, so a constructor's own check, a caller's
    ``verify`` and ``ensure_valid`` check a pair once. A raised IdMismatch
    is not kept.
    """
    kept = d._report
    if kept is not None and (kept[0] is h or kept[0] == h):
        return kept[1]
    nodes = d.nodes
    bags = [n.bag for n in nodes]
    union = frozenset().union(*bags)
    guards = [n.guard for n in nodes]
    guard_ids = frozenset().union(*guards)
    weighted = [n.weights for n in nodes if n.weights is not None]
    if not (h.has_vertices(union) and h.has_edge_ids(guard_ids.union(*weighted))):
        _raise_unknown_id(h, d)

    violations = []
    bag_of = {n.node_id: n.bag for n in nodes}
    links = [n.bag & bag_of[n.parent] for n in nodes if n.parent is not None]
    if sum(map(len, bags)) - sum(map(len, links)) != len(union):
        held = Counter(itertools.chain.from_iterable(bags))
        linked = Counter(itertools.chain.from_iterable(links))
        violations += [Violation(CONNECTEDNESS, vertex=v) for v in sorted(held) if held[v] - linked[v] > 1]

    def covered(fs: frozenset) -> bool:
        held = d.holders()
        return any(fs <= bags[i] for i in min((held.get(v, ()) for v in fs), key=len))

    bagset = set(bags)
    missed = [(eid, fs) for eid, fs in h.dedup_edges() if fs and fs not in bagset and not covered(fs)]
    if d.kind is DecompKind.TREE:
        pairs: dict[frozenset, str] = {}
        for _, fs in missed:
            for u, v in itertools.combinations(h.sort_vertices(fs), 2):
                pairs.setdefault(frozenset((u, v)), pair_id(u, v))
        singles = [(eid, fs) for eid, fs in missed if len(fs) == 1]  # no pair covers one
        missed = singles + [(eid, pair) for pair, eid in pairs.items() if not covered(pair)]
    violations += [Violation(EDGE_UNCOVERED, edge=eid) for eid, _ in missed]

    if d.kind in (DecompKind.JOINTREE, DecompKind.GHD, DecompKind.HINGE):
        spans = [h.edge_set(*g) if len(g) == 1 else frozenset().union(*map(h.edge_set, g)) for g in guards]
        if not all(map(frozenset.issubset, bags, spans)):
            for n, span in zip(nodes, spans):
                for v in sorted(n.bag - span):
                    violations.append(Violation(GUARD_GAP, node=n.node_id, vertex=v))

    if d.kind is DecompKind.HINGE:
        violations += [Violation(HINGE_UNION, node=n.node_id) for n, span in zip(nodes, spans) if span != n.bag]
        wide = [i for i, n in enumerate(nodes) if len(n.guard) != 1 or spans[i] != n.bag]
        if wide:
            held = d.holders()
            meeting = {(min(i, j), max(i, j)) for i in wide for v in bags[i] for j in held[v] if j != i}
            for i, j in sorted(meeting):
                a, b = nodes[i], nodes[j]
                shared = a.bag & b.bag
                if not any(
                    shared <= (h.edge_set(e1) & h.edge_set(e2))
                    for e1 in a.guard
                    for e2 in b.guard
                ):
                    violations.append(Violation(HINGE_INTERSECTION, node=a.node_id, node2=b.node_id))
        guarded_sets = set(map(h.edge_set, guard_ids))
        violations += [Violation(HINGE_EDGE_MISSING, edge=eid) for eid, fs in h.dedup_edges() if fs not in guarded_sets]

    if d.kind is DecompKind.FRACTIONAL:
        for n in nodes:
            weights = n.weights or {}
            for eid in sorted(weights, key=edge_sort_key):
                if weights[eid] < 0:
                    violations.append(Violation(NEGATIVE_WEIGHT, node=n.node_id, edge=eid))
            for v in sorted(n.bag):
                total = sum((w for eid, w in weights.items() if v in h.edge_set(eid)), Fraction(0))
                if total < 1:
                    violations.append(Violation(WEIGHT_DEFICIT, node=n.node_id, vertex=v))
    else:
        violations += [Violation(STRAY_WEIGHTS, node=n.node_id) for n in nodes if n.weights is not None]

    if violations:
        report = WidthReport(d.kind, None, tuple(violations))
    else:
        report = WidthReport(d.kind, d.raw_width(), ())
    object.__setattr__(d, "_report", (h, report))
    return report


def _raise_unknown_id(h: Hypergraph, d: Decomposition) -> None:
    """Raise IdMismatch for the first id in d that h lacks: node by node, its
    guard edges, then its bag vertices, then its weighted edges."""
    for n in d.nodes:
        for eid in n.guard:
            if not h.has_edge_id(eid):
                raise IdMismatch(f"node {n.node_id}: unknown edge id {eid!r}")
        for v in n.bag:
            if not h.has_vertex(v):
                raise IdMismatch(f"node {n.node_id}: unknown vertex {v!r}")
        for eid in n.weights or ():
            if not h.has_edge_id(eid):
                raise IdMismatch(f"node {n.node_id}: unknown weighted edge id {eid!r}")


def ensure_valid(h: Hypergraph, d: Decomposition, kinds: tuple[DecompKind, ...]) -> WidthReport:
    report = verify(h, d)
    if not report.ok:
        raise DecompositionInvalid(
            f"decomposition fails verification: {', '.join(map(str, report.violations))}",
            report.violations,
        )
    if d.kind not in kinds:
        raise DecompositionInvalid(f"expected kind in {[k.value for k in kinds]}, got {d.kind.value}")
    return report


def _checked(h: Hypergraph, d: Decomposition, builder: str) -> Decomposition:
    """``d`` if it verifies against ``h``; else a bug in ``builder``."""
    report = verify(h, d)
    if not report.ok:
        raise InvariantViolation(f"{builder} produced invalid decomposition: {report.violations}")
    return d


# -- GYO join trees --------------------------------------------------------


@dataclass(frozen=True)
class NotAcyclic:
    """Certificate that GYO reduction got stuck: the irreducible kernel."""

    kernel: Hypergraph


def gyo_join_tree(h: Hypergraph) -> Union[Decomposition, NotAcyclic]:
    """GYO ear elimination; a width-1 decomposition over the dedup edges,
    or the irreducible kernel when the hypergraph is cyclic. ``_join_tree``
    builds the tree, which is not verified here."""
    dd = h.dedup_edges()
    jt, alive, holders = _join_tree(dd)
    if jt is not None:
        return jt
    kernel_vertices = [v for v in h.vertices if len(holders.get(v, ())) > 1]
    kernel_edges = [(dd[i][0], frozenset(v for v in dd[i][1] if len(holders[v]) > 1)) for i in alive]
    return NotAcyclic(Hypergraph(kernel_vertices, kernel_edges))


def _join_tree(edges: Sequence[tuple[EdgeId, frozenset]]) -> tuple[Optional[Decomposition], dict, dict]:
    """The one join-tree builder, over distinct ``(id, set)`` pairs: node
    ``i`` is pair ``i``, guarded by its id, under its parent from one
    ``_gyo`` run; or None when the sets are cyclic. Also ``_gyo``'s alive
    ordinals and holders, from which ``gyo_join_tree`` reads the kernel."""
    if not edges:
        return Decomposition(DecompKind.JOINTREE, (DecompNode(0, None, frozenset(), frozenset()),)), {}, {}
    parent, alive, holders = _gyo([fs for _, fs in edges])
    if len(alive) > 1:
        return None, alive, holders
    nodes = tuple(DecompNode(i, parent.get(i), frozenset({eid}), fs) for i, (eid, fs) in enumerate(edges))
    return Decomposition(DecompKind.JOINTREE, nodes), alive, holders


def _gyo(sets: list[frozenset]) -> tuple[dict[int, int], dict[int, None], dict[VertexId, dict[int, None]]]:
    """GYO ear elimination over distinct ``sets``, the one reduction that
    ``gyo_join_tree`` and star size's ACYCLIC strategy share. Returns each
    absorbed set's parent ordinal, the ordinals still alive (the sets are
    acyclic iff at most one is) and, per vertex, the alive ordinals that
    hold it, from which the kernel is read.

    The reduced set of an alive set is its vertices that lie in at least
    two alive sets. A set is absorbable when its reduced set lies in
    another alive set. Each step absorbs the earliest absorbable set under
    the earliest alive set that contains its reduced set, so the tree is
    stable. The kernel is the alive sets' reduced sets once no set is
    absorbable.

    Each vertex keeps the alive sets that hold it, in order, and only the
    absorbed set's vertices are updated. A set can become absorbable only
    when one of its vertices drops to a single alive set, so a min-heap of
    ordinals, re-fed at exactly those moments, yields the next set to
    absorb. One pass over the popped set finds its reduced set and its
    rarest vertex, the first of the least held, and its parent is the first
    fitting set among that vertex's holders; the loop builds no function or
    generator per set. On acyclic inputs of bounded degree this runs in time
    near linear in the total set size.
    """
    # vertex -> alive ordinals holding it, in order
    holders: dict[VertexId, dict[int, None]] = {}
    for i, fs in enumerate(sets):
        for v in fs:
            holders.setdefault(v, {})[i] = None
    alive = dict.fromkeys(range(len(sets)))
    parent: dict[int, int] = {}
    heap = list(alive)  # ascending, so already a heap
    while heap and len(alive) > 1:
        i = heapq.heappop(heap)
        if i not in alive:
            continue
        reduced = []
        rarest, fewest = None, len(sets) + 1  # no vertex is held by more sets
        for v in sets[i]:
            n = len(holders[v])
            if n > 1:
                reduced.append(v)
                if n < fewest:
                    rarest, fewest = v, n
        # an empty reduced set lies in every alive set, the first one other than i
        for p in holders[rarest] if reduced else alive:
            if p != i and sets[p].issuperset(reduced):
                break
        else:
            continue
        parent[i] = p
        del alive[i]
        for v in sets[i]:
            rest = holders[v]
            del rest[i]
            if len(rest) == 1:
                heapq.heappush(heap, next(iter(rest)))
    return parent, alive, holders


# -- hingetree decompositions ----------------------------------------------


def hinge_decompose(h: Hypergraph) -> Decomposition:
    """Hinge splitting (Gyssens, Jeavons and Cohen 1994) over a worklist of
    blocks, then one join tree of the guards' bags.

    Each connected part's maximal edges form one block; the blocks are
    pushed in order of their first edge and popped last first, each sorted
    by ``edge_sort_key``. A popped block that is acyclic gives one width-1
    guard per edge. Otherwise it is split at its first pivot whose removal
    leaves two or more parts connected outside the pivot, and each part
    plus the pivot is pushed, parts in order of their first edge; a block
    that no pivot splits is one guard. An edge inside another edge is a
    width-1 guard of its own, ahead of the blocks' guards. The hinge
    conditions that ``verify`` checks hold for any join tree of these
    guards' bags, one node per distinct bag, so GYO over the bags gives the
    tree. Nothing here recurses.

    GYO runs first over the bags that the guards would have if every block
    were acyclic, in their final order. When that run reduces them, it is
    the tree, and no hypergraph or second run is made. Otherwise it reduces
    each connected part on its own, so a block is acyclic iff the kernel it
    leaves holds none of the block's vertices. The blocks, and each pivot
    tried (over its block's own incidence, cut at the pivot), are one
    ``edge_classes`` flood. Each part of a split is classified by GYO over
    its edges; then GYO runs once more over the final bags.
    """
    sets = dict(h.dedup_edges())
    held = holding(sets, sets)
    guards: dict[frozenset, frozenset] = {}  # guard -> bag, in guard order
    maximal = []
    for eid, fs in sets.items():
        v = next(iter(fs), None)
        if v is None or any(map(fs.__lt__, map(sets.__getitem__, held[v]))):
            guards[frozenset({eid})] = fs
        else:
            maximal.append(eid)
    if guards:  # the blocks' flood reads the maximal edges only
        held = holding(maximal, sets)
    blocks = [sorted(b, key=edge_sort_key) for b in edge_classes(maximal, sets, held)]
    order = list(guards.items()) + [(frozenset({e}), sets[e]) for b in reversed(blocks) for e in b]
    parent, alive, holders = _gyo([bag for _, bag in order])
    if len(alive) > 1:
        kernel = {v for v, alive_sets in holders.items() if len(alive_sets) > 1}
        # (edges, acyclic or None if unknown)
        work: list = [(b, kernel.isdisjoint(frozenset().union(*map(sets.get, b)))) for b in blocks]
        while work:
            block, acyclic = work.pop()
            block = sorted(block, key=edge_sort_key)
            if acyclic is None:
                acyclic = len(_gyo([sets[e] for e in block])[1]) <= 1
            if acyclic:
                for e in block:
                    guards.setdefault(frozenset({e}), sets[e])
                continue
            incidence = holding(block, sets)
            for pivot in block:
                parts = edge_classes([e for e in block if e != pivot], sets, incidence, sets[pivot])
                if len(parts) > 1:
                    work.extend((part + [pivot], None) for part in parts)
                    break
            else:
                guards.setdefault(frozenset(block), frozenset().union(*map(sets.get, block)))
        first: dict[frozenset, frozenset] = {}  # bag -> its first guard
        for guard, bag in guards.items():
            first.setdefault(bag, guard)
        order = [(guard, bag) for bag, guard in first.items()]
        parent, alive, _ = _gyo(list(first))
        if len(alive) > 1:
            raise InvariantViolation("hinge blocks' bags are cyclic")
    if not order:
        return Decomposition(DecompKind.HINGE, (DecompNode(0, None, frozenset(), frozenset()),))
    nodes = tuple(DecompNode(i, parent.get(i), guard, bag) for i, (guard, bag) in enumerate(order))
    return _checked(h, Decomposition(DecompKind.HINGE, nodes), "hinge_decompose")


# -- generalized hypertree decompositions -----------------------------------

GHD_EXACT_EDGE_CUTOFF = 10
GHD_BRANCH_LIMIT = 512


@dataclass
class _Plan:
    guard: tuple[EdgeId, ...]
    bag: frozenset
    children: list["_Plan"] = field(default_factory=list)


class _GhdSearch:
    """The memoized component splitting of one ``ghd_search``. ``solve``
    recurses as a method rather than as a closure that names itself, so a
    finished search leaves no reference cycle: reference counting frees it
    all, with no work for Python's cyclic collector."""

    def __init__(self, h: Hypergraph, k: int, node_budget: int):
        self.h, self.k, self.budget = h, k, node_budget
        self.dd = h.dedup_edges()
        self.sets = dict(self.dd)
        self.held = holding(self.sets, self.sets)
        self.exact = len(self.dd) <= GHD_EXACT_EDGE_CUTOFF
        self.memo: dict[frozenset, Optional[_Plan]] = {}

    def split(self, vs: Iterable[VertexId], cut: frozenset) -> list[tuple[frozenset, frozenset]]:
        """The classes of ``vs`` connected through edges cut to ``vs``, each
        with its closure, ordered by earliest vertex: one ``edge_classes``
        flood from the edges of ``vs`` in vertex order. ``cut`` holds every
        vertex of those edges outside ``vs``."""
        sets, held = self.sets, self.held
        out = []
        for cls in edge_classes((e for v in self.h.sort_vertices(vs) for e in held.get(v, ())), sets, held, cut):
            closure = frozenset().union(*map(sets.__getitem__, cls))
            out.append((closure - cut, closure))
        return out

    def candidate_edges(self, scope: frozenset, x: frozenset) -> list[tuple[EdgeId, frozenset]]:
        cands = [(eid, fs) for eid, fs in self.dd if fs & scope]
        if self.exact:
            return cands
        cands.sort(key=lambda item: (-len(item[1] & x), -len(item[1] & scope),
                                     edge_sort_key(item[0])))
        return cands[: max(self.k + 8, 16)]

    def solve(self, w: frozenset, closure: frozenset) -> Optional[_Plan]:
        """A plan for the class ``w``, whose edges' union is ``closure``."""
        if w in self.memo:
            return self.memo[w]
        exact = self.exact
        x = closure - w
        scope = w | x
        cands = self.candidate_edges(scope, x)
        tried = 0
        result: Optional[_Plan] = None
        for size in range(1, self.k + 1):
            for combo in itertools.combinations(cands, size):
                self.budget -= 1
                if self.budget < 0:
                    raise BudgetExceeded("ghd_search node budget exhausted")
                tried += 1
                if not exact and tried > GHD_BRANCH_LIMIT:
                    break
                union = frozenset().union(*(fs for _, fs in combo))
                if not (x <= union):
                    continue
                bag = union & scope
                if not (bag & w):
                    continue
                plans = []
                for comp, comp_closure in self.split(w - bag, x | bag):
                    sub = self.solve(comp, comp_closure)
                    if sub is None:
                        break
                    plans.append(sub)
                else:
                    result = _Plan(tuple(eid for eid, _ in combo), bag, plans)
                    break
            if result is not None or (not exact and tried > GHD_BRANCH_LIMIT):
                break
        self.memo[w] = result
        return result


def ghd_search(
    h: Hypergraph,
    k: int,
    *,
    node_budget: int = 200_000,
) -> Optional[Decomposition]:
    """Search for a GHD of width <= k by component-splitting over candidate
    guards (subsets of at most k dedup edges). Each split is one
    ``edge_classes`` flood, cut at the bag, that gives each part's closure.

    Exhaustive up to ``GHD_EXACT_EDGE_CUTOFF`` dedup edges; beyond that each
    state draws its guards from the edges that overlap it most and tries at
    most ``GHD_BRANCH_LIMIT`` of them, so a None answer only means "not
    found". Raises BudgetExceeded when the state budget of ``node_budget``
    candidate guards runs out.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    search = _GhdSearch(h, k, node_budget)
    top_plans = []
    for comp, closure in search.split(h.vertices, frozenset()):
        plan = search.solve(comp, closure)
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
    return _checked(h, Decomposition(DecompKind.GHD, tuple(nodes)), "ghd_search")


def _materialize_plan(plan: _Plan, parent: Optional[int], nodes: list, counter) -> None:
    nid = next(counter)
    nodes.append(DecompNode(nid, parent, frozenset(plan.guard), plan.bag))
    for child in plan.children:
        _materialize_plan(child, nid, nodes, counter)


# -- tree decompositions ----------------------------------------------------

TREE_EXACT_VERTEX_CUTOFF = 12


def _primal_adjacency(h: Hypergraph) -> dict[VertexId, set[VertexId]]:
    return {v: set(s) for v, s in h.conflict_adjacency().items()}


def _exact_elimination_order(h: Hypergraph) -> list[VertexId]:
    """A minimum-width elimination order, by the subset DP over bitmasks.

    Vertex i of ``h.vertices`` is bit i. cost[M] is the least width of an
    order that eliminates M first, and choice[M] the last vertex of M in it.
    Eliminated after M minus {v}, v has Q = the neighbours outside M of its
    component of G[M], so one flood of the components of G[M] gives Q for
    all of M, and cost[M] = min over v in M of max(cost[M minus {v}], Q).
    Masks go up in numeric order, so each M minus {v} is done before M.
    Ties go to the lowest vertex index.
    """
    vs = h.vertices
    bit = {v: 1 << i for i, v in enumerate(vs)}
    adj = {bit[v]: sum(map(bit.__getitem__, nbrs)) for v, nbrs in h.conflict_adjacency().items()}
    full = (1 << len(vs)) - 1
    cost, choice = [-1] * (full + 1), [0] * (full + 1)
    for mask in range(1, full + 1):
        best, best_low, rest = len(vs), 0, mask
        while rest:  # one component of G[M] per pass, from its lowest bit
            comp = frontier = reach = rest & -rest  # reach: comp and its neighbours
            rest ^= comp
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                a = adj[low]
                reach |= a
                new = a & rest
                rest ^= new
                comp |= new
                frontier |= new
            q = (reach & ~mask).bit_count()
            while comp:
                low = comp & -comp
                comp ^= low
                val = cost[mask ^ low]
                if val < q:
                    val = q
                if val < best or (val == best and low < best_low):
                    best, best_low = val, low
        cost[mask], choice[mask] = best, best_low
    order, mask = [], full
    while mask:
        order.append(vs[choice[mask].bit_length() - 1])
        mask ^= choice[mask]
    return order[::-1]


def _min_fill_order(h: Hypergraph) -> list[VertexId]:
    adj = _primal_adjacency(h)
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


def tree_decompose(h: Hypergraph) -> Decomposition:
    """Tree decomposition of the primal graph via an elimination order: up to
    ``TREE_EXACT_VERTEX_CUTOFF`` vertices the exact bitmask subset DP (one
    component flood per vertex subset, ties to the lowest vertex index),
    min-fill beyond. The width convention is max bag size minus one.
    """
    if not h.vertices:
        return Decomposition(DecompKind.TREE, (DecompNode(0, None, frozenset(), frozenset()),))
    exact = len(h.vertices) <= TREE_EXACT_VERTEX_CUTOFF
    d = _elimination_tree(h, _exact_elimination_order(h) if exact else _min_fill_order(h))
    return _checked(h, d, "tree_decompose")


def _elimination_tree(h: Hypergraph, order: list[VertexId]) -> Decomposition:
    """The tree that eliminating ``order`` gives: node i holds order[i] and its
    neighbours left then, under the earliest of those (else the last node)."""
    adj = _primal_adjacency(h)
    position = {v: i for i, v in enumerate(order)}
    last = len(order) - 1
    nodes = []
    for i, v in enumerate(order):
        later = {u for u in adj[v] if position[u] > i}
        for a, b in itertools.combinations(later, 2):
            adj[a].add(b)
            adj[b].add(a)
        parent = min(position[u] for u in later) if later else (last if i < last else None)
        nodes.append(DecompNode(i, parent, frozenset(), frozenset(later | {v})))
    return Decomposition(DecompKind.TREE, tuple(nodes))


# -- derived decompositions ---------------------------------------------------


def subtree_nodes(d: Decomposition, vs: Iterable[VertexId], rank: Sequence[int]) -> list[DecompNode]:
    """The nodes of ``d`` whose bags meet ``vs``, ordered by the ``rank`` of
    their positions in ``d.nodes``: the one restriction, shared by star size
    and ``induced_decomposition``. They are looked up per vertex of ``vs`` in
    ``d.holders()``, which is built once per ``d``, so restricting ``d`` to
    each S-component's closure in turn does not scan every node each time.

    For a valid d and a ``vs`` connected in h (as a component closure is),
    they are one subtree: exactly one of them has its parent outside them,
    its root. Anything else, an empty ``vs`` too, raises
    DecompositionInvalid. Ranked by place in ``d.topo_order()``, the root
    comes first and every parent before its children.
    """
    held = d.holders()
    nodes = d.nodes
    kept = [nodes[i] for i in sorted({i for v in vs for i in held.get(v, ())}, key=rank.__getitem__)]
    ids = {n.node_id for n in kept}
    roots = sum(n.parent not in ids for n in kept)
    if roots != 1:
        raise DecompositionInvalid(f"expected exactly one root, found {roots}")
    return kept


def induced_decomposition(h: Hypergraph, d: Decomposition, vs: Iterable[VertexId]) -> Decomposition:
    """The ``subtree_nodes`` of ``vs``, with bags, guards and weights cut to
    ``vs``, in their order in ``d``; the kept node whose parent was dropped
    becomes the root. For a valid d and a ``vs`` connected in h, it
    decomposes ``h.induced(vs)`` no wider than d."""
    keep = frozenset(vs)
    kept = subtree_nodes(d, keep, range(len(d.nodes)))
    ids = {n.node_id for n in kept}
    nodes = []
    for n in kept:
        guard = frozenset(e for e in n.guard if not keep.isdisjoint(h.edge_set(e)))
        weights = None
        if n.weights is not None:
            weights = {e: w for e, w in n.weights.items() if not keep.isdisjoint(h.edge_set(e))}
        parent = n.parent if n.parent in ids else None
        nodes.append(DecompNode(n.node_id, parent, guard, n.bag & keep, weights))
    return Decomposition(d.kind, tuple(nodes))


def guarded(h: Hypergraph, d: Decomposition) -> Decomposition:
    """``d``, or if it is a tree decomposition, the GHD of the same tree whose
    bags are cut to the vertices in some edge and guarded greedily, by the
    first edge of ``h`` that covers most of what is left until none is: valid,
    as an edge lies in a bag once each of its pairs does, and no wider than a bag."""
    if d.kind is not DecompKind.TREE:
        return d
    nodes = []
    for n in d.nodes:
        guard, bag = set(), frozenset(filter(h.incident_edges, n.bag))
        left = bag
        while left:
            eid, fs = max(h.dedup_edges(), key=lambda item: len(item[1] & left))
            guard.add(eid)
            left -= fs
        nodes.append(DecompNode(n.node_id, n.parent, frozenset(guard), bag))
    return Decomposition(DecompKind.GHD, tuple(nodes))

