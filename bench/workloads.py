"""The four benchmark workloads: seeded inputs, the op each one times, and
an expected answer for every op computed by a route independent of the
pipeline under test.

Every workload draws its inputs from ``SplitMix64(seed)``. Seeds change the
contents of the inputs (graphs, tuples, hypergraphs); the sizes and shapes
follow a fixed schedule, so the work in one pass over the cases is nearly the
same for every seed. The schedules are chosen so that with whole passes the
median and the 90th percentile of op latency fall in the middle of one
case's samples, inside a class of similar cases, or in a continuum of case
costs, rather than on the step between two classes.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import cqstar.cli as cli
import cqstar.decomposition as dec
import cqstar.engine as engine
import cqstar.starsize as starsize
from cqstar.engine import QueryInstance, Relation, Structure
from cqstar.generators import (
    SimpleGraph,
    SplitMix64,
    gen_clique_star_instance,
    gen_is_hardness_hypergraph,
    gen_obs_equivalent,
    gen_random_acyclic,
)
from cqstar.hypergraph import Atom, Hypergraph, Query, SHypergraph, from_query
from cqstar.starsize import ISMethod


class OpFailed(Exception):
    """The program returned an error instead of an answer."""


@dataclass
class Case:
    name: str
    data: dict = field(default_factory=dict)
    expected: object = None


# -- shared helpers -------------------------------------------------------------


def _write_facts(path: Path, relations: dict[str, set], names: list[str]) -> None:
    lines = []
    for pred in sorted(relations):
        for row in sorted(relations[pred]):
            lines.append(f"{pred}({', '.join(names[v] for v in row)}).")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_decomposition(path: Path, kind: str, nodes: list[tuple]) -> None:
    """nodes: (id, parent, guard atom ordinals, bag variables)."""
    doc = {
        "kind": kind,
        "nodes": [
            {"id": i, "parent": p, "lambda": sorted(g), "chi": sorted(b)} for i, p, g, b in nodes
        ],
    }
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _cli_count(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run_cli(argv)
    if code != 0:
        raise OpFailed(f"exit code {code}: {err.getvalue().strip()}")
    return int(out.getvalue().strip())


def _random_graph(rng: SplitMix64, n: int) -> SimpleGraph:
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n) if rng.chance(1, 2)]
    return SimpleGraph.from_pairs(n, pairs)


class Workload:
    """One workload: ``generate`` writes the inputs (timed as set-up),
    ``expect`` computes the answer an op must return, ``run`` is the op."""

    name = ""

    def generate(self, seed: int, workdir: Path) -> list[Case]:
        raise NotImplementedError

    def expect(self, case: Case):
        raise NotImplementedError

    def run(self, case: Case):
        raise NotImplementedError

    def check(self, case: Case, answer) -> bool:
        return answer == case.expected

    def note(self, answer, counts: dict) -> None:
        """Copy into the trace counters what only the op's answer shows."""


# -- c9-cli: the criterion-9 family through the documented CLI path --------------


def c9_family(total_tuples: int, seed: int):
    """Width-2, star-size-2 instances whose size is dominated by a cyclic
    quantified triangle F, G, K over fresh w-values; the free part over 12
    y-values and 4 z-values stays constant-sized. The triangle always holds
    the witness (w0, w0, w0).

    Returns (relations as sets of value-id tuples, value names).
    """
    rng = SplitMix64(seed)
    n_y, n_z = 12, 4
    nq = max(2, (total_tuples - 60) // 3)
    m = max(4, 2 * nq)
    names = [f"y{i}" for i in range(n_y)] + [f"z{i}" for i in range(n_z)] + [f"w{i}" for i in range(m)]
    y = lambda i: i  # noqa: E731
    z = lambda i: n_y + i  # noqa: E731
    w = lambda i: n_y + n_z + i  # noqa: E731

    e13 = {(y(0), y(1), z(0))}
    while len(e13) < 24:
        e13.add((y(rng.below(n_y)), y(rng.below(n_y)), z(rng.below(n_z))))
    c = {(z(0), z(1))}
    while len(c) < 12:
        c.add((z(rng.below(n_z)), z(rng.below(n_z))))
    e2 = {(y(2), z(1))}
    while len(e2) < 24:
        e2.add((y(rng.below(n_y)), z(rng.below(n_z))))

    def random_pairs(count):
        rows = {(w(0), w(0))}
        while len(rows) < count:
            rows.add((w(rng.below(m)), w(rng.below(m))))
        return rows

    relations = {
        "E13": e13,
        "C": c,
        "E2": e2,
        "F": random_pairs(nq),
        "G": random_pairs(nq),
        "K": random_pairs(nq),
    }
    return relations, names


C9_QUERY = "ans(y1, y2, y3) :- E13(y1, y3, z1), C(z1, z2), E2(y2, z2), F(u, v), G(v, w), K(w, u).\n"
# The width-2 GHD of criterion 9: the free path E13 - C - E2, and the
# quantified triangle guarded by F and G.
C9_DECOMP = [
    (0, None, {0}, {"y1", "y3", "z1"}),
    (1, 0, {1}, {"z1", "z2"}),
    (2, 1, {2}, {"y2", "z2"}),
    (3, 0, {3, 4}, {"u", "v", "w"}),
]


class C9Cli(Workload):
    """25 instances of 1500 to 2940 tuples, one seed each, counted with
    ``cqstar count -q Q -d D --decomp J``."""

    name = "c9-cli"

    def generate(self, seed, workdir):
        rng = SplitMix64(seed)
        qpath, jpath = workdir / "c9.cq", workdir / "c9.decomp.json"
        qpath.write_text(C9_QUERY, encoding="utf-8")
        _write_decomposition(jpath, "ghd", C9_DECOMP)
        cases = []
        for i in range(25):
            total = 1500 + 60 * i
            relations, names = c9_family(total, rng.next_u64())
            fpath = workdir / f"c9-{i}.facts"
            _write_facts(fpath, relations, names)
            argv = ["count", "-q", str(qpath), "-d", str(fpath), "--decomp", str(jpath)]
            cases.append(Case(f"c9-{total}", {"argv": argv, "relations": relations}))
        return cases

    def expect(self, case):
        # The triangle always has a witness, so the answer is the count of
        # the acyclic free part alone, over the 16 y/z values.
        rel = case.data.pop("relations")  # not needed again; keep the timed heap small
        structure = Structure(
            tuple(f"v{i}" for i in range(16)),
            {
                "E13": Relation.from_rows("E13", ("c0", "c1", "c2"), rel["E13"]),
                "C": Relation.from_rows("C", ("c0", "c1"), rel["C"]),
                "E2": Relation.from_rows("E2", ("c0", "c1"), rel["E2"]),
            },
        )
        query = Query(
            "ans",
            ("y1", "y2", "y3"),
            (Atom("E13", ("y1", "y3", "z1")), Atom("C", ("z1", "z2")), Atom("E2", ("y2", "z2"))),
        )
        return engine.count_brute(QueryInstance(query, structure)).count

    def run(self, case):
        return _cli_count(case.data["argv"])


# -- clique-star: library count where star size grows with k ---------------------


class CliqueStar(Workload):
    """20 instances: every fourth is k=3 on a 5-, 6- or 7-vertex graph, the
    rest are k=4 on 5-vertex graphs. The k=4 class holds 75% of the ops, so
    both the median and the 90th percentile fall inside it. k=4 stays at 5
    vertices because a 7-vertex k=4 count takes about 0.8 s."""

    name = "clique-star"

    def generate(self, seed, workdir):
        rng = SplitMix64(seed)
        cases = []
        for i in range(20):
            k, n = (3, 5 + (i // 4) % 3) if i % 4 == 0 else (4, 5)
            g = _random_graph(rng, n)
            inst = gen_clique_star_instance(g, k)
            jt = dec.gyo_join_tree(from_query(inst.query).hypergraph)
            cases.append(Case(f"k{k}-n{n}-{i}", {"graph": g, "k": k, "inst": inst, "jt": jt}))
        return cases

    def expect(self, case):
        g, k = case.data["graph"], case.data["k"]
        cliques = sum(
            1
            for combo in itertools.combinations(range(g.n), k)
            if all(g.adjacent(u, w) for u, w in itertools.combinations(combo, 2))
        )
        return g.n ** k - math.factorial(k) * cliques

    def run(self, case):
        return engine.count_cq_via_ghd(case.data["inst"], case.data["jt"]).count


# -- cyclic-ladder: the default decomposition ladder on cycle queries ------------


CYCLE_DOMAIN = 20
# (length, free variables, successors per value): each of the 12 shapes
# twice, and three more 8-cycles with 2 free variables and 3 successors.
# That class is the slowest, and the one where the hinge decomposition falls
# furthest behind a GHD as relations grow; with five of the 27 cases it
# holds the 90th percentile in its middle rather than on the step below it.
CYCLE_SHAPES = 2 * [(length, f, degree) for degree in (2, 3) for f in (2, 3) for length in (6, 7, 8)] + 3 * [(8, 2, 3)]


def _cycle_count(length: int, free_pos: list[int], rels: list[set]) -> int:
    """Answers of a cycle query: free values a_j, a_j+1 must be joined by a
    path through the atoms between their positions. Quantified variables of
    different arcs never meet, so the arcs are independent."""
    succ = []
    for rows in rels:
        adj: dict[int, set] = {}
        for a, b in rows:
            adj.setdefault(a, set()).add(b)
        succ.append(adj)
    f = len(free_pos)
    reach = []
    for j in range(f):
        start, end = free_pos[j], free_pos[(j + 1) % f]
        steps = (end - start) % length or length
        table = {}
        for a in range(CYCLE_DOMAIN):
            frontier = {a}
            for s in range(steps):
                adj = succ[(start + s) % length]
                frontier = {b for v in frontier for b in adj.get(v, ())}
            table[a] = frontier
        reach.append(table)
    return sum(
        1
        for combo in itertools.product(range(CYCLE_DOMAIN), repeat=f)
        if all(combo[(j + 1) % f] in reach[j][combo[j]] for j in range(f))
    )


class CyclicLadder(Workload):
    """27 cycle queries of length 6, 7 and 8 with 2 or 3 free variables
    spread around the cycle, counted by ``cqstar count -q Q -d D`` with no
    decomposition flags. Each binary relation gives every one of 20 values
    exactly 2 or 3 random successors: the joins along a path then produce
    the same number of rows for every seed, so the cost of a case depends on
    its shape and not on the luck of the draw."""

    name = "cyclic-ladder"

    def generate(self, seed, workdir):
        rng = SplitMix64(seed)
        names = [f"d{v}" for v in range(CYCLE_DOMAIN)]
        cases = []
        for i, (length, f, degree) in enumerate(CYCLE_SHAPES):
            free_pos = [(j * length) // f for j in range(f)]
            variables = [f"x{p}" for p in range(length)]
            rels = []
            for _ in range(length):
                rows: set = set()
                for a in range(CYCLE_DOMAIN):
                    successors: set = set()
                    while len(successors) < degree:
                        successors.add(rng.below(CYCLE_DOMAIN))
                    rows.update((a, b) for b in successors)
                rels.append(rows)
            atoms = ", ".join(f"R{p}({variables[p]}, {variables[(p + 1) % length]})" for p in range(length))
            head = ", ".join(variables[p] for p in free_pos)
            qpath, fpath = workdir / f"cyc-{i}.cq", workdir / f"cyc-{i}.facts"
            qpath.write_text(f"ans({head}) :- {atoms}.\n", encoding="utf-8")
            _write_facts(fpath, {f"R{p}": rows for p, rows in enumerate(rels)}, names)
            cases.append(Case(
                f"L{length}-f{f}-d{degree}-{i}",
                {"argv": ["count", "-q", str(qpath), "-d", str(fpath)],
                 "length": length, "free_pos": free_pos, "rels": rels},
            ))
        return cases

    def expect(self, case):
        return _cycle_count(case.data["length"], case.data["free_pos"], case.data.pop("rels"))

    def run(self, case):
        return _cli_count(case.data["argv"])


# -- structure: data-free decomposition and star-size requests -------------------


def _grid(cols: int, rows: int) -> Hypergraph:
    vertices = [f"g{i}_{j}" for i in range(cols) for j in range(rows)]
    edges = []
    for i in range(cols):
        for j in range(rows):
            if i + 1 < cols:
                edges.append((f"h{i}_{j}", frozenset({f"g{i}_{j}", f"g{i + 1}_{j}"})))
            if j + 1 < rows:
                edges.append((f"v{i}_{j}", frozenset({f"g{i}_{j}", f"g{i}_{j + 1}"})))
    return Hypergraph(vertices, edges)


def _max_independent(adj: dict) -> int:
    """Maximum independent set of a conflict graph. A simplicial vertex (its
    neighbours all conflict with each other) is in some maximum set, which
    settles the near-chordal graphs of acyclic hypergraphs without
    branching; otherwise branch on a vertex of highest degree."""

    def without(gone):
        return {u: nb - gone for u, nb in adj.items() if u not in gone}

    if not adj:
        return 0
    for v, nb in adj.items():
        if all(w in adj[u] for u, w in itertools.combinations(nb, 2)):
            return 1 + _max_independent(without(nb | {v}))
    v = max(adj, key=lambda u: len(adj[u]))
    return max(_max_independent(without({v})), 1 + _max_independent(without(adj[v] | {v})))


def star_size_oracle(h: Hypergraph, s: frozenset) -> int:
    """Quantified star size from first principles: union-find over the
    quantified vertices, then an exact maximum independent set of the free
    vertices in each component's closure."""
    edges = [fs for _, fs in h.edges]
    parent = {v: v for v in h.vertices if v not in s}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for fs in edges:
        q = [v for v in fs if v in parent]
        for a, b in zip(q, q[1:]):
            parent[find(a)] = find(b)
    cores: dict = {}
    for v in parent:
        cores.setdefault(find(v), set()).add(v)
    best = 0
    for core in cores.values():
        closure = set().union(*(fs for fs in edges if fs & core))
        conflicts = {v: set() for v in closure & s}
        for fs in edges:
            inside = [v for v in fs if v in conflicts]
            for v in inside:
                conflicts[v].update(inside)
        best = max(best, _max_independent({v: nb - {v} for v, nb in conflicts.items()}))
    return best


def _independence_number(g: SimpleGraph) -> int:
    return max(
        len(c)
        for r in range(g.n + 1)
        for c in itertools.combinations(range(g.n), r)
        if not any(g.adjacent(u, w) for u, w in itertools.combinations(c, 2))
    )


# Random acyclic hypergraphs carry the heavy GYO and star-size work:
# (star-size strategy, decomposition, fewest and most edges, draws). The edge
# counts of a strategy's draws are spread evenly over its range, each
# jittered within its own slot, so op costs form a continuum. The median and
# the 90th percentile then never sit on a step between two size classes, and
# a seed's luck in one draw moves them little.
ACYCLIC_PLAN = [
    (ISMethod.ACYCLIC, "gyo", 100, 400, 36),
    (ISMethod.GHD_DP, "gyo", 100, 200, 16),
    (ISMethod.APPROX, "gyo", 100, 300, 16),
    (ISMethod.HINGE_FPT, "hinge", 100, 150, 12),
]
# (hypergraph source, size, decomposition, star-size strategy): grids and
# is-hardness blowups exercise GHD search, hinge and tree decomposition.
STRUCTURE_FIXED = (
    [("grid", (3, 4), "ghd", ISMethod.GHD_DP), ("grid", (4, 4), "ghd", ISMethod.GHD_DP),
     ("grid", (4, 4), "hinge", ISMethod.HINGE_FPT), ("grid", (3, 4), "tree", ISMethod.BRUTE)]
    + [("ishard", (5, 2), "ghd", ISMethod.GHD_DP), ("ishard", (5, 3), "ghd", ISMethod.GHD_DP),
       ("ishard", (5, 2), "hinge", ISMethod.HINGE_FPT), ("ishard", (5, 3), "hinge", ISMethod.HINGE_FPT),
       ("ishard", (5, 2), "tree", ISMethod.BRUTE), ("ishard", (4, 3), "tree", ISMethod.BRUTE)]
)


class StructureWorkload(Workload):
    """Build a decomposition, verify it, and compute the star size: 80
    requests on random acyclic hypergraphs of 100 to 400 edges and 10 on
    grids and is-hardness blowups."""

    name = "structure"

    def generate(self, seed, workdir):
        rng = SplitMix64(seed)
        schedule = [
            ("acyclic", lo + (hi - lo) * (1000 * j + rng.below(1000)) // (1000 * draws), decomp, method)
            for method, decomp, lo, hi, draws in ACYCLIC_PLAN
            for j in range(draws)
        ] + STRUCTURE_FIXED
        cases = []
        for i, (source, size, decomp, method) in enumerate(schedule):
            k, g = None, None
            if source == "acyclic":
                h = gen_random_acyclic(edges=size, max_arity=3, seed=rng.next_u64())
                s = frozenset(v for v in h.vertices if not rng.chance(1, 8))
            elif source == "grid":
                h = _grid(*size)
                s = frozenset(v for v in h.vertices if not rng.chance(1, 3))
                k = 2 if size == (3, 4) else 3
            else:
                n, k = size
                g = _random_graph(rng, n)
                sh = gen_obs_equivalent(gen_is_hardness_hypergraph(g, k)[0])
                h, s = sh.hypergraph, sh.s
            cases.append(Case(
                f"{source}{size}-{decomp}-{method.value}-{i}".replace(" ", ""),
                {"h": h, "s": s, "decomp": decomp, "method": method, "k": k,
                 "graph": g},
            ))
        return cases

    def expect(self, case):
        g = case.data["graph"]
        if g is not None:
            # An independent set of the k-layer blowup is an independent set
            # of g placed on distinct layers.
            return min(case.data["k"], _independence_number(g))
        return star_size_oracle(case.data["h"], case.data["s"])

    def run(self, case):
        h, decomp, method = case.data["h"], case.data["decomp"], case.data["method"]
        if decomp == "gyo":
            d = dec.gyo_join_tree(h)
        elif decomp == "hinge":
            d = dec.hinge_decompose(h)
        elif decomp == "ghd":
            d = dec.ghd_search(h, case.data["k"])
        else:
            d = dec.tree_decompose(h)
        if d is None or isinstance(d, dec.NotAcyclic):
            raise OpFailed(f"{decomp} found no decomposition")
        report = dec.verify(h, d)
        needs = method in (ISMethod.GHD_DP, ISMethod.HINGE_FPT, ISMethod.APPROX)
        size, _ = starsize.s_star_size(SHypergraph(h, case.data["s"]), method, d if needs else None)
        return report.ok, report.width, size

    def check(self, case, answer):
        ok, width, size = answer
        if case.data["method"] is ISMethod.APPROX:
            return ok and size <= case.expected <= size * max(width, 1)
        return ok and size == case.expected

    def note(self, answer, counts):
        counts["width"] = answer[1]


WORKLOADS = {w.name: w for w in (C9Cli(), CliqueStar(), CyclicLadder(), StructureWorkload())}
