"""Command-line interface binding parsers, decompositions, star size, and
counting. Exit codes: 0 success, 1 input error, 2 budget exceeded (a
brute-force or search budget, or memory run out), 3 internal error (a
violated invariant or any other unexpected exception, reported as one
line). Machine-readable output (--json) is a single JSON document on stdout
with every integer rendered as a decimal string.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import decomposition as dec
from .decomposition import Decomposition, DecompNode, NotAcyclic
from .engine import (
    QueryInstance,
    count_brute,
    count_cq_via_fractional,  # unused here, but bench/tracing.py wraps it
    count_cq_via_ghd,
)
from .errors import (
    BindError,
    BudgetExceeded,
    CqstarError,
    InvariantViolation,
    TooLarge,
)
from .generators import (
    gen_clique_star_instance,
    gen_g_star,
    gen_is_hardness_hypergraph,
    gen_random_instance,
)
from .hypergraph import Atom, Query, SHypergraph, edge_sort_key, from_query
from .parser import (
    ParseError,
    SourceSpan,
    decomposition_from_json,
    decomposition_to_json,
    facts_to_text,
    parse_edge_list,
    parse_facts,
    parse_query,
    query_to_text,
)
from .starsize import ISMethod, s_star_size


class _ArgumentError(CqstarError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _jsonify(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, frozenset):
        return sorted(map(str, value))
    return value


def _emit_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(_jsonify(doc), sort_keys=True) + "\n")


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        head = exc.object[: exc.start]
        line_start = head.rfind(b"\n") + 1
        # the bytes before the bad one decode, so the column counts characters
        column = len(head[line_start:].decode("utf-8")) + 1
        span = SourceSpan(path, head.count(b"\n") + 1, column)
        raise ParseError(f"not UTF-8 text ({exc.reason})", span) from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load_query(path: str) -> Query:
    return parse_query(_read(path), path)


def _auto_decomposition(h, kind: Optional[str], k: Optional[int]) -> Decomposition:
    """The decomposition of the requested kind. With no kind: a join tree if
    the query is acyclic, otherwise a hingetree; GHD search with growing
    width runs only when ``kind`` is "ghd"."""
    if kind == "jointree" or kind is None:
        jt = dec.gyo_join_tree(h)
        if not isinstance(jt, NotAcyclic):
            return jt
        if kind == "jointree":
            kernel = ", ".join(str(e) for e in sorted(jt.kernel.edge_ids(), key=edge_sort_key))
            raise BindError(f"query hypergraph is not acyclic (irreducible kernel edges: {kernel}); no join tree exists")
    if kind == "hinge" or kind is None:
        return dec.hinge_decompose(h)
    if kind == "ghd":
        limit = k if k is not None else max(2, len(h.dedup_edges()))
        lo = k if k is not None else 1
        for width in range(lo, limit + 1):
            found = dec.ghd_search(h, width)
            if found is not None:
                return found
        raise BindError(f"no generalized hypertree decomposition of width <= {limit} found")
    if kind == "tree":
        return dec.tree_decompose(h)
    raise BindError(f"unknown decomposition kind {kind!r}")


def _cmd_count(args) -> int:
    # a flag the chosen path never reads is an error, raised before any file is opened
    if args.method == "brute" and args.decomp is not None:
        raise _ArgumentError("--decomp is not read by --method brute")
    if args.method == "brute" and args.auto_decomp is not None:
        raise _ArgumentError("--auto-decomp is not read by --method brute")
    if args.decomp is not None and args.auto_decomp is not None:
        raise _ArgumentError("--auto-decomp is not read when --decomp is given")
    if args.k is not None and args.auto_decomp != "ghd":
        raise _ArgumentError("-k is read only with --auto-decomp ghd")
    query = _load_query(args.query)
    structure = parse_facts(_read(args.data), args.data)
    inst = QueryInstance(query, structure)
    if args.method == "brute":
        result = count_brute(inst)
    else:
        if args.decomp is not None:
            d = decomposition_from_json(_read(args.decomp), args.decomp)
        else:
            h = from_query(query).hypergraph
            d = _auto_decomposition(h, args.auto_decomp, args.k)
        result = count_cq_via_ghd(inst, d)
    if args.json:
        _emit_json({"command": "count", "count": result.count, "method": result.method,
                    "stats": dict(result.stats)})
    else:
        print(result.count)
    return 0


_STAR_METHODS = {
    "brute": ISMethod.BRUTE,
    "acyclic": ISMethod.ACYCLIC,
    "ghd": ISMethod.GHD_DP,
    "hinge": ISMethod.HINGE_FPT,
    "approx": ISMethod.APPROX,
}


def _cmd_starsize(args) -> int:
    method = _STAR_METHODS[args.method]
    reads_decomp = method in (ISMethod.GHD_DP, ISMethod.HINGE_FPT, ISMethod.APPROX)
    if args.decomp is not None and not reads_decomp:
        raise _ArgumentError(f"--decomp is not read by --method {args.method}")
    if args.k is not None and (args.decomp is not None or args.method not in ("ghd", "approx")):
        raise _ArgumentError("-k is read only by --method ghd or approx without --decomp")
    query = _load_query(args.query)
    sh = from_query(query)
    d = None
    if reads_decomp:
        if args.decomp is not None:
            d = decomposition_from_json(_read(args.decomp), args.decomp)
        else:
            d = _auto_decomposition(sh.hypergraph, "hinge" if method is ISMethod.HINGE_FPT else "ghd", args.k)
    size, witnesses = s_star_size(sh, method, d)
    best = next((w for w in witnesses if w.size == size), None)
    if args.json:
        _emit_json({
            "command": "starsize",
            "size": size,
            "method": method.value,
            "witness": best.star if best else [],
            "stats": {
                "components": len(witnesses),
                "component_sizes": [w.size for w in witnesses],
            },
            "components": [
                {"index": w.component_index, "size": w.size, "star": w.star}
                | ({"cover": w.cover_edges} if method is ISMethod.ACYCLIC else {})
                for w in witnesses
            ],
        })
    else:
        print(size)
        if size:
            print("witness:", " ".join(sorted(best.star)))
    return 0


def _cmd_decompose(args) -> int:
    if args.k is not None and args.kind != "ghd":
        raise _ArgumentError("-k is read only with --kind ghd")
    query = _load_query(args.query)
    d = _auto_decomposition(from_query(query).hypergraph, args.kind, args.k)
    text = decomposition_to_json(d)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(args.output)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    query = _load_query(args.query)
    h = from_query(query).hypergraph
    d = decomposition_from_json(_read(args.decomp), args.decomp)
    report = dec.verify(h, d)
    if args.json:
        _emit_json({
            "command": "verify",
            "ok": report.ok,
            "kind": report.kind.value,
            "width": report.width,
            "violations": [str(v) for v in report.violations],
        })
    else:
        if report.ok:
            print(f"valid {report.kind.value} decomposition, width {report.width}")
        else:
            for violation in report.violations:
                print(violation)
    return 0 if report.ok else 1


def _write_instance(prefix: str, inst: QueryInstance) -> list[str]:
    qpath, fpath = f"{prefix}.cq", f"{prefix}.facts"
    Path(qpath).write_text(query_to_text(inst.query), encoding="utf-8")
    Path(fpath).write_text(facts_to_text(inst.structure), encoding="utf-8")
    return [qpath, fpath]


def _hypergraph_query(sh: SHypergraph) -> Query:
    """One atom per edge, named by its id over its vertices in sorted order;
    the head holds S in the hypergraph's vertex order."""
    h = sh.hypergraph
    atoms = tuple(Atom(str(eid), tuple(sorted(fs))) for eid, fs in h.edges)
    return Query("ans", tuple(v for v in h.vertices if v in sh.s), atoms)


def _cmd_gen(args) -> int:
    written: list[str]
    if args.generator == "clique-star":
        g = parse_edge_list(_read(args.graph), args.graph)
        inst = gen_clique_star_instance(g, args.k)
        written = _write_instance(args.output, inst)
    elif args.generator == "is-hard":
        g = parse_edge_list(_read(args.graph), args.graph)
        h, d = gen_is_hardness_hypergraph(g, args.k)
        ordinals = {eid: i for i, (eid, _) in enumerate(h.edges)}
        query = _hypergraph_query(SHypergraph(h, frozenset()))
        remapped = Decomposition(
            d.kind,
            tuple(
                DecompNode(n.node_id, n.parent, frozenset(ordinals[e] for e in n.guard), n.bag)
                for n in d.nodes
            ),
        )
        qpath, dpath = f"{args.output}.cq", f"{args.output}.decomp.json"
        Path(qpath).write_text(query_to_text(query), encoding="utf-8")
        Path(dpath).write_text(decomposition_to_json(remapped), encoding="utf-8")
        written = [qpath, dpath]
    elif args.generator == "gstar":
        query = _hypergraph_query(gen_g_star(args.n))
        qpath = f"{args.output}.cq"
        Path(qpath).write_text(query_to_text(query), encoding="utf-8")
        written = [qpath]
    else:
        inst = gen_random_instance(
            variables=args.vars,
            atoms=args.atoms,
            max_arity=args.max_arity,
            domain=args.domain,
            seed=args.seed,
        )
        written = _write_instance(args.output, inst)
    for path in written:
        print(path)
    return 0


def _add_count(sub) -> None:
    p = sub.add_parser("count", help="count query answers")
    p.add_argument("-q", "--query", required=True)
    p.add_argument("-d", "--data", required=True)
    p.add_argument(
        "--decomp",
        help="decomposition JSON of the query, of any kind, not read with --auto-decomp; verified "
        "against the query and guarded if it is a tree decomposition, it is used only for cyclic "
        "pieces: each acyclic S-component and an acyclic rewritten query get their own join tree",
    )
    p.add_argument("--auto-decomp", choices=["jointree", "hinge", "ghd"], help="decomposition to "
                   "build, read by --method ghd (default: join tree, else hingetree)")
    p.add_argument("-k", type=_positive_int, help="GHD width, read only with --auto-decomp ghd "
                   "(default: the narrowest found)")
    p.add_argument("--method", choices=["ghd", "brute"], default="ghd",
                   help="ghd counts along a decomposition of any kind; brute, the brute-force "
                   "reference, reads none of --decomp, --auto-decomp and -k")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_count)


def _add_starsize(sub) -> None:
    p = sub.add_parser("starsize", help="quantified star size of a query")
    p.add_argument("-q", "--query", required=True)
    p.add_argument(
        "--decomp",
        help="decomposition JSON for --method ghd, hinge or approx, verified against the query, "
        "guarded if it is a tree decomposition and restricted to each S-component",
    )
    p.add_argument("--method", choices=sorted(_STAR_METHODS), default="brute",
                   help="ghd and approx read any kind but fractional, hinge only a hingetree, and "
                   "brute and acyclic no decomposition")
    p.add_argument("-k", type=_positive_int, help="GHD width, read only by --method ghd or "
                   "approx without --decomp (default: the narrowest found)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_starsize)


def _add_decompose(sub) -> None:
    p = sub.add_parser("decompose", help="build a decomposition for a query")
    p.add_argument("-q", "--query", required=True)
    p.add_argument("--kind", choices=["jointree", "hinge", "ghd", "tree"], required=True)
    p.add_argument("-k", type=_positive_int, help="GHD width, read only with --kind ghd "
                   "(default: the narrowest found)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_decompose)


def _add_verify(sub) -> None:
    p = sub.add_parser("verify", help="verify a decomposition against a query")
    p.add_argument("-q", "--query", required=True)
    p.add_argument("--decomp", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)


def _add_gen(sub) -> None:
    p = sub.add_parser("gen", help="generate instances and hypergraphs")
    gsub = p.add_subparsers(dest="generator", required=True)
    for name in ("clique-star", "is-hard"):
        g = gsub.add_parser(name)
        g.add_argument("--graph", required=True)
        g.add_argument("-k", type=_positive_int, required=True)
        g.add_argument("-o", "--output", required=True)
        g.set_defaults(func=_cmd_gen)
    g = gsub.add_parser("gstar")
    g.add_argument("-n", type=_positive_int, required=True)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_gen)
    g = gsub.add_parser("random")
    g.add_argument("--vars", type=_positive_int, required=True)
    g.add_argument("--atoms", type=_positive_int, required=True)
    g.add_argument("--max-arity", type=_positive_int, default=3)
    g.add_argument("--domain", type=_positive_int, default=4)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_gen)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser, built once per process; ``parse_args`` makes a fresh
    ``Namespace`` per call, so no state carries between runs."""
    parser = _Parser(prog="cqstar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (_add_count, _add_starsize, _add_decompose, _add_verify, _add_gen):
        add(sub)
    return parser


def run_cli(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (_ArgumentError, ParseError, BindError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TooLarge, BudgetExceeded) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except CqstarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a count too large for this machine
        print(f"budget exceeded: out of memory (at {_raised_at(exc)})", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug: one line naming where it was raised
        print(f"internal error: {type(exc).__name__}: {exc} (at {_raised_at(exc)})", file=sys.stderr)
        return 3


def _raised_at(exc: BaseException) -> str:
    """``file:line`` of the frame that raised ``exc``."""
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{Path(where.filename).name}:{where.lineno}"


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
