"""Command-line front end.

Machine-first: every subcommand emits JSON lines on stdout.  Exit codes:
0 success, 2 negative verdict (not tight, not rigid, excluded form), 1 error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog, errors, fileio, homology, reduction, rigidity, sparsity
from .corpus import CorpusSpec, corpus_records
from .graphs import freedom


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _grid(text: str) -> tuple[int, int]:
    r, x, s = text.partition("x")
    if not (x and text.isascii() and r.isdecimal() and s.isdecimal()):
        raise errors.BadArgument(f"--grids: {text!r} is not of the form RxS")
    return int(r), int(s)


def cmd_gen(args) -> int:
    for flag, values in (("--grids", args.grids),
                         ("--boundary-lengths", args.boundary_lengths)):
        if not values:
            raise errors.BadArgument(f"{flag} needs at least one value")
    if args.count < 0:
        raise errors.BadArgument(f"--count must be at least 0, got {args.count}")
    spec = CorpusSpec(seed=args.seed, count=args.count,
                      grids=tuple(_grid(g) for g in args.grids),
                      boundary_lengths=tuple(args.boundary_lengths))
    for rec in corpus_records(spec):
        _emit(rec)
    return 0


def _verdict(hole) -> tuple[sparsity.SparsityVerdict, dict]:
    """The (3,6)-sparsity verdict of a graph and its JSON, with the
    freedom number."""
    verdict = sparsity.check_3_6(hole.graph)
    return verdict, {**verdict.to_json(), "freedom": freedom(hole.graph)}


def cmd_check(args) -> int:
    verdict, out = _verdict(fileio.load_hole(args.graph))
    _emit(out)
    return 0 if verdict.is_tight else 2


def cmd_rank(args) -> int:
    hole = fileio.load_hole(args.graph)
    report = rigidity.rigidity_report(hole.graph, seed=args.seed)
    _emit(report.to_json())
    return 0 if report.minimally_rigid else 2


def cmd_classify(args) -> int:
    hole = fileio.load_hole(args.graph)
    result = catalog.classify(hole)
    _emit(result.to_json())
    return 0 if not result.excluded else 2


def cmd_homology(args) -> int:
    hole = fileio.load_hole(args.graph)
    if not sparsity.check_3_6(hole.graph).is_tight:
        raise fileio.with_record(errors.NotTight, hole,
                                 "homology needs a tight single-hole graph")
    out = []
    boundary_vertices = {v for e in hole.boundary_edges for v in e}
    for e in hole.graph.sorted_edges():
        if not hole.is_ff_edge(e):
            continue
        if e[0] not in boundary_vertices or e[1] not in boundary_vertices:
            continue
        classes = homology.crossover_class(hole, e)
        out.append({"edge": list(e), "classes": sorted(map(list, classes))})
    _emit({"crossover_edges": out})
    return 0


def cmd_reduce(args) -> int:
    hole = fileio.load_hole(args.graph)
    leaf, moves = reduction.reduce_greedy(hole)
    _emit({"moves": [m.to_json() for m in moves],
           "leaf": fileio.hole_to_record(leaf)})
    return 0


def cmd_tree(args) -> int:
    """The greedy contraction sequence as a chain: node i is the graph after
    i contractions, the child of node i - 1.  Each contraction removes one
    vertex and three edges."""
    hole = fileio.load_hole(args.graph)
    _, moves = reduction.reduce_greedy(hole)
    n_vertices, n_edges = len(hole.graph.vertices), len(hole.graph.edges)
    _emit({"nodes": [
        {"id": i, "parent": i - 1 if i else None,
         "move": moves[i - 1].to_json() if i else None,
         "vertices": n_vertices - i, "edges": n_edges - 3 * i}
        for i in range(len(moves) + 1)]})
    return 0


def cmd_certify(args) -> int:
    hole = fileio.load_hole(args.graph)
    cert = reduction.certify(hole)
    if args.validate:
        reduction.verify_certificate(cert, hole.graph, seed=args.seed)
    _emit(cert.to_json())
    return 0


def cmd_catalog(args) -> int:
    for i, (word, pattern) in enumerate(catalog.the_17(), start=1):
        rec = fileio.hole_to_record(catalog.build_H(i))
        _emit({"index": i, "word": word, "pattern": list(pattern),
               "graph": rec})
    return 0


def cmd_export(args) -> int:
    hole = fileio.load_hole(args.graph)
    if args.format == "dot":
        sys.stdout.write(fileio.to_dot(hole))
    else:
        _emit(fileio.hole_to_record(hole))
    return 0


def cmd_batch_check(args) -> int:
    for line in fileio.text_lines(sys.stdin.buffer):
        if not line.strip():
            continue
        rec = fileio.parse_record(line)
        _, out = _verdict(fileio.record_to_hole(rec))
        if "meta" in rec:
            out["index"] = rec["meta"].get("index")
        _emit(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="torusrig")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random corpus as JSON lines")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--grids", nargs="*", metavar="RxS",
                   default=[f"{r}x{s}" for r, s in CorpusSpec.grids])
    p.add_argument("--boundary-lengths", nargs="*", type=int, default=[9])
    p.set_defaults(func=cmd_gen)

    for name, fn, extra in (
            ("check", cmd_check, ()),
            ("rank", cmd_rank, ("seed",)),
            ("classify", cmd_classify, ()),
            ("homology", cmd_homology, ()),
            ("reduce", cmd_reduce, ()),
            ("tree", cmd_tree, ()),
            ("certify", cmd_certify, ("validate", "seed")),
            ("export", cmd_export, ("format",))):
        p = sub.add_parser(name)
        p.add_argument("graph", help="JSON graph file, or - for stdin")
        if "seed" in extra:
            p.add_argument("--seed", type=int, default=0)
        if "validate" in extra:
            p.add_argument("--validate", action="store_true")
        if "format" in extra:
            p.add_argument("--format", choices=("json", "dot"), default="json")
        p.set_defaults(func=fn)

    p = sub.add_parser("catalog", help="dump the 17 words and graphs")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("batch-check", help="check JSON-line graphs from stdin")
    p.set_defaults(func=cmd_batch_check)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (errors.TorusRigError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
