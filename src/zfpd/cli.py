"""Command-line front end.

Four subcommands: ``compute`` evaluates parameters on graphs from a file,
``gen`` emits family members as graph6, ``product`` combines two graphs,
and ``verify`` runs the claim checkers.  Output is a human table on a
terminal and JSON when piped; ``--format`` forces either.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, TextIO

from .graph import Graph, bits, is_tree
# parse_graph6 is unused here but stays a module attribute: perfbench/tracer.py
# wraps cli.parse_graph6.
from .families import (  # noqa: F401
    generate,
    parse_edge_list,
    parse_graph6,
    read_graph6_lines,
    write_graph6,
)
from .invariants import (
    ParamResult,
    domination_number,
    path_cover_number,
    power_domination_number,
    spider_number,
    total_domination_number,
    zero_forcing_number,
)
from .products import amalgamate, cartesian_product, lexicographic_product
from .theorems import theorem_ids, verify

__all__ = ["main"]


_PARAMS: dict[str, tuple[str, Callable[[Graph], ParamResult]]] = {
    "zf": ("zero forcing number", zero_forcing_number),
    "pd": ("power domination number", power_domination_number),
    "dom": ("domination number", domination_number),
    "tdom": ("total domination number", total_domination_number),
    "pathcover": ("path cover number", path_cover_number),
    "spider": ("spider number", spider_number),
}


def _precondition(param: str, g: Graph) -> str | None:
    if g.n == 0:
        return "empty graph"
    if not g.is_connected():
        return "disconnected graph"
    if param == "tdom" and g.n == 1:
        return "total domination needs at least two vertices"
    if param == "spider" and not is_tree(g):
        return "spider number needs a tree"
    return None


def _witness_json(witness) -> list:
    if isinstance(witness, int):
        return list(bits(witness))
    return [list(part) for part in witness]


def _read_graphs(path: str, edgelist: bool) -> list[Graph]:
    with open(path, encoding="ascii") as fh:
        lines = fh.readlines()
    if edgelist:
        g = parse_edge_list(lines)
        return [g] if g is not None else []
    return read_graph6_lines(lines)


def _pick_format(requested: str | None) -> str:
    if requested:
        return requested
    return "table" if sys.stdout.isatty() else "json"


def _out_stream(path: str | None) -> TextIO:
    return open(path, "w", encoding="ascii") if path else sys.stdout


# ---------------------------------------------------------------------------
# subcommands


def _cmd_compute(args: argparse.Namespace) -> int:
    params = [p.strip() for p in args.params.split(",") if p.strip()]
    for p in params:
        if p not in _PARAMS:
            print(f"error: unknown parameter {p!r} (choose from {', '.join(_PARAMS)})", file=sys.stderr)
            return 2
    try:
        graphs = _read_graphs(args.input, args.edgelist)
    except (OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    entries = []
    for idx, g in enumerate(graphs):
        entry: dict = {"index": idx, "graph6": write_graph6(g), "n": g.n, "params": {}, "skipped": {}}
        for p in params:
            reason = _precondition(p, g)
            if reason is not None:
                entry["skipped"][p] = reason
                continue
            res = _PARAMS[p][1](g)
            entry["params"][p] = {"value": res.value, "witness": _witness_json(res.witness)}
        entries.append(entry)
    payload = {"graphs": entries}
    fmt = _pick_format(args.format)
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for entry in entries:
            print(f"graph {entry['index']}  n={entry['n']}  {entry['graph6']}")
            for p in params:
                if p in entry["skipped"]:
                    print(f"  {p:10} skipped: {entry['skipped'][p]}")
                else:
                    info = entry["params"][p]
                    print(f"  {p:10} {info['value']:>3}  witness {info['witness']}")
        if not entries:
            print("no graphs in input")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    parts = tuple(int(x) for x in args.parts.split(",")) if args.parts else None
    legs = tuple(int(x) for x in args.legs.split(",")) if args.legs else None
    try:
        g = generate(args.family, args.n, parts=parts, legs=legs)
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _out_stream(args.out)
    print(write_graph6(g), file=out)
    if out is not sys.stdout:
        out.close()
    return 0


def _cmd_product(args: argparse.Namespace) -> int:
    try:
        ga = _read_graphs(args.left, args.edgelist)
        gb = _read_graphs(args.right, args.edgelist)
        if not ga or not gb:
            raise ValueError("each operand file must contain a graph")
        a, b = ga[0], gb[0]
        if args.kind == "cartesian":
            result, _ = cartesian_product(a, b)
        elif args.kind == "lex":
            result, _ = lexicographic_product(a, b)
        else:
            gv, hv = (int(x) for x in args.at.split(","))
            result = amalgamate(a, gv, b, hv)
    except (OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _out_stream(args.out)
    print(write_graph6(result), file=out)
    if out is not sys.stdout:
        out.close()
    return 0


def _verify_one(tid: str, max_n: int | None, files: tuple[str, ...]):
    return verify(tid, max_n=max_n, universe_files=files)


def _cmd_verify(args: argparse.Namespace) -> int:
    wanted = [t.strip() for t in args.ids.split(",") if t.strip()]
    ids = theorem_ids() if wanted == ["all"] else wanted
    known = set(theorem_ids())
    bad = [t for t in ids if t not in known]
    if bad:
        for t in bad:
            print(f"error: unknown theorem id {t!r}", file=sys.stderr)
        print(f"known ids: {', '.join(theorem_ids())}", file=sys.stderr)
        return 2
    files = tuple(args.universe or ())
    try:
        if args.workers > 1 and len(ids) > 1:
            with ProcessPoolExecutor(max_workers=args.workers) as pool:
                futures = [pool.submit(_verify_one, t, args.max_n, files) for t in ids]
                reports = [f.result() for f in futures]
        else:
            reports = [_verify_one(t, args.max_n, files) for t in ids]
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fmt = _pick_format(args.format)
    out = _out_stream(args.out)
    if fmt == "json":
        print(json.dumps({"reports": [r.to_dict() for r in reports]}, indent=2, sort_keys=True), file=out)
    else:
        for r in reports:
            verdict = "pass" if r.passed else f"FAIL ({len(r.failures)} counterexamples)"
            print(f"{r.theorem:4} {verdict:30} checked {r.checked:>6}  {r.elapsed_s:7.2f}s  {r.claim}", file=out)
            print(f"     universe: {r.universe}", file=out)
            for fail in r.failures:
                print(f"     counterexample {fail.graph6}: expected {fail.expected}; observed {fail.observed}", file=out)
            for note in r.notes:
                print(f"     note: {note}", file=out)
    if out is not sys.stdout:
        out.close()
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zfpd",
        description="Exact zero-forcing and power-domination computations on small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute parameters for every graph in a file")
    p.add_argument("--input", required=True, help="graph6 file (or edge list with --edgelist)")
    p.add_argument("--params", required=True, help=f"comma list from: {', '.join(_PARAMS)}")
    p.add_argument("--edgelist", action="store_true", help="input is one 'u v' pair per line")
    p.add_argument("--format", choices=["json", "table"], default=None)
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("gen", help="emit a named family member as graph6")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--parts", default=None, help="comma list of part sizes (multipartite)")
    p.add_argument("--legs", default=None, help="comma list of leg lengths (spider)")
    p.add_argument("--out", "-o", default=None)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("product", help="combine two graphs")
    p.add_argument("--kind", choices=["cartesian", "lex", "amalgam"], required=True)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--at", default="0,0", help="gv,hv vertices to glue (amalgam)")
    p.add_argument("--edgelist", action="store_true")
    p.add_argument("--out", "-o", default=None)
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("verify", help="run claim verifiers")
    p.add_argument("--ids", required=True, help="comma list of theorem ids, or 'all'")
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    p.add_argument("--universe", action="append", default=None, help="graph6 universe file (repeatable)")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                   help="verifier processes; 1 keeps everything in-process and serial")
    p.add_argument("--format", choices=["json", "table"], default=None)
    p.add_argument("--out", "-o", default=None)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
