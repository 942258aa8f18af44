"""Command-line front end.

Four subcommands: ``compute`` evaluates parameters on graphs from a file,
``gen`` emits family members as graph6, ``product`` combines two graphs,
and ``verify`` runs the claim checkers.  Output is a human table on a
terminal and JSON when piped; ``--format`` forces either.

The library decides what it refuses: solvers, parsers, generators and
verifiers raise ``ValueError`` or ``IndexError`` with their own message.
``compute`` lists a solver's refusal under ``skipped``; any other error
reaches ``main``, the one place that reports one, as ``error: <message>``
on stderr with exit status 2.  Each subcommand returns its output text, and
``main`` writes it to stdout or ``--out`` only once the work has succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Callable

from .graph import Graph, bits
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
from . import theorems
from .theorems import Universe, theorem_ids, verify

__all__ = ["main"]


_PARAMS: dict[str, tuple[str, Callable[[Graph], ParamResult]]] = {
    "zf": ("zero forcing number", zero_forcing_number),
    "pd": ("power domination number", power_domination_number),
    "dom": ("domination number", domination_number),
    "tdom": ("total domination number", total_domination_number),
    "pathcover": ("path cover number", path_cover_number),
    "spider": ("spider number", spider_number),
}


def _witness_json(witness) -> list:
    if isinstance(witness, int):
        return list(bits(witness))
    return [list(part) for part in witness]


def _read_graphs(path: str, edgelist: bool) -> list[Graph]:
    with open(path, encoding="latin-1") as fh:  # every byte decodes; the parsers name the bad line
        lines = fh.readlines()
    if edgelist:
        g = parse_edge_list(lines)
        return [g] if g is not None else []
    return read_graph6_lines(lines)


def _ints(option: str, text: str, count: int | None = None) -> tuple[int, ...]:
    """Parse the comma-separated integers given to ``option``, exactly ``count`` of them if set."""
    try:
        values = tuple(int(x) for x in text.split(","))
        if count is None or len(values) == count:
            return values
    except ValueError:
        pass
    form = "comma-separated integers" if count is None else f"{count} comma-separated integers"
    raise ValueError(f"{option} expects {form}, got {text!r}")


def _pick_format(requested: str | None) -> str:
    if requested:
        return requested
    return "table" if sys.stdout.isatty() else "json"


def _emit(text: str, path: str | None) -> None:
    """Write a finished command's ``text`` to the file at ``path``, or to stdout."""
    if path is None:
        sys.stdout.write(text)
        return
    data = text.encode("ascii")  # fails before the file is created
    with open(path, "wb") as fh:
        fh.write(data)


# ---------------------------------------------------------------------------
# subcommands: each returns its output text and exit status, or raises


def _cmd_compute(args: argparse.Namespace) -> tuple[str, int]:
    params = list(dict.fromkeys(p.strip() for p in args.params.split(",") if p.strip()))
    if not params:
        raise ValueError("no parameters given")
    for p in params:
        if p not in _PARAMS:
            raise ValueError(f"unknown parameter {p!r} (choose from {', '.join(_PARAMS)})")
    entries = []
    for idx, g in enumerate(_read_graphs(args.input, args.edgelist)):
        entry: dict = {"index": idx, "graph6": write_graph6(g), "n": g.n, "params": {}, "skipped": {}}
        for p in params:
            try:
                res = _PARAMS[p][1](g)
            except ValueError as exc:  # the solver refuses this graph
                entry["skipped"][p] = str(exc)
                continue
            entry["params"][p] = {"value": res.value, "witness": _witness_json(res.witness)}
        entries.append(entry)
    if _pick_format(args.format) == "json":
        return json.dumps({"graphs": entries}, indent=2, sort_keys=True) + "\n", 0
    lines = []
    for entry in entries:
        lines.append(f"graph {entry['index']}  n={entry['n']}  {entry['graph6']}")
        for p in params:
            if p in entry["skipped"]:
                lines.append(f"  {p:10} skipped: {entry['skipped'][p]}")
            else:
                info = entry["params"][p]
                lines.append(f"  {p:10} {info['value']:>3}  witness {info['witness']}")
    return "\n".join(lines or ["no graphs in input"]) + "\n", 0


def _cmd_gen(args: argparse.Namespace) -> tuple[str, int]:
    parts = _ints("--parts", args.parts) if args.parts else None
    legs = _ints("--legs", args.legs) if args.legs else None
    return write_graph6(generate(args.family, args.n, parts=parts, legs=legs)) + "\n", 0


def _cmd_product(args: argparse.Namespace) -> tuple[str, int]:
    ga = _read_graphs(args.left, args.edgelist)
    gb = _read_graphs(args.right, args.edgelist)
    if not ga or not gb:
        raise ValueError("each operand file must contain a graph")
    a, b = ga[0], gb[0]
    if args.kind == "cartesian":
        result = cartesian_product(a, b)
    elif args.kind == "lex":
        result = lexicographic_product(a, b)
    else:
        gv, hv = _ints("--at", args.at, 2)
        result = amalgamate(a, gv, b, hv)
    return write_graph6(result) + "\n", 0


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    wanted = [t.strip() for t in args.ids.split(",") if t.strip()]
    if not wanted:
        raise ValueError("no theorem ids given")
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    ids = theorem_ids() if wanted == ["all"] else list(dict.fromkeys(wanted))
    bad = [t for t in ids if t not in theorem_ids()]
    if bad:
        raise ValueError(
            f"unknown theorem id {', '.join(map(repr, bad))} (known ids: {', '.join(theorem_ids())})"
        )
    universe = Universe(args.universe or ())
    # A fork pool starts all its workers at the first submit, so start no more than there are jobs.
    workers = min(args.workers, len(ids))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # Workers get the function by name: a wrapper bound at cli.verify cannot be pickled.
            futures = [pool.submit(theorems.verify, t, max_n=args.max_n, universe=universe) for t in ids]
            reports = [f.result() for f in futures]
    else:
        reports = [verify(t, max_n=args.max_n, universe=universe) for t in ids]
    status = 0 if all(r.passed for r in reports) else 1
    if _pick_format(args.format) == "json":
        return json.dumps({"reports": [r.to_dict() for r in reports]}, indent=2, sort_keys=True) + "\n", status
    lines = []
    for r in reports:
        verdict = "pass" if r.passed else f"FAIL ({len(r.failures)} counterexamples)"
        lines.append(f"{r.theorem:4} {verdict:30} checked {r.checked:>6}  {r.elapsed_s:7.2f}s  {r.claim}")
        lines.append(f"     universe: {r.universe}")
        lines += [f"     counterexample {f.graph6}: expected {f.expected}; observed {f.observed}" for f in r.failures]
        lines += [f"     note: {note}" for note in r.notes]
    return "\n".join(lines) + "\n", status


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
    p.set_defaults(fn=_cmd_compute, out=None)

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
                   help="verifier processes, at most one per verifier; "
                        "1 keeps everything in-process and serial")
    p.add_argument("--format", choices=["json", "table"], default=None)
    p.add_argument("--out", "-o", default=None)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text, status = args.fn(args)
        _emit(text, args.out)
    except (OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
