"""Command-line front end.

Four subcommands: ``compute`` evaluates parameters on graphs from a file,
``gen`` emits family members as graph6, ``product`` combines two graphs,
and ``verify`` runs the claim checkers.  Output is a human table on a
terminal and JSON when piped or written to ``--out``; ``--format`` forces
either.

The library decides what it refuses: solvers, parsers, generators and
verifiers raise ``ValueError`` or ``IndexError`` with their own message.
``compute`` lists a solver's refusal under ``skipped``; any other error
reaches ``main``, the one place that reports one, as ``error: <message>``
on stderr with exit status 2.  Each subcommand returns its output text, and
``main`` writes it to stdout or ``--out`` only once the work has succeeded.
``verify`` has ``theorems`` refuse a run (an unknown id, a bad ``--max-n``,
an order no file covers) before any universe is built or any verifier runs,
at every worker count.

Each subcommand imports what only it needs when it runs: ``compute`` and
``gen`` never load the claim checkers (``theorems``, ``structure``) or the
products, and only a ``verify`` run with a pool loads ``concurrent.futures``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Callable

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

if TYPE_CHECKING:
    from .theorems import VerifyReport

__all__ = ["main"]


# zf, dom and tdom also take a keyword ``at_least``, a proven lower bound.
_PARAMS: dict[str, tuple[str, Callable[..., ParamResult]]] = {
    "zf": ("zero forcing number", zero_forcing_number),
    "pd": ("power domination number", power_domination_number),
    "dom": ("domination number", domination_number),
    "tdom": ("total domination number", total_domination_number),
    "pathcover": ("path cover number", path_cover_number),
    "spider": ("spider number", spider_number),
}


# ``compute`` solves each graph in this order, so that a parameter starts at
# the bounds already solved for it (``_BOUNDS``).  P <= Z: the forcing chains
# of a zero forcing set are disjoint induced paths.  gamma_P <= Z and
# gamma_P <= gamma: a zero forcing or dominating set power dominates.
# gamma <= gamma_t: a total dominating set dominates.
_SOLVE_ORDER = ("pathcover", "pd", "zf", "dom", "tdom", "spider")
_BOUNDS = {"zf": ("pathcover", "pd"), "dom": ("pd",), "tdom": ("dom",)}


def _witness_json(witness) -> list:
    if isinstance(witness, int):
        return list(bits(witness))
    return [list(part) for part in witness]


def _read_graphs(path: str, edgelist: bool) -> list[Graph]:
    with open(path, encoding="latin-1") as fh:  # every byte decodes; the parsers name the bad line
        lines = fh.readlines()
    try:
        if edgelist:
            g = parse_edge_list(lines)
            return [g] if g is not None else []
        return read_graph6_lines(lines)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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


def _pick_format(args: argparse.Namespace) -> str:
    """``--format`` if given, else a table for a terminal and JSON for a pipe or an ``--out`` file."""
    if args.format:
        return args.format
    return "table" if args.out is None and sys.stdout.isatty() else "json"


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
        solved = entry["params"]
        for p in sorted(params, key=_SOLVE_ORDER.index):
            # Only values solved here bound another: a skipped parameter gives no bound.
            bounds = [solved[q]["value"] for q in _BOUNDS.get(p, ()) if q in solved]
            solve = _PARAMS[p][1]
            try:
                res = solve(g, at_least=max(bounds)) if bounds else solve(g)
            except ValueError as exc:  # the solver refuses this graph
                entry["skipped"][p] = str(exc)
                continue
            solved[p] = {"value": res.value, "witness": _witness_json(res.witness)}
        entries.append(entry)
    if _pick_format(args) == "json":
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
    from .products import amalgamate, cartesian_product, lexicographic_product

    if args.at is not None and args.kind != "amalgam":
        raise ValueError(f"kind {args.kind!r} takes no --at")
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
        gv, hv = _ints("--at", args.at, 2) if args.at is not None else (0, 0)
        result = amalgamate(a, gv, b, hv)
    return write_graph6(result) + "\n", 0


def verify(tid: str, **kwargs) -> VerifyReport:
    """``theorems.verify``, imported on first call; serial ``verify`` runs call through this name."""
    from .theorems import verify as run

    return run(tid, **kwargs)


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    from . import theorems  # before the pool forks, so no worker imports it again

    wanted = [t.strip() for t in args.ids.split(",") if t.strip()]
    if not wanted:
        raise ValueError("no theorem ids given")
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    ids = theorems.theorem_ids() if wanted == ["all"] else list(dict.fromkeys(wanted))
    universe = theorems.Universe(args.universe or ())
    for tid in ids:  # every refusal comes before any build, serial or pooled
        theorems._cap(tid, args.max_n, universe)
    # A fork pool starts all its workers at the first submit, so start no more than there are jobs.
    workers = min(args.workers, len(ids))
    if workers > 1:
        import gc
        from concurrent.futures import ProcessPoolExecutor

        # Workers fork from a frozen heap, so their collections neither walk
        # nor copy on write what they inherit; in-process callers get normal
        # collection back.
        gc.freeze()
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                parts = theorems.prepare(universe, ids, args.max_n, pool, workers)  # builds the universe first
                # Workers get the function by name: a wrapper bound at cli.verify cannot be pickled.
                futures = [pool.submit(theorems.verify, t, max_n=args.max_n, universe=u) for t, u in zip(ids, parts)]
                reports = [f.result() for f in futures]
        finally:
            gc.unfreeze()
    else:
        # Each order is built inside the first verifier that reads it, so its time stays in that report.
        reports = [verify(t, max_n=args.max_n, universe=universe) for t in ids]
    status = 0 if all(r.passed for r in reports) else 1
    if _pick_format(args) == "json":
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
    p.add_argument("--at", default=None, help="gv,hv vertices to glue (amalgam only; default 0,0)")
    p.add_argument("--edgelist", action="store_true")
    p.add_argument("--out", "-o", default=None)
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("verify", help="run claim verifiers")
    p.add_argument("--ids", required=True, help="comma list of theorem ids, or 'all'")
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    p.add_argument("--universe", action="append", default=None, help="graph6 universe file (repeatable)")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                   help="processes, at most one per verifier: the pool first builds the "
                        "universe, each order shared out, then runs the verifiers; "
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
