"""Traced in-process run of one ``zfpd`` command.

Usage: ``python3 perfbench/tracer.py SPANS_PREFIX RUN_ID -- <zfpd arguments>``

The zfpd package is imported from ``PYTHONPATH`` and left unedited: each
public function is wrapped at the module attribute its callers look it up
through (``zfpd.invariants.closure``, ``zfpd.structure.canonical_key`` and so
on), so one wrapper sees every call into it.  A wrapper records a span
(name, start, end, parent span) in ``array`` columns; the run id, shared by
every span of a run, is stored once.  Functions called hundreds of thousands
of times (``closure``, ``closure_with_log``) only count calls, so their time
lands in the caller's self time.  Nothing is written until the command returns; then
the spans go to ``SPANS_PREFIX.bin`` and the name table, counts and run id to
``SPANS_PREFIX.json``.  ``run.py`` turns them into self times.

The command's own stdout is passed through untouched and the exit status is
the command's, so the traced run is checked like an untraced one.
"""

from __future__ import annotations

import array
import json
import sys
import time
from typing import Any, Callable

# (module, attribute, span name) for span wrappers.  One original function is
# wrapped once and the wrapper is bound at every listed attribute.
SPANNED = [
    ("theorems", "enumerate_connected", "families.enumerate_connected"),
    ("theorems", "enumerate_trees", "families.enumerate_trees"),
    ("structure", "canonical_key", "families.canonical_key"),
    ("theorems", "read_graph6_lines", "families.read_graph6_lines"),
    ("families", "parse_graph6", "families.parse_graph6"),
    ("cli", "parse_graph6", "families.parse_graph6"),
    ("invariants", "find_zero_forcing_set", "invariants.find_zero_forcing_set"),
    ("theorems", "find_zero_forcing_set", "invariants.find_zero_forcing_set"),
    ("invariants", "find_power_dominating_set", "invariants.find_power_dominating_set"),
    ("theorems", "find_power_dominating_set", "invariants.find_power_dominating_set"),
    ("theorems", "zero_forcing_number", "invariants.zero_forcing_number"),
    ("theorems", "power_domination_number", "invariants.power_domination_number"),
    ("theorems", "domination_number", "invariants.domination_number"),
    ("theorems", "total_domination_number", "invariants.total_domination_number"),
    ("theorems", "path_cover_number", "invariants.path_cover_number"),
    ("theorems", "spider_number", "invariants.spider_number"),
    ("theorems", "is_outerplanar", "structure.is_outerplanar"),
    ("theorems", "is_planar", "structure.is_planar"),
    ("theorems", "cartesian_product", "products.cartesian_product"),
    ("theorems", "lexicographic_product", "products.lexicographic_product"),
]

# (module, attribute, counter name) for count-only wrappers.
COUNTED = [
    ("propagation", "closure", "propagation.closure"),
    ("invariants", "closure", "propagation.closure"),
    ("invariants", "closure_with_log", "propagation.closure_with_log"),
]

# Span names whose result counts as a hit when it is not None.
HIT_WHEN_NOT_NONE = {"invariants.find_power_dominating_set"}

GENERATORS = {"families.enumerate_connected", "families.enumerate_trees"}

UNIVERSE_SPAN = "theorems.universe"


class Tracer:
    """Span and counter store, kept in memory until the traced command ends."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self.hits: dict[str, list[int]] = {}

    def name_id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def spanned(self, name: str | Callable[..., str], fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap ``fn`` so each call records a span; ``name`` may derive from the arguments."""
        fixed = self.name_id(name) if isinstance(name, str) else None
        hits = self.hits.setdefault(name, [0]) if name in HIT_WHEN_NOT_NONE else None
        stack = self._stack
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            names.append(fixed if fixed is not None else self.name_id(name(*args, **kwargs)))
            parents.append(parent)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hits is not None and result is not None:
                hits[0] += 1
            return result

        return wrapper

    def counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def write(self, prefix: str) -> None:
        with open(prefix + ".bin", "wb") as fh:
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(fh)
        header = {
            "run_id": self.run_id,
            "spans": len(self.start),
            "names": self.names,
            "counts": {k: v[0] for k, v in self.counts.items()},
            "hits": {k: v[0] for k, v in self.hits.items()},
        }
        with open(prefix + ".json", "w", encoding="ascii") as fh:
            json.dump(header, fh, indent=1, sort_keys=True)


def install(tracer: Tracer) -> Callable[[list[str]], int]:
    """Wrap every traced binding of the zfpd package; return the wrapped CLI entry point."""
    import importlib

    mods = {m: importlib.import_module(f"zfpd.{m}") for m in
            ("families", "propagation", "invariants", "structure", "products", "theorems", "cli")}
    wrapped: dict[int, Callable[..., Any]] = {}

    def rebind(module: str, attr: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        original = getattr(mods[module], attr)
        if id(original) not in wrapped:
            wrapped[id(original)] = make(original)
        setattr(mods[module], attr, wrapped[id(original)])

    for module, attr, name in SPANNED:
        if name in GENERATORS:
            rebind(module, attr, lambda fn, name=name: tracer.spanned(name, lambda n: iter(list(fn(n)))))
        else:
            rebind(module, attr, lambda fn, name=name: tracer.spanned(name, fn))
    for module, attr, name in COUNTED:
        rebind(module, attr, lambda fn, name=name: tracer.counted(name, fn))

    # ``compute`` looks its solvers up through a table built at import time.
    cli = mods["cli"]
    for key, (label, fn) in list(cli._PARAMS.items()):
        cli._PARAMS[key] = (label, wrapped[id(fn)])

    cli.verify = tracer.spanned(lambda tid, **_: f"theorems.{tid}", cli.verify)
    universe = mods["theorems"].Universe
    universe.connected = tracer.spanned(UNIVERSE_SPAN, universe.connected)
    universe.trees = tracer.spanned(UNIVERSE_SPAN, universe.trees)
    return tracer.spanned("cli.main", cli.main)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_PREFIX RUN_ID -- <zfpd arguments>", file=sys.stderr)
        return 2
    prefix, run_id, zfpd_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    entry = install(tracer)
    try:
        status = entry(zfpd_args)
    finally:
        sys.stdout.flush()
        tracer.write(prefix)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
