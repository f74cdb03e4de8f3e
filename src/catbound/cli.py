"""Command line front end.

Exit codes: 0 on success, 1 on a domain error (unknown names, broken
documents, refused bounds where an answer was required), 2 on usage errors.
Output is deterministic: JSON is emitted with sorted keys, text tables are
built from sorted iterations, and the solver's fixpoint does not depend on
the settle order a seed picks.
"""

from __future__ import annotations

import os
import sys

from .algebra import AlgebraError
from .catalog import Catalog, LinkError, link
from .cones import (
    BoundRefused,
    ConeError,
    check_compatibility,
    filtration_ledger,
    general_bundle_bound,
)
from .corpus import CorpusError, load_corpus, parse_sources, read_sources
from .cup import SearchBudgetExceeded, cup_length, space_weights, weighted_wgt_lower
from .solver import Solution, ganea_check, ganea_verdict, propagate


class CliError(ValueError):
    pass


_ERRORS = (
    CliError,
    CorpusError,
    LinkError,
    AlgebraError,
    ConeError,
    BoundRefused,
    SearchBudgetExceeded,
)


def _dump(obj) -> str:
    import json  # only --format json needs it

    return json.dumps(obj, indent=2, sort_keys=True)


# -- table rendering ---------------------------------------------------------

_GRID_ROWS = (
    ("SU(n+1)", {1: "SU(2)", 2: "SU(3)", 3: "SU(4)", 4: "SU(5)"}),
    ("PU(n+1)", {1: "PU(2)", 2: "PU(3)", 3: "PU(4)", 4: "PU(5)"}),
    ("Spin(2n+1)", {1: "Spin(3)", 2: "Spin(5)", 3: "Spin(7)", 4: "Spin(9)"}),
    ("SO(2n+1)", {1: "SO(3)", 2: "SO(5)", 3: "SO(7)", 4: "SO(9)"}),
    ("Sp(n)", {1: "Sp(1)", 2: "Sp(2)", 3: "Sp(3)", 4: "Sp(4)"}),
    ("PSp(n)", {1: "PSp(1)", 2: "PSp(2)", 3: "PSp(3)", 4: "PSp(4)"}),
    ("Spin(2n)", {3: "Spin(6)", 4: "Spin(8)"}),
    ("SO(2n)", {3: "SO(6)", 4: "SO(8)"}),
    ("PO(2n)", {3: "PO(6)", 4: "PO(8)"}),
    ("Ss(2n)", {4: "Ss(8)"}),
)

_EXCEPTIONAL = ("G2", "F4", "E6", "E7", "E8")


def table_cell(solution: Solution, name: str | None) -> str:
    """cat of the named space: a number when determined, an interval when
    declared but open, '-' when the catalog has nothing at all."""
    if name is None or name not in solution.states:
        return "-"
    return str(solution.states[name].intervals["cat"])


def render_table(solution: Solution) -> str:
    rows = [["family"] + [f"n={k}" for k in range(1, 5)] + ["n>=5"]]
    for label, cells in _GRID_ROWS:
        rows.append(
            [label]
            + [table_cell(solution, cells.get(k)) for k in range(1, 5)]
            + ["-"]
        )
    rows.append(
        ["exceptional"] + [f"{name}={table_cell(solution, name)}" for name in _EXCEPTIONAL]
    )
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    lines = ["cat of compact simple Lie groups", "================================", ""]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())

    grid = {*_EXCEPTIONAL, *(n for _, cells in _GRID_ROWS for n in cells.values())}
    aux = sorted(set(solution.states) - grid)
    if aux:
        lines += ["", "other catalogued spaces", "-----------------------"]
        width = max(len(name) for name in aux)
        for name in aux:
            iv = solution.states[name].intervals["cat"]
            value = f"cat = {iv.lower}" if iv.determined else f"cat in {iv}"
            lines.append(f"{name.ljust(width)}  {value}")

    if solution.contradictions:
        lines += ["", "contradictions", "--------------"]
        for c in solution.contradictions:
            lines.append(
                f"{c.space}: {c.invariant} lower {c.lower.value} "
                f"({c.lower.rule}: {c.lower.detail}) vs upper {c.upper.value} "
                f"({c.upper.rule}: {c.upper.detail})"
            )
    return "\n".join(lines)


_PROVENANCE_KEYS = ("invariant", "side", "value", "rule", "detail")


def solution_json(solution: Solution) -> dict:
    spaces = {}
    credits, contradicted = solution.provenance.credits, solution.provenance.contradicted
    for name in sorted(solution.states):
        intervals = solution.states[name].intervals
        status, ganea_rule = ganea_verdict(intervals, name in contradicted)
        spaces[name] = {
            "intervals": {  # lower is an int, so lower == upper is `determined`
                inv: {"lower": iv.lower, "upper": iv.upper, "determined": iv.lower == iv.upper}
                for inv, iv in intervals.items()
            },
            "ganea": status,
            "ganea_rule": ganea_rule,
            "provenance": [
                {"invariant": inv, "side": side, "value": value, "rule": rule, "detail": detail}
                for inv, side, value, rule, detail, _ in credits(name)
            ],
        }
    return {
        "spaces": spaces,
        "contradictions": [
            {
                "space": c.space,
                "invariant": c.invariant,
                "lower": dict(zip(_PROVENANCE_KEYS, c.lower[1:])),
                "upper": dict(zip(_PROVENANCE_KEYS, c.upper[1:])),
            }
            for c in solution.contradictions
        ],
    }


# -- subcommands -------------------------------------------------------------
# Each subcommand but validate maps the loaded catalog and its arguments to
# its JSON payload and its text; `main` loads the corpus and prints one.


def _resolve_ring(catalog: Catalog, name: str):
    """A ring name, or a space name that carries a ring.  Returns the ring
    and the loopspace-even flag (False when addressed as a bare ring)."""
    if name in catalog.rings:
        return catalog.rings[name], False
    space = catalog.spaces.get(name)
    if space is not None:
        if space.ring is None:
            raise CliError(f"space {name!r} has no cohomology presentation")
        return space.ring, space.loopspace_even
    raise CliError(f"no ring or space named {name!r}")


def cmd_cup(catalog: Catalog, args) -> tuple[dict, str]:
    ring, _ = _resolve_ring(catalog, args.name)
    result = cup_length(ring, max_nodes=args.max_search)
    witness = result.witness_str(ring)
    payload = {
        "name": args.name, "ring": ring.name, "cup": result.value, "witness": witness
    }
    return payload, f"cup({args.name}) = {result.value}\nwitness: {witness}"


def cmd_wgt(catalog: Catalog, args) -> tuple[dict, str]:
    ring, loopspace_even = _resolve_ring(catalog, args.name)
    weights = space_weights(ring, loopspace_even)
    result = weighted_wgt_lower(ring, weights, max_nodes=args.max_search)
    pairs = list(zip((g.name for g in ring.generators), weights))
    witness = result.witness_str(ring)
    payload = {
        "name": args.name,
        "ring": ring.name,
        "wgt_lower": result.value,
        "weights": dict(pairs),
        "witness": witness,
    }
    lines = [
        f"wgt({args.name}) >= {result.value}",
        "weights: " + " ".join(f"{n}={w}" for n, w in pairs),
        f"witness: {witness}",
    ]
    return payload, "\n".join(lines)


def _bundle(catalog: Catalog, name: str):
    bundle = catalog.bundles.get(name)
    if bundle is None:
        raise CliError(f"no bundle named {name!r}")
    return bundle


def cmd_bound(catalog: Catalog, args) -> tuple[dict, str]:
    bundle = _bundle(catalog, args.name)
    verdict = check_compatibility(bundle)
    lines = [
        f"bundle {bundle.name}: {bundle.fiber} -> {bundle.total} -> "
        f"{bundle.base}, cells-mod {bundle.d} {bundle.s}"
    ]
    fallback = None
    if not verdict.passed:
        lines.append(f"refused: {verdict.reason}")
        solution = propagate(catalog, max_search=args.max_search)
        f = solution.states[bundle.fiber].intervals["cat"].upper
        b = solution.states[bundle.base].intervals["cat"].upper
        if f is not None and b is not None:
            fallback = general_bundle_bound(f, b)
            lines.append(
                f"fallback: cat({bundle.total}) <= ({f}+1)*({b}+1)-1 = {fallback} "
                f"from cat({bundle.fiber}) <= {f} and cat({bundle.base}) <= {b}"
            )
        else:
            lines.append(
                "fallback: unavailable (no finite cat bound for fiber and base)"
            )
    else:
        lines += [
            f"certificate: {verdict.rule} ({verdict.reason})",
            f"Cat({bundle.total}) <= {bundle.fiber_decomposition.length} + "
            f"{bundle.base_dim}//{bundle.d} = {verdict.bound}",
        ]
    payload = {
        "bundle": bundle.name,
        "fiber": bundle.fiber,
        "base": bundle.base,
        "total": bundle.total,
        "d": bundle.d,
        "s": bundle.s,
        "certificate": bundle.certificate.kind,
        **verdict._asdict(),
        "fallback": fallback,
    }
    return payload, "\n".join(lines)


def cmd_ledger(catalog: Catalog, args) -> tuple[dict, str]:
    bundle = _bundle(catalog, args.name)
    ledger = filtration_ledger(bundle)
    stages = [(st.k, list(zip(st.pieces, st.dims))) for st in ledger.stages]
    payload = {
        "bundle": ledger.bundle,
        "n": ledger.n,
        "m": ledger.m,
        "bound": ledger.total_bound,
        "stages": [
            {
                "stage": k,
                "pieces": [{"i": i, "j": j, "dim": dim} for (i, j), dim in pieces],
            }
            for k, pieces in stages
        ],
    }
    lines = [
        f"filtration ledger: bundle {bundle.name} "
        f"({bundle.fiber} -> {bundle.total} -> {bundle.base}, "
        f"d={bundle.d} s={bundle.s})"
    ]
    for k, pieces in stages:
        lines.append(
            f"stage {k}: " + ", ".join(f"({i},{j}) dim {dim}" for (i, j), dim in pieces)
        )
    lines.append(
        f"stages: {ledger.total_bound}, so Cat({bundle.total}) <= {ledger.total_bound}"
    )
    return payload, "\n".join(lines)


def cmd_table(catalog: Catalog, args) -> tuple[dict, str]:
    solution = propagate(catalog, rule_seed=args.seed, max_search=args.max_search)
    return solution_json(solution), render_table(solution)


def cmd_check_ganea(catalog: Catalog, args) -> tuple[dict, str]:
    solution = propagate(catalog, rule_seed=args.seed, max_search=args.max_search)
    if args.space is not None and args.space not in solution.states:
        raise CliError(f"no space named {args.space!r}")
    names = sorted(solution.states) if args.space is None else [args.space]
    results = [ganea_check(solution, name) for name in names]
    payload = {"spaces": {r.space: {"status": r.status, "rule": r.rule} for r in results}}
    text = "\n".join(
        f"{r.space}: {r.status}" + (f" ({r.rule})" if r.rule else "") for r in results
    )
    return payload, text


def cmd_validate(args) -> int:
    sources = [src for path in args.paths or [None] for src in read_sources(path)]
    docs = parse_sources(sources)
    clean = True
    for doc in docs:
        for diag in doc.diagnostics:
            clean = False
            print(f"{doc.path}:{diag}")
    if not clean:
        return 1
    try:
        catalog = link(docs)
    except LinkError as exc:
        print(f"link error: {exc}")
        return 1
    print(
        f"ok: {len(catalog.rings)} rings, {len(catalog.spaces)} spaces, "
        f"{len(catalog.bundles)} bundles, {len(catalog.facts)} facts, "
        f"{len(catalog.products)} products"
    )
    return 0


# -- argument parsing --------------------------------------------------------

_RING_NAME = ("name", {"help": "ring name, or space name with a presentation"})


def _node_budget(text: str) -> int:
    """--max-search's type: an integer >= 0; anything else exits 2."""
    import argparse  # loaded already: only the parser calls this

    try:
        n = int(text)
    except ValueError:
        n = -1  # not an integer: refused with the same message
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text}")
    return n


_INT_OPTIONS = {
    "--max-search": (_node_budget, "node budget for cup-length searches (>= 0)"),
    "--seed": (int, "shuffle the solver rule order (the result is identical)"),
}

#: name, handler, help, positional argument, the _INT_OPTIONS flags it takes
_COMMANDS = (
    ("cup", cmd_cup, "cup-length of a presented ring", _RING_NAME, ("--max-search",)),
    ("wgt", cmd_wgt, "weighted cup-length lower bound", _RING_NAME, ("--max-search",)),
    ("bound", cmd_bound, "stagewise upper bound for a bundle",
     ("name", {"help": "bundle name"}), ("--max-search",)),
    ("ledger", cmd_ledger, "stage-by-stage filtration of a bundle bound",
     ("name", {"help": "bundle name"}), ()),
    ("table", cmd_table, "solve the catalog and print the table", None,
     ("--max-search", "--seed")),
    ("check-ganea", cmd_check_ganea, "report which spaces satisfy the check",
     ("space", {"nargs": "?", "default": None}), ("--max-search", "--seed")),
)


def build_parser():
    import argparse  # only the command line needs it, not the library

    parser = argparse.ArgumentParser(
        prog="catbound",
        description="category bounds for symbolically presented spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--corpus",
        default=None,
        help="directory or .lsc file to load (default: shipped corpus)",
    )
    common.add_argument("--format", choices=("text", "json"), default="text")
    for name, func, summary, positional, flags in _COMMANDS:
        p = sub.add_parser(name, help=summary, parents=[common])
        if positional is not None:
            p.add_argument(positional[0], **positional[1])
        for flag in flags:
            kind, summary = _INT_OPTIONS[flag]
            p.add_argument(flag, type=kind, default=None, help=summary)
        p.set_defaults(func=func)

    p = sub.add_parser("validate", help="parse and link documents, report problems")
    p.add_argument("paths", nargs="*", help="files or directories (default: shipped)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed the message
        return int(exc.code or 0)
    try:
        if args.command == "validate":
            return cmd_validate(args)
        payload, text = args.func(load_corpus(args.corpus), args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(_dump(payload))
    elif text:  # check-ganea on a catalog without spaces prints nothing
        print(text)
    return 0


def run() -> None:
    """The process entry point: `main`, then an exit as soon as its output
    is flushed, skipping the interpreter's teardown (module cleanup, a last
    collection, freeing every object), which costs a cold command more than
    importing the package does.  A flush that fails (a closed pipe, a
    full disk) leaves the exit to the interpreter, which reports the
    failure as it always has.  Library callers use `main`."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        raise SystemExit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
