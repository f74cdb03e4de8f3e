"""Command line front end.

Exit codes: 0 on success, 1 on a domain error (unknown names, broken
documents, refused bounds where an answer was required), 2 on usage errors.
Output is deterministic: JSON is emitted with sorted keys, text tables are
built from sorted iterations, and the solver's fixpoint does not depend on
the rule order a seed picks.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import AlgebraError
from .catalog import Catalog, LinkError, link
from .cones import (
    BoundRefused,
    ConeError,
    check_compatibility,
    filtration_ledger,
    general_bundle_bound,
    main_theorem_bound,
)
from .corpus import CorpusError, load_corpus, parse_sources, read_sources
from .cup import SearchBudgetExceeded, WeightAssignment, cup_length, weighted_wgt_lower
from .solver import Solution, ganea_check, propagate


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


def grid_space_names() -> set[str]:
    names = set(_EXCEPTIONAL)
    for _, cells in _GRID_ROWS:
        names.update(cells.values())
    return names


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
        ["exceptional"]
        + [f"{name}={table_cell(solution, name)}" for name in _EXCEPTIONAL[:4]]
        + [f"E8={table_cell(solution, 'E8')}"]
    )
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    lines = ["cat of compact simple Lie groups", "================================", ""]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())

    aux = sorted(set(solution.states) - grid_space_names())
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


def solution_json(solution: Solution) -> dict:
    def prov(p):
        return {
            "invariant": p.invariant,
            "side": p.side,
            "value": p.value,
            "rule": p.rule,
            "detail": p.detail,
        }

    spaces = {}
    for name in sorted(solution.states):
        state = solution.states[name]
        result = ganea_check(solution, name)
        spaces[name] = {
            "intervals": {
                inv: {"lower": iv.lower, "upper": iv.upper, "determined": iv.determined}
                for inv, iv in state.intervals.items()
            },
            "ganea": result.status,
            "ganea_rule": result.rule,
            "provenance": [prov(p) for p in solution.provenance[name]],
        }
    return {
        "spaces": spaces,
        "contradictions": [
            {
                "space": c.space,
                "invariant": c.invariant,
                "lower": prov(c.lower),
                "upper": prov(c.upper),
            }
            for c in solution.contradictions
        ],
    }


# -- subcommands -------------------------------------------------------------


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


def cmd_cup(args) -> int:
    catalog = load_corpus(args.corpus)
    ring, _ = _resolve_ring(catalog, args.name)
    result = cup_length(ring, max_nodes=args.max_search)
    if args.format == "json":
        print(
            _dump(
                {
                    "name": args.name,
                    "ring": ring.name,
                    "cup": result.value,
                    "witness": result.witness_str(ring),
                }
            )
        )
    else:
        print(f"cup({args.name}) = {result.value}")
        print(f"witness: {result.witness_str(ring)}")
    return 0


def cmd_wgt(args) -> int:
    catalog = load_corpus(args.corpus)
    ring, loopspace_even = _resolve_ring(catalog, args.name)
    weights = WeightAssignment.for_space(ring, loopspace_even)
    result = weighted_wgt_lower(ring, weights, max_nodes=args.max_search)
    pairs = list(zip((g.name for g in ring.generators), weights.weights))
    if args.format == "json":
        print(
            _dump(
                {
                    "name": args.name,
                    "ring": ring.name,
                    "wgt_lower": result.value,
                    "weights": dict(pairs),
                    "witness": result.witness_str(ring),
                }
            )
        )
    else:
        print(f"wgt({args.name}) >= {result.value}")
        print("weights: " + " ".join(f"{n}={w}" for n, w in pairs))
        print(f"witness: {result.witness_str(ring)}")
    return 0


def _bundle(catalog: Catalog, name: str):
    bundle = catalog.bundles.get(name)
    if bundle is None:
        raise CliError(f"no bundle named {name!r}")
    return bundle


def cmd_bound(args) -> int:
    catalog = load_corpus(args.corpus)
    bundle = _bundle(catalog, args.name)
    verdict = check_compatibility(bundle)
    head = (
        f"bundle {bundle.name}: {bundle.fiber} -> {bundle.total} -> "
        f"{bundle.base}, cells-mod {bundle.d} {bundle.s}"
    )
    bound = None
    fallback = None
    try:
        bound = main_theorem_bound(bundle)
    except BoundRefused:
        solution = propagate(catalog, max_search=args.max_search)
        f = solution.states[bundle.fiber].intervals["cat"].upper
        b = solution.states[bundle.base].intervals["cat"].upper
        if f is not None and b is not None:
            fallback = (f, b, general_bundle_bound(f, b))
    if args.format == "json":
        payload = {
            "bundle": bundle.name,
            "fiber": bundle.fiber,
            "base": bundle.base,
            "total": bundle.total,
            "d": bundle.d,
            "s": bundle.s,
            "certificate": bundle.certificate.kind,
            "passed": verdict.passed,
            "rule": verdict.rule,
            "reason": verdict.reason,
            "bound": bound,
            "fallback": None if fallback is None else fallback[2],
        }
        print(_dump(payload))
        return 0
    print(head)
    if bound is not None:
        m = bundle.fiber_decomposition.length
        print(f"certificate: {verdict.rule} ({verdict.reason})")
        print(
            f"Cat({bundle.total}) <= {m} + {bundle.base_dim}//{bundle.d} = {bound}"
        )
    else:
        print(f"refused: {verdict.reason}")
        if fallback is not None:
            f, b, value = fallback
            print(
                f"fallback: cat({bundle.total}) <= ({f}+1)*({b}+1)-1 = {value} "
                f"from cat({bundle.fiber}) <= {f} and cat({bundle.base}) <= {b}"
            )
        else:
            print("fallback: unavailable (no finite cat bound for fiber and base)")
    return 0


def cmd_ledger(args) -> int:
    catalog = load_corpus(args.corpus)
    bundle = _bundle(catalog, args.name)
    ledger = filtration_ledger(bundle)
    if args.format == "json":
        payload = {
            "bundle": ledger.bundle,
            "n": ledger.n,
            "m": ledger.m,
            "bound": ledger.total_bound,
            "stages": [
                {
                    "stage": st.k,
                    "pieces": [
                        {"i": i, "j": j, "dim": dim}
                        for (i, j), dim in zip(st.pieces, st.dims)
                    ],
                }
                for st in ledger.stages
            ],
        }
        print(_dump(payload))
        return 0
    print(
        f"filtration ledger: bundle {bundle.name} "
        f"({bundle.fiber} -> {bundle.total} -> {bundle.base}, "
        f"d={bundle.d} s={bundle.s})"
    )
    for st in ledger.stages:
        pieces = ", ".join(
            f"({i},{j}) dim {dim}" for (i, j), dim in zip(st.pieces, st.dims)
        )
        print(f"stage {st.k}: {pieces}")
    print(
        f"stages: {ledger.total_bound}, "
        f"so Cat({bundle.total}) <= {ledger.total_bound}"
    )
    return 0


def cmd_table(args) -> int:
    catalog = load_corpus(args.corpus)
    solution = propagate(catalog, rule_seed=args.seed, max_search=args.max_search)
    if args.format == "json":
        print(_dump(solution_json(solution)))
    else:
        print(render_table(solution))
    return 0


def cmd_check_ganea(args) -> int:
    catalog = load_corpus(args.corpus)
    solution = propagate(catalog, rule_seed=args.seed, max_search=args.max_search)
    if args.space is not None:
        if args.space not in solution.states:
            raise CliError(f"no space named {args.space!r}")
        names = [args.space]
    else:
        names = sorted(solution.states)
    results = [ganea_check(solution, name) for name in names]
    if args.format == "json":
        print(
            _dump(
                {
                    "spaces": {
                        r.space: {"status": r.status, "rule": r.rule} for r in results
                    }
                }
            )
        )
    else:
        for r in results:
            suffix = f" ({r.rule})" if r.rule else ""
            print(f"{r.space}: {r.status}{suffix}")
    return 0


def cmd_validate(args) -> int:
    sources = []
    if args.paths:
        for path in args.paths:
            sources.extend(read_sources(path))
    else:
        sources = read_sources(None)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catbound",
        description="category bounds for symbolically presented spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, seed=False, search=False):
        p.add_argument(
            "--corpus",
            default=None,
            help="directory or .lsc file to load (default: shipped corpus)",
        )
        p.add_argument("--format", choices=("text", "json"), default="text")
        if search:
            p.add_argument(
                "--max-search",
                type=int,
                default=None,
                help="node budget for cup-length searches",
            )
        if seed:
            p.add_argument(
                "--seed",
                type=int,
                default=None,
                help="shuffle the solver rule order (the result is identical)",
            )

    p = sub.add_parser("cup", help="cup-length of a presented ring")
    p.add_argument("name", help="ring name, or space name with a presentation")
    common(p, search=True)
    p.set_defaults(func=cmd_cup)

    p = sub.add_parser("wgt", help="weighted cup-length lower bound")
    p.add_argument("name", help="ring name, or space name with a presentation")
    common(p, search=True)
    p.set_defaults(func=cmd_wgt)

    p = sub.add_parser("bound", help="stagewise upper bound for a bundle")
    p.add_argument("name", help="bundle name")
    common(p, search=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("ledger", help="stage-by-stage filtration of a bundle bound")
    p.add_argument("name", help="bundle name")
    common(p)
    p.set_defaults(func=cmd_ledger)

    p = sub.add_parser("table", help="solve the catalog and print the table")
    common(p, seed=True, search=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("check-ganea", help="report which spaces satisfy the check")
    p.add_argument("space", nargs="?", default=None)
    common(p, seed=True, search=True)
    p.set_defaults(func=cmd_check_ganea)

    p = sub.add_parser("validate", help="parse and link documents, report problems")
    p.add_argument("paths", nargs="*", help="files or directories (default: shipped)")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed the message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
