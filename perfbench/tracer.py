"""Per-layer tracing of catbound from outside the package.

The tracer replaces public functions at the module attributes their callers
resolve (for example `cup` imports `multiply_monomials` and
`nilpotency_order` by name, `cli` imports `load_corpus` by name), so nothing
inside `src/catbound` changes.  Layer boundaries record spans (name, start,
end, parent) kept in memory; hot inner functions only bump counters.  Self
times are derived from the spans after the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from pathlib import Path

#: (module, attribute) -> span name.  Every binding of the same function
#: object in any catbound module is wrapped.
SPANS = {
    ("corpus", "read_sources"): "corpus.read",
    ("dsl", "parse"): "dsl.parse",
    ("catalog", "link"): "catalog.link",
    ("cup", "cup_length"): "cup.search",
    ("cup", "weighted_wgt_lower"): "cup.search",
    ("algebra", "nilpotency_order"): "algebra.nilpotency_order",
    ("cones", "main_theorem_bound"): "cones.certify",
    ("cones", "check_compatibility"): "cones.certify",
    ("solver", "propagate"): "solver.propagate",
    ("cli", "render_table"): "cli.render",
    ("cli", "solution_json"): "cli.render",
}

#: Per-layer metrics of a traced run and their units.  Times and counts are
#: per operation of the workload.
PER_LAYER = {
    "corpus.read_ms": "ms",
    "dsl.parse_ms": "ms",
    "dsl.parse_kb_per_s": "KB/s",
    "catalog.link_ms": "ms",
    "algebra.rings_built": "count",
    "cup.searches": "count",
    "cup.search_ms": "ms",
    "cup.nodes": "count",
    "cup.nonzero_frac": "fraction",
    "cup.budget_exhausted": "count",
    "algebra.normal_form_calls": "count",
    "algebra.nilpotency_order_calls": "count",
    "algebra.nilpotency_order_ms": "ms",
    "cones.certify_calls": "count",
    "cones.ms": "ms",
    "solver.propagate_ms": "ms",
    "solver.self_ms": "ms",
    "cli.render_ms": "ms",
    "cli.import_ms": "ms",
    "trace.overhead_frac": "fraction",
    "src_lines": "lines",
}


def _modules() -> dict:
    return {
        name[len("catbound."):]: mod
        for name, mod in sys.modules.items()
        if name.startswith("catbound.") and mod is not None
    }


class Tracer:
    """Install with `install()`, run the operations, then `uninstall()`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _wrap(self, module: str, attr: str, fn):
        spanned = self._span(SPANS[(module, attr)], fn)
        counts = self.counts
        if (module, attr) == ("dsl", "parse"):
            @functools.wraps(fn)
            def parse(text, *args, **kwargs):
                counts["parse_bytes"] += len(text.encode("utf-8"))
                return spanned(text, *args, **kwargs)

            return parse
        if module == "cup":
            budget = sys.modules["catbound.cup"].SearchBudgetExceeded

            @functools.wraps(fn)
            def search(*args, **kwargs):
                try:
                    return spanned(*args, **kwargs)
                except budget:
                    counts["budget_exhausted"] += 1
                    raise

            return search
        return spanned

    def _patch(self, obj, attr: str, new) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self) -> None:
        mods = _modules()
        counts = self.counts
        for (module, attr) in SPANS:
            fn = getattr(mods[module], attr)
            wrapper = self._wrap(module, attr, fn)
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, name, wrapper)

        normal_form = mods["algebra"].normal_form

        def counted_normal_form(*args, **kwargs):
            counts["normal_form"] += 1
            return normal_form(*args, **kwargs)

        for mod in mods.values():
            for name, value in list(vars(mod).items()):
                if value is normal_form:
                    self._patch(mod, name, counted_normal_form)

        # Only the search's own binding: the nodes it expands.
        multiply = mods["cup"].multiply_monomials

        def node(*args, **kwargs):
            product = multiply(*args, **kwargs)
            counts["nodes"] += 1
            if not product.is_zero():
                counts["nonzero"] += 1
            return product

        self._patch(mods["cup"], "multiply_monomials", node)

        ring_cls = mods["algebra"].RingPresentation
        init = ring_cls.__init__

        def counted_init(*args, **kwargs):
            counts["rings_built"] += 1
            init(*args, **kwargs)

        self._patch(ring_cls, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-operation layer totals over `ops` traced operations; self
        time is a span's duration minus that of its direct children."""
        total: Counter = Counter()
        self_time: Counter = Counter()
        calls: Counter = Counter()
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        cones_top = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            total[name] += dur
            self_time[name] += dur - children[i]
            calls[name] += 1
            if name == "cones.certify" and (parent < 0 or self.spans[parent][0] != name):
                cones_top += dur
        c = self.counts
        n = max(ops, 1)

        def ms(seconds: float) -> float:
            return seconds * 1000.0 / n

        parse_s = total["dsl.parse"]
        return {
            "corpus.read_ms": ms(total["corpus.read"]),
            "dsl.parse_ms": ms(parse_s),
            "dsl.parse_kb_per_s": c["parse_bytes"] / 1024.0 / parse_s if parse_s else 0.0,
            "catalog.link_ms": ms(total["catalog.link"]),
            "algebra.rings_built": c["rings_built"] / n,
            "cup.searches": calls["cup.search"] / n,
            "cup.search_ms": ms(self_time["cup.search"]),
            "cup.nodes": c["nodes"] / n,
            "cup.nonzero_frac": c["nonzero"] / c["nodes"] if c["nodes"] else 0.0,
            "cup.budget_exhausted": c["budget_exhausted"] / n,
            "algebra.normal_form_calls": c["normal_form"] / n,
            "algebra.nilpotency_order_calls": calls["algebra.nilpotency_order"] / n,
            "algebra.nilpotency_order_ms": ms(total["algebra.nilpotency_order"]),
            "cones.certify_calls": calls["cones.certify"] / n,
            "cones.ms": ms(cones_top),
            "solver.propagate_ms": ms(total["solver.propagate"]),
            "solver.self_ms": ms(self_time["solver.propagate"]),
            "cli.render_ms": ms(total["cli.render"]),
        }

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def src_lines(src: Path) -> int:
    """Non-blank lines of Python under the package directory."""
    return sum(
        1
        for path in sorted(src.rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )
