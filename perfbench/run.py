"""catbound's benchmark: one seeded workload per run, every answer checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ring-scaling --seed 1 --seconds 30 --trace 0

Workloads (each a closed loop: one client, one operation at a time):

* corpus-cli     cold `python -m catbound.cli` processes on the shipped corpus
* ring-scaling   one-ring catalogs through parse -> link -> propagate, with a
                 per-case deadline enforced by an interval timer
* large-catalog  generated catalogs of about 300 spaces through read -> parse
                 -> link -> propagate -> render_table / solution_json

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it runs
half its time untraced and then as many passes traced, and reports per-layer
metrics (see tracer.py).  The last line of stdout is one JSON object; the
lines before it print every metric by name with its unit.  A wrong answer
ends the run with `"correct": false` and exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import inputs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference"

WORKLOADS = ("corpus-cli", "ring-scaling", "large-catalog")
IMPORT_REPEATS = 21
TAIL_BEYOND = 10
MIN_SAMPLES = 2 * TAIL_BEYOND + 1
CHILD_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "tail_ms": "ms",
    "ok_frac": "fraction",
}


class Incorrect(Exception):
    """The program gave a wrong or unsound answer."""


class Deadline(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the program under test swallows it."""


def _on_alarm(signum, frame):
    raise Deadline()


@dataclass
class Outcome:
    key: str
    ms: float
    status: str  # ok | undecided | failed
    note: str = ""
    timed: bool = True  # counts towards the latency metrics


def count(outcomes: list[Outcome], status: str) -> int:
    return sum(o.status == status for o in outcomes)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def compile_package() -> None:
    """Write the package's bytecode, as an installed package would have it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "catbound")],
        cwd=ROOT, env=child_env(), check=True, timeout=CHILD_TIMEOUT_S,
        stdout=subprocess.DEVNULL,
    )


class ImportClock:
    """Times `import catbound, catbound.cli` in fresh interpreters.  The
    samples are spread over the whole run, between operations, so that their
    median sees the same machine as the other metrics."""

    CODE = (
        "import time\n"
        "t = time.perf_counter()\n"
        "import catbound, catbound.cli\n"
        "print(repr(time.perf_counter() - t))\n"
    )

    def __init__(self, seconds: float):
        self.env = child_env()
        self.interval = seconds / IMPORT_REPEATS
        self.samples: list[float] = []
        self.last = 0.0

    def sample(self) -> None:
        out = subprocess.run(
            [sys.executable, "-c", self.CODE], cwd=ROOT, env=self.env, check=True,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        self.samples.append(float(out.stdout))
        self.last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= self.interval:
            self.sample()

    def median(self) -> float:
        while len(self.samples) < IMPORT_REPEATS:
            self.sample()
        return statistics.median(self.samples)


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE / name).read_text(encoding="utf-8"))


# -- workloads ---------------------------------------------------------------
# A workload yields passes; a pass is a list of operations.  Runs always end
# on a pass boundary, so every run sees the same mix of operations.


class CorpusCli:
    def __init__(self, seed: int, in_process: bool):
        self.seed = seed
        self.in_process = in_process
        self.ref = load_reference("cli.json")
        self.env = child_env()

    def passes(self):
        r = 0
        while True:
            yield inputs.cli_round(self.seed, r)
            r += 1

    def execute(self, argv: tuple[str, ...]) -> Outcome:
        key = " ".join(argv)
        if self.in_process:
            from catbound import cli

            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            ms = (time.perf_counter() - t0) * 1000
            stdout = out.getvalue()
        else:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "catbound.cli", *argv], cwd=ROOT,
                env=self.env, capture_output=True, timeout=CHILD_TIMEOUT_S,
            )
            ms = (time.perf_counter() - t0) * 1000
            code, stdout = proc.returncode, proc.stdout.decode("utf-8")
        want = self.ref[key]
        if code != want["exit"] or stdout != want["stdout"]:
            raise Incorrect(f"`catbound {key}`: exit {code} or stdout differs from the reference")
        return Outcome(key, ms, "ok")


class RingScaling:
    def __init__(self, seed: int):
        from catbound import cup, dsl

        self.suite = inputs.ring_suite(seed, load_reference("random_rings.json"))
        # The oracle is an independent algorithm; it applies to small rings.
        for case in self.suite:
            if case.name.startswith("random") and case.ngens <= 3:
                ring = dsl.ring_presentation(dsl.parse(case.text).declarations[0])
                if cup.cup_bruteforce_oracle(ring) != case.cup:
                    raise Incorrect(f"{case.name}: recorded cup-length disagrees with the oracle")

    def passes(self):
        while True:
            yield self.suite

    def execute(self, case: inputs.RingCase) -> Outcome:
        """One verdict.  Latency is gated only on the cases the seed commit
        decides in time; the north-star cases count through ok_frac alone,
        so that neither their deadline nor their becoming solvable moves
        the latency tail."""
        from catbound import catalog, cup, dsl, solver

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        t0 = time.perf_counter()
        undecided = None
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, inputs.DEADLINE_S)
                doc = dsl.parse(case.text)
                solution = solver.propagate(catalog.link([doc]))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            undecided = "missed the deadline"
        except cup.SearchBudgetExceeded:
            undecided = "search budget exhausted"
        finally:
            signal.signal(signal.SIGALRM, previous)
        ms = (time.perf_counter() - t0) * 1000
        if undecided:
            return Outcome(case.name, ms, "undecided", undecided, timed=not case.hard)
        iv = solution.states[case.space].intervals
        cup, wgt = iv["cup"].lower, iv["sigmacat"].lower
        if cup > case.cup or wgt > case.wgt:
            raise Incorrect(
                f"{case.name}: unsound lower bounds cup {cup}, sigmacat {wgt} "
                f"(answers {case.cup}, {case.wgt})"
            )
        if cup < case.cup or wgt < case.wgt:
            return Outcome(case.name, ms, "undecided", "weaker than the answer", not case.hard)
        return Outcome(case.name, ms, "ok", timed=not case.hard)


class LargeCatalog:
    def __init__(self, seed: int):
        self.seed = seed
        self.dir = WORK / "catalog"
        self.sizes: list[tuple[int, int, int, int]] = []  # bytes, spaces, rings, distinct

    def passes(self):
        i = 0
        while True:
            yield [i]
            i += 1

    def execute(self, index: int) -> Outcome:
        from catbound import cli, corpus, solver

        case = inputs.large_catalog(self.seed, index)
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        for name, text in case.files.items():
            (self.dir / name).write_text(text, encoding="utf-8")
        self.sizes.append((case.size_bytes, len(case.cat), case.rings, case.distinct_rings))
        t0 = time.perf_counter()
        solution = solver.propagate(corpus.load_corpus(self.dir))
        table = cli.render_table(solution)
        data = cli.solution_json(solution)
        ms = (time.perf_counter() - t0) * 1000
        weaker = check_catalog(case, solution, table, data)
        key = f"catalog{index}"
        if weaker:
            return Outcome(key, ms, "undecided", "weaker: " + ", ".join(weaker[:3]))
        return Outcome(key, ms, "ok")


def check_catalog(case: inputs.CatalogInput, solution, table: str, data: dict) -> list[str]:
    """Names of spaces whose cat interval is sound but wider than the one the
    declarations support; raises Incorrect on anything tighter or on
    renderings that disagree with the solution."""
    lines = table.splitlines()
    start = lines.index("other catalogued spaces") + 2
    rendered = {}
    for line in lines[start:]:
        if not line.strip():
            break
        name, text = line.split(None, 1)
        rendered[name] = text.strip()
    if set(rendered) != set(case.cat) or set(data["spaces"]) != set(case.cat):
        raise Incorrect("rendered space list differs from the catalog")
    weaker = []
    for name, (lo, hi) in case.cat.items():
        iv = solution.states[name].intervals["cat"]
        got = (iv.lower, iv.upper)
        js = data["spaces"][name]["intervals"]["cat"]
        want_text = f"cat = {iv.lower}" if iv.determined else f"cat in {iv}"
        if (js["lower"], js["upper"]) != got or rendered[name] != want_text:
            raise Incorrect(f"{name}: table or JSON disagrees with the solution")
        if iv.lower > lo or (iv.upper is not None and iv.upper < hi):
            raise Incorrect(f"{name}: cat {iv} is tighter than the supported [{lo},{hi}]")
        if got != (lo, hi):
            weaker.append(name)
        if name in case.cup:
            cup = solution.states[name].intervals["cup"].lower
            if cup > case.cup[name]:
                raise Incorrect(f"{name}: cup lower bound {cup} exceeds {case.cup[name]}")
            if cup < case.cup[name] and name not in weaker:
                weaker.append(name)
    return weaker


# -- measurement -------------------------------------------------------------


def measure(workload, passes, seconds: float, outcomes: list[Outcome], clock: ImportClock,
            max_passes: int | None = None) -> int:
    """Run whole passes until `seconds` have elapsed (and at least
    MIN_SAMPLES operations ran), or exactly `max_passes` passes.  Each
    operation starts after a garbage collection, as in a fresh process."""
    t_end = time.perf_counter() + seconds
    n = 0
    start = len(outcomes)
    while True:
        for op in next(passes):
            gc.collect()
            t0 = time.perf_counter()
            try:
                outcomes.append(workload.execute(op))
            except Incorrect:
                raise
            except Exception as exc:  # the program failed this operation
                ms = (time.perf_counter() - t0) * 1000
                outcomes.append(Outcome(str(op)[:60], ms, "failed", type(exc).__name__))
            clock.maybe_sample()
        n += 1
        if max_passes is not None:
            if n >= max_passes:
                return n
        elif time.perf_counter() >= t_end and len(outcomes) - start >= MIN_SAMPLES:
            return n


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    the (TAIL_BEYOND + 1)-th largest sample, and its percentile rank."""
    s = sorted(samples)
    k = len(s) - TAIL_BEYOND - 1
    return s[k], 100.0 * k / (len(s) - 1)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def summarize(outcomes: list[Outcome]) -> dict[str, int]:
    by_status: dict[str, Counter] = {}
    for o in outcomes:
        if o.status != "ok":
            by_status.setdefault(f"{o.status} ({o.note})", Counter())[o.key] += 1
    for what, keys in sorted(by_status.items()):
        listed = ", ".join(f"{k} x{v}" for k, v in sorted(keys.items()))
        print(f"  {what}: {listed}")
    return {"attempted": len(outcomes), "failed": count(outcomes, "failed")}


def make_workload(name: str, seed: int, trace: bool):
    if name == "corpus-cli":
        return CorpusCli(seed, in_process=trace)
    if name == "ring-scaling":
        return RingScaling(seed)
    return LargeCatalog(seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "catbound" / "__init__.py").is_file():
        print(f"error: no catbound sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    compile_package()
    sys.path.insert(0, str(SRC))
    import catbound.cli  # noqa: F401  (loads every layer module)

    if Path(catbound.__file__).resolve().parent != (SRC / "catbound").resolve():
        print(f"error: imported catbound from {catbound.__file__}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  nproc {os.cpu_count()}")
    clock = ImportClock(args.seconds)
    clock.sample()
    outcomes: list[Outcome] = []
    correct = True
    metrics: dict[str, float] = {}
    units = END_TO_END
    try:
        workload = make_workload(args.workload, args.seed, bool(args.trace))
        passes = workload.passes()
        t0 = time.perf_counter()
        if not args.trace:
            measure(workload, passes, args.seconds, outcomes, clock)
            n, n_ok = len(outcomes), count(outcomes, "ok")
            samples = [o.ms for o in outcomes if o.timed]
            t_ms, t_pct = tail(samples)
            metrics = {
                "setup_s": clock.median(),
                "peak_rss_mb": peak_rss_mb(args.workload == "corpus-cli"),
                "tail_ms": t_ms,
                "ok_frac": n_ok / n,
            }
            print(f"  {n} operations in {time.perf_counter() - t0:.1f} s; "
                  f"tail_ms is p{t_pct:.1f}, the {TAIL_BEYOND + 1}th largest of "
                  f"{len(samples)} timed samples; setup_s is the median of "
                  f"{len(clock.samples)} fresh imports")
            # Reported, not in the JSON: on a shared machine these move with
            # the machine's speed more than the bounds allow (see README.md).
            print(f"  p50_ms {statistics.median(samples):.4f} ms, "
                  f"ops_per_s {len(samples) / (sum(samples) / 1000.0):.4f} 1/s, "
                  f"failed_frac (failed or undecided / attempted) "
                  f"{n - n_ok}/{n} = {1 - n_ok / n:.4f}")
        else:
            base: list[Outcome] = []
            n_passes = measure(workload, passes, args.seconds / 2, base, clock)
            t = tracer.Tracer()
            traced: list[Outcome] = []
            t.install()
            try:
                measure(workload, passes, 0, traced, clock, max_passes=n_passes)
            finally:
                t.uninstall()
            outcomes = base + traced
            metrics = t.layer_metrics(len(traced))
            done_base = [o.ms for o in base if o.status == "ok"]
            done_traced = [o.ms for o in traced if o.status == "ok"]
            metrics["trace.overhead_frac"] = (
                statistics.fmean(done_traced) / statistics.fmean(done_base) - 1.0
            )
            metrics["cli.import_ms"] = clock.median() * 1000.0
            metrics["src_lines"] = float(tracer.src_lines(SRC / "catbound"))
            units = tracer.PER_LAYER
            metrics = {k: metrics[k] for k in units}
            spans_path = WORK / f"spans-{args.workload}.tsv"
            t.write_spans(spans_path)
            print(f"  {len(base)} untraced then {len(traced)} traced "
                  f"operations ({n_passes} passes each); {len(t.spans)} spans in {spans_path}")
        if isinstance(workload, LargeCatalog):
            b, s, r, d = (statistics.median(x) for x in zip(*workload.sizes))
            print(f"  input size per catalog (median): {b / 1024:.1f} KB, "
                  f"{s:.0f} spaces, {r:.0f} rings of which {d:.0f} distinct "
                  f"other than by generator names")
    except Incorrect as exc:
        correct = False
        print(f"WRONG ANSWER: {exc}")
    counts = summarize(outcomes)
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.4f} {units[name]}")
    result = {
        "correct": correct,
        "attempted": max(counts["attempted"], 1),
        "failed": counts["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
