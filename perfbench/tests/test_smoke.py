"""Quick checks of the benchmark's generators and answer checks, on small
inputs.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from catbound import algebra, catalog, cli, corpus, cup, dsl, solver  # noqa: E402

ONE_OF_EACH = {kind: 1 for kind in inputs.CATALOG_UNITS}


def _solve(text: str):
    return solver.propagate(catalog.link([dsl.parse(text)]))


@pytest.mark.parametrize(
    "case",
    [inputs.so_case(n) for n in (4, 5, 6, 8, 10)]
    + [inputs.exterior_case(k) for k in (1, 3, 5)]
    + [inputs.trunc_case(t) for t in (2, 7, 50)],
    ids=lambda c: c.name,
)
def test_closed_forms_match_the_program(case):
    iv = _solve(case.text).states[case.space].intervals
    assert (iv["cup"].lower, iv["sigmacat"].lower) == (case.cup, case.wgt)


def test_so_closed_form_matches_the_shipped_corpus():
    # SO(5), SO(7), SO(9) mod 2 from the corpus: cup-lengths 8, 11, 20.
    assert [inputs.so_cup(n) for n in (5, 7, 9)] == [8, 11, 20]


def test_generators_are_deterministic_and_rings_never_repeat():
    a = inputs.large_catalog(3, 0, ONE_OF_EACH)
    assert a == inputs.large_catalog(3, 0, ONE_OF_EACH)
    b = inputs.large_catalog(3, 1, ONE_OF_EACH)
    gens = lambda c: {w for t in c.files.values() for w in t.split() if w.startswith("z")}
    assert gens(a) and not gens(a) & gens(b)
    assert 1 <= a.distinct_rings <= a.rings
    assert inputs.ring_suite(5, run.load_reference("random_rings.json")) == inputs.ring_suite(
        5, run.load_reference("random_rings.json")
    )


def test_random_pool_matches_its_recorded_answers():
    answers = run.load_reference("random_rings.json")
    assert len(answers) == inputs.RANDOM_POOL
    for i in range(inputs.RANDOM_POOL):
        case = inputs.random_case(i, answers)
        if case.ngens <= 3:
            ring = dsl.ring_presentation(dsl.parse(case.text).declarations[0])
            assert cup.cup_bruteforce_oracle(ring) == case.cup


def test_reference_table_is_the_golden_file():
    ref = run.load_reference("cli.json")
    assert set(ref) == {" ".join(a) for a in inputs.CLI_MIX}
    golden = (ROOT / "tests" / "golden" / "table.txt").read_text(encoding="utf-8")
    assert ref["table"]["stdout"] == golden


def _small_catalog(tmp_path, index=0):
    case = inputs.large_catalog(7, index, ONE_OF_EACH)
    for name, text in case.files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    solution = solver.propagate(corpus.load_corpus(tmp_path))
    return case, solution, cli.render_table(solution), cli.solution_json(solution)


def test_small_catalog_gets_exactly_the_supported_intervals(tmp_path):
    case, solution, table, data = _small_catalog(tmp_path)
    assert run.check_catalog(case, solution, table, data) == []


def test_catalog_check_flags_weaker_and_refuses_tighter(tmp_path):
    case, solution, table, data = _small_catalog(tmp_path)
    open_name = next(n for n, (lo, hi) in case.cat.items() if lo < hi)
    lo, hi = case.cat[open_name]
    case.cat[open_name] = (lo, lo)  # the program's answer is now wider
    assert run.check_catalog(case, solution, table, data) == [open_name]
    case.cat[open_name] = (lo - 1, hi)  # and now tighter than supported
    with pytest.raises(run.Incorrect):
        run.check_catalog(case, solution, table, data)


def test_ring_verdicts_weaker_undecided_and_unsound_fail():
    case = inputs.so_case(6)
    bench = run.RingScaling.__new__(run.RingScaling)
    assert bench.execute(case).status == "ok"
    # An answer above what the program finds: the program's bound is weaker.
    above = inputs.RingCase(case.name, case.space, case.text, case.cup + 1, case.wgt, case.ngens)
    assert bench.execute(above).status == "undecided"
    # An answer below it: the program's bound would be unsound.
    below = inputs.RingCase(case.name, case.space, case.text, case.cup - 1, case.wgt, case.ngens)
    with pytest.raises(run.Incorrect):
        bench.execute(below)


def test_deadline_stops_a_case_that_runs_long(monkeypatch):
    monkeypatch.setattr(inputs, "DEADLINE_S", 0.05)
    bench = run.RingScaling.__new__(run.RingScaling)
    outcome = bench.execute(inputs.so_case(20))
    assert outcome.status == "undecided" and outcome.ms < 1000
    # A north-star case counts in ok_frac only, not in the latency tail.
    assert not outcome.timed and bench.execute(inputs.so_case(6)).timed


def test_exhausted_search_budget_is_undecided(monkeypatch):
    def exhausted(catalog):
        raise cup.SearchBudgetExceeded("budget")

    monkeypatch.setattr(solver, "propagate", exhausted)
    bench = run.RingScaling.__new__(run.RingScaling)
    outcome = bench.execute(inputs.so_case(6))
    assert (outcome.status, outcome.note) == ("undecided", "search budget exhausted")


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail([float(x) for x in range(1, 31)])
    assert value == 20.0 and pct == pytest.approx(100 * 19 / 29)


def test_tracer_counts_layers_and_restores_the_package():
    def bindings():
        return (solver.propagate, cup.multiply_monomials, algebra.normal_form,
                algebra.RingPresentation.__init__)

    original = bindings()
    t = tracer.Tracer()
    t.install()
    try:
        _solve(inputs.so_case(8).text)
    finally:
        t.uninstall()
    assert bindings() == original
    m = t.layer_metrics(1)
    assert m["cup.searches"] == 2 and m["algebra.rings_built"] == 2
    assert m["cup.nodes"] > 0 and m["algebra.normal_form_calls"] >= m["cup.nodes"]
    assert m["solver.propagate_ms"] >= m["solver.self_ms"] > 0


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "ring-scaling", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert not any(line.startswith("{") for line in capsys.readouterr().out.splitlines())


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert {m["name"] for m in spec["per_layer"]} == set(tracer.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
