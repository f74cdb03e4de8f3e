import json
from pathlib import Path

import pytest

from catbound.cli import main
from catbound.corpus import load_corpus

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- happy paths ---------------------------------------------------------------


def test_cup_text(capsys):
    code, out, err = run(capsys, "cup", "SO5_mod2")
    assert code == 0 and err == ""
    assert out == "cup(SO5_mod2) = 8\nwitness: x1^7 x3\n"


def test_cup_accepts_a_space_name(capsys):
    code, out, _ = run(capsys, "cup", "SO(5)", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "cup": 8,
        "name": "SO(5)",
        "ring": "SO5_mod2",
        "witness": "x1^7 x3",
    }


def test_wgt_text(capsys):
    code, out, _ = run(capsys, "wgt", "PU(3)")
    assert code == 0
    assert out == (
        "wgt(PU(3)) >= 6\n"
        "weights: x1=1 x2=2 x3=1\n"
        "witness: x1 x2^2 x3\n"
    )


def test_bound_certified(capsys):
    code, out, _ = run(capsys, "bound", "sp2-d3")
    assert code == 0
    assert out.splitlines() == [
        "bundle sp2-d3: Sp(1) -> Sp(2) -> S7, cells-mod 3 1",
        "certificate: verified (the 7-cell of the base meets the stage "
        "filtration compatibly)",
        "Cat(Sp(2)) <= 1 + 7//3 = 3",
    ]


def test_bound_refusal_reports_the_fallback(capsys):
    code, out, _ = run(capsys, "bound", "sp2-d4")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "refused: no compatibility certificate recorded"
    assert lines[2] == (
        "fallback: cat(Sp(2)) <= (1+1)*(1+1)-1 = 3 "
        "from cat(Sp(1)) <= 1 and cat(S7) <= 1"
    )


def test_ledger_text(capsys):
    code, out, _ = run(capsys, "ledger", "so5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "filtration ledger: bundle so5 (Sp(1) -> SO(5) -> RP7, d=1 s=0)"
    assert lines[1] == "stage 1: (0,1) dim 3, (1,0) dim 1"
    assert lines[-2] == "stage 8: (7,1) dim 10"
    assert lines[-1] == "stages: 8, so Cat(SO(5)) <= 8"


def test_ledger_json(capsys):
    code, out, _ = run(capsys, "ledger", "so5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert (data["n"], data["m"], data["bound"]) == (7, 1, 8)
    assert len(data["stages"]) == 8
    assert data["stages"][-1]["pieces"] == [{"dim": 10, "i": 7, "j": 1}]


def test_table_matches_the_golden_file(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    assert out == (GOLDEN / "table.txt").read_text()


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["contradictions"] == []
    so5 = data["spaces"]["SO(5)"]
    assert so5["intervals"]["cat"] == {"lower": 8, "upper": 8, "determined": True}
    assert so5["ganea"] == "holds"
    pu3 = data["spaces"]["PU(3)"]
    assert pu3["intervals"]["cup"] == {"lower": 4, "upper": 6, "determined": False}
    assert pu3["ganea_rule"] == "sigmacat-equality"
    # every interval, Ganea verdict and provenance entry, byte for byte
    assert out == (GOLDEN / "table.json").read_text()


def bundle_transcript(capsys) -> str:
    """`bound` and `ledger`, text and JSON, on every shipped bundle: each
    command's line, exit code, stdout and stderr."""
    parts = []
    for name in sorted(load_corpus().bundles):
        for command in ("bound", "ledger"):
            for fmt in ("text", "json"):
                code, out, err = run(capsys, command, name, "--format", fmt)
                parts.append(f"$ catbound {command} {name} --format {fmt}\n")
                parts.append(f"exit {code}\n{out}")
                if err:
                    parts.append(f"stderr: {err}")
    return "".join(parts)


def test_bundle_commands_match_the_golden_file(capsys):
    assert bundle_transcript(capsys) == (GOLDEN / "bundles.txt").read_text()


def test_check_ganea(capsys):
    assert run(capsys, "check-ganea", "Sp(2)") == (
        0,
        "Sp(2): holds (cup-equality)\n",
        "",
    )
    assert run(capsys, "check-ganea", "PU(4)")[1] == (
        "PU(4): holds (sigmacat-equality)\n"
    )
    assert run(capsys, "check-ganea", "RP7")[1] == "RP7: unknown\n"


def test_check_ganea_reports_every_space_by_default(capsys):
    code, out, _ = run(capsys, "check-ganea")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 37
    assert "Sp(2): holds (cup-equality)" in lines


def test_validate_shipped_corpus(capsys):
    code, out, _ = run(capsys, "validate")
    assert code == 0
    assert out == "ok: 16 rings, 37 spaces, 12 bundles, 31 facts, 1 products\n"


# -- determinism ----------------------------------------------------------------


def test_output_does_not_depend_on_the_seed(capsys):
    outputs = set()
    for seed in ("0", "7", "123456"):
        code, out, _ = run(capsys, "table", "--seed", seed, "--format", "json")
        assert code == 0
        outputs.add(out)
    code, out, _ = run(capsys, "table", "--format", "json")
    outputs.add(out)
    assert len(outputs) == 1


def test_repeated_runs_are_identical(capsys):
    a = run(capsys, "check-ganea", "--format", "json")
    b = run(capsys, "check-ganea", "--format", "json")
    assert a == b


# -- failure modes ----------------------------------------------------------------


def test_unknown_names_exit_one(capsys):
    for argv in (
        ["cup", "Nope"],
        ["wgt", "Nope"],
        ["bound", "Nope"],
        ["ledger", "Nope"],
        ["check-ganea", "Nope"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: ")


def test_ledger_of_an_uncertified_bundle_is_an_error(capsys):
    code, _, err = run(capsys, "ledger", "sp2-d4")
    assert code == 1
    assert "no compatibility certificate" in err


def test_cup_on_a_space_without_a_presentation(capsys):
    code, _, err = run(capsys, "cup", "RP7")
    assert code == 1
    assert "no cohomology presentation" in err


def test_tiny_search_budget_is_a_clean_error(capsys):
    code, _, err = run(capsys, "cup", "SO5_mod2", "--max-search", "1")
    assert code == 1
    assert "raise the budget" in err


def test_usage_errors_exit_two(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "cup")[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "cup", "X", "--format", "yaml")[0] == 2


def test_missing_corpus_path_exits_one(capsys):
    code, _, err = run(capsys, "validate", "/no/such/path")
    assert code == 1
    assert "no such file" in err


# -- alternate corpora --------------------------------------------------------------


def test_corpus_flag_points_at_other_documents(tmp_path, capsys):
    f = tmp_path / "mine.lsc"
    f.write_text(
        """
        ring R over Z/2 { gen x : deg 1 trunc 4; }
        space X { dim 3; cohomology R over Z/2 complete; }
        """
    )
    code, out, _ = run(capsys, "cup", "X", "--corpus", str(f))
    assert code == 0
    assert out == "cup(X) = 3\nwitness: x^3\n"
    code, out, _ = run(capsys, "table", "--corpus", str(f))
    assert code == 0
    # the cup lower bound chains up to meet the dimension bound
    assert "X  cat = 3" in out


def test_validate_reports_diagnostics_with_positions(tmp_path, capsys):
    f = tmp_path / "bad.lsc"
    f.write_text("ring R over Z/4 { gen x : deg 1 trunc 2; }\n")
    code, out, err = run(capsys, "validate", str(f))
    assert code == 1
    combined = out + err
    assert "bad.lsc:1:" in combined
    assert "prime" in combined


def test_validate_decides_large_moduli_promptly(tmp_path, capsys):
    # both need a primality test faster than trial division to the square root
    prime = tmp_path / "bigp.lsc"
    prime.write_text("ring R over Z/100000000000000003 { gen x : deg 1 trunc 2; }\n")
    assert run(capsys, "validate", str(prime)) == (
        0,
        "ok: 1 rings, 0 spaces, 0 bundles, 0 facts, 0 products\n",
        "",
    )
    semi = tmp_path / "semi.lsc"
    semi.write_text("ring R over Z/1000000016000000063 { gen x : deg 1 trunc 2; }\n")
    code, out, err = run(capsys, "validate", str(semi))
    assert code == 1
    assert (
        "semi.lsc:1:1: ring 'R': modulus must be a prime >= 2 "
        "(got 1000000016000000063)"
    ) in out + err
    assert "Traceback" not in out + err


def test_validate_reports_a_modulus_too_large_to_decide(tmp_path, capsys):
    f = tmp_path / "huge.lsc"
    f.write_text(f"ring R over Z/{2**64} {{ gen x : deg 1 trunc 2; }}\n")
    code, out, err = run(capsys, "validate", str(f))
    assert code == 1
    assert (
        "huge.lsc:1:1: ring 'R': modulus is too large "
        "(65 bits; primes below 2^64 are supported)"
    ) in out + err
    assert "Traceback" not in out + err


def test_composite_modulus_text_is_unchanged(tmp_path, capsys):
    f = tmp_path / "smallp.lsc"
    f.write_text("# composite\nring Q over Z/1000001 { gen x : deg 1 trunc 2; }\n")
    code, out, err = run(capsys, "validate", str(f))
    assert code == 1
    assert (
        "smallp.lsc:2:1: ring 'Q': modulus must be a prime >= 2 (got 1000001)"
    ) in out + err


def test_validate_rejects_a_generator_that_is_never_nilpotent(tmp_path, capsys):
    f = tmp_path / "poly.lsc"
    f.write_text("ring R over Z/2 { gen x : deg 2; }\n")
    code, out, err = run(capsys, "validate", str(f))
    assert code == 1
    assert (
        "poly.lsc:1:1: ring 'R': generator 'x' has neither a truncation "
        "nor a relation; "
    ) in out + err
    assert "Traceback" not in out + err


@pytest.mark.parametrize(
    "text, diagnostic",
    [
        (
            "ring W over Z/2 {\n  gen x : deg 2 trunc 3 weight 2 weight 1;\n}\n",
            "2:34: generator 'x': repeated weight",
        ),
        (
            "space F { dim 3; }\nspace B { dim 7; }\nspace T { dim 10; }\n"
            "bundle b { fiber F; base B; total T; structure-group F; cells-mod 1 0;\n"
            "  compatibility none; compatibility skeletal; }\n",
            "5:23: bundle 'b': repeated compatibility",
        ),
    ],
    ids=["weight", "compatibility-after-none"],
)
def test_validate_rejects_a_repeated_single_valued_statement(
    tmp_path, capsys, text, diagnostic
):
    f = tmp_path / "r.lsc"
    f.write_text(text)
    assert run(capsys, "validate", str(f)) == (1, f"r.lsc:{diagnostic}\n", "")


def test_validate_places_a_blank_verified_reason_at_its_kind(tmp_path, capsys):
    f = tmp_path / "ver.lsc"
    f.write_text(
        'space F { dim 3; stage 1 dim 3 "top"; }\n'
        "space B { dim 4; connectivity 3; }\n"
        "space T { dim 7; }\n"
        "bundle b { fiber F; base B; total T; structure-group trivial; "
        'cells-mod 4 0; compatibility verified "  "; }\n'
    )
    code, out, err = run(capsys, "validate", str(f))
    assert code == 1
    assert out.endswith(
        "ver.lsc:4:92: a verified certificate needs a nonempty reason\n"
    )
    assert err == ""


def test_validate_reports_a_non_decimal_digit_without_a_traceback(tmp_path, capsys):
    f = tmp_path / "sup.lsc"
    f.write_text("space A { dim \u00b2; }\n", encoding="utf-8")
    code, out, err = run(capsys, "validate", str(f))
    assert code == 1
    combined = out + err
    assert "sup.lsc:1:15: unexpected character '\u00b2'" in combined
    assert "Traceback" not in combined
