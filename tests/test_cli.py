import json
import os
import subprocess
import sys
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


@pytest.mark.parametrize("budget", ["abc", "-5"])
def test_bad_search_budget_is_a_usage_error(capsys, budget):
    code, _, err = run(capsys, "cup", "SO5_mod2", "--max-search", budget)
    assert code == 2
    assert err.endswith(
        f"error: argument --max-search: expected an integer >= 0, got {budget}\n"
    )


def test_usage_errors_exit_two(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "cup")[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "cup", "X", "--format", "yaml")[0] == 2


@pytest.mark.parametrize(
    "argv, code",
    [
        (["ledger", "so5", "--max-search", "5"], 2),
        (["cup", "PU2_mod2", "--max-search", "-5"], 2),
        (["cup", "SO5_mod2", "--seed", "1"], 2),
        (["validate", "--format", "json"], 2),
        (["validate", "--corpus", "x"], 2),
        (["table", "--seed", "1", "--max-search", "100000"], 0),
        (["check-ganea", "--seed", "2"], 0),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_each_command_takes_exactly_its_options(capsys, argv, code):
    assert run(capsys, *argv)[0] == code


def test_missing_corpus_path_exits_one(capsys):
    code, _, err = run(capsys, "validate", "/no/such/path")
    assert code == 1
    assert "no such file" in err


@pytest.mark.parametrize("command", [["validate"], ["table", "--corpus"]])
def test_a_source_that_is_not_utf8_exits_one(tmp_path, capsys, command):
    bad = tmp_path / "bad.lsc"
    bad.write_bytes(b"space X { dim 3; } \xff\xfe\n")
    code, out, err = run(capsys, *command, str(bad))
    assert (code, out) == (1, "")
    assert err == f"error: cannot read {bad}: not UTF-8 text\n"


@pytest.mark.parametrize("command", [["validate"], ["table", "--corpus"]])
def test_a_directory_named_like_a_source_exits_one(tmp_path, capsys, command):
    (tmp_path / "ok.lsc").write_text("space X { dim 3; }\n")
    (tmp_path / "x.lsc").mkdir()
    code, out, err = run(capsys, *command, str(tmp_path))
    assert (code, out) == (1, "")
    # the reason is the operating system's (POSIX says "Is a directory")
    assert err.startswith(f"error: cannot read {tmp_path / 'x.lsc'}: ")


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


def test_a_ring_deeper_than_the_recursion_limit_is_searched(tmp_path, capsys):
    # one search level per generator: more levels than the interpreter's
    # default recursion limit of 1000
    gens = " ".join(f"gen x{i} : deg 1 exterior;" for i in range(1200))
    f = tmp_path / "wide.lsc"
    f.write_text(f"ring W over Z/2 {{ {gens} }}\nspace S {{ cohomology W over Z/2; }}\n")
    code, out, _ = run(capsys, "cup", "W", "--corpus", str(f))
    assert (code, out.splitlines()[0]) == (0, "cup(W) = 1200")
    code, out, _ = run(capsys, "table", "--corpus", str(f))
    assert code == 0
    assert "S  cat in [1200,inf]" in out.splitlines()


def test_bound_refuses_a_certificate_without_a_fiber_decomposition(tmp_path, capsys):
    # the fallback needs a finite cat bound for the fiber: a dim gives one
    for fiber, fallback, fallback_line in (
        (
            "space F { dim 3; }",
            31,
            "fallback: cat(X) <= (3+1)*(7+1)-1 = 31 from cat(F) <= 3 and cat(B) <= 7",
        ),
        (
            "space F { }",
            None,
            "fallback: unavailable (no finite cat bound for fiber and base)",
        ),
    ):
        f = tmp_path / "undecomposed.lsc"
        f.write_text(
            f"{fiber}\nspace B {{ dim 7; connectivity 6; }}\nspace X {{ }}\n"
            "bundle b { fiber F; base B; total X; structure-group trivial; "
            "cells-mod 7 0; compatibility trivial; }\n"
        )
        code, out, err = run(capsys, "bound", "b", "--corpus", str(f))
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "bundle b: F -> X -> B, cells-mod 7 0",
            "refused: fiber has no cone decomposition",
            fallback_line,
        ]
        code, out, _ = run(capsys, "bound", "b", "--corpus", str(f), "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert (
            data["passed"], data["rule"], data["reason"], data["bound"], data["fallback"]
        ) == (False, None, "fiber has no cone decomposition", None, fallback)
        assert run(capsys, "ledger", "b", "--corpus", str(f)) == (
            1,
            "",
            "error: bundle 'b': fiber has no cone decomposition\n",
        )


def test_ledger_refuses_a_huge_filtration_promptly(tmp_path, capsys):
    # 10^8 + 1 base stages times 2 fiber stages: the bound is one sum, but
    # the ledger would list 2 * 10^8 + 1 pieces.
    f = tmp_path / "huge.lsc"
    f.write_text(
        'space F { dim 3; connectivity 2; stage 1 dim 3 skeleton "S3"; }\n'
        "space B { dim 100000000; connectivity 0; }\nspace X { }\n"
        "bundle b { fiber F; base B; total X; structure-group F; "
        "cells-mod 1 0; compatibility skeletal; }\n"
    )
    code, out, _ = run(capsys, "bound", "b", "--corpus", str(f))
    assert (code, out.splitlines()[-1]) == (0, "Cat(X) <= 1 + 100000000//1 = 100000001")
    assert run(capsys, "ledger", "b", "--corpus", str(f)) == (
        1,
        "",
        "error: bundle 'b': the ledger has 200000001 pieces, "
        "more than the 100000 it lists\n",
    )


def test_validate_reports_a_link_error(tmp_path, capsys):
    f = tmp_path / "unlinked.lsc"
    f.write_text("space X { dim 3; cohomology Nope over Z/2; }\n")
    assert run(capsys, "validate", str(f)) == (
        1,
        "link error: space 'X' refers to undeclared ring 'Nope'\n",
        "",
    )


def test_a_ring_above_its_space_dim_is_an_error(tmp_path, capsys):
    # x^k != 0 for k < 10^30 claims classes up to degree 2 * (10^30 - 1)
    f = tmp_path / "toobig.lsc"
    f.write_text(
        f"ring R over Z/2 {{ gen x : deg 2 trunc {10**30}; }}\n"
        "space X { dim 3; cohomology R over Z/2; }\n"
    )
    message = f"space 'X': ring 'R' has top degree {2 * 10**30 - 2}, above the space dim 3"
    assert run(capsys, "validate", str(f)) == (1, f"link error: {message}\n", "")
    assert run(capsys, "table", "--corpus", str(f)) == (1, "", f"error: {message}\n")


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


# -- help texts ----------------------------------------------------------------

HELP_ARGVS = [["--help"]] + [
    [command, "--help"]
    for command in ("cup", "wgt", "bound", "ledger", "table", "check-ganea", "validate")
]


def test_every_help_text_matches_the_golden_file(monkeypatch, capsys):
    """catbound --help and each subcommand's --help at 80 columns, byte for
    byte; help.txt heads each text with the command that prints it."""
    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    for argv in HELP_ARGVS:
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        texts.append(f"$ catbound {' '.join(argv)}\n{out}")
    assert "".join(texts) == (GOLDEN / "help.txt").read_text(encoding="utf-8")


# -- import footprint ------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded(flags, statement, modules):
    """Which of modules a fresh interpreter started with flags has loaded
    after running statement."""
    code = f"import sys\n{statement}\nprint(sorted({set(modules)!r} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, *flags, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


@pytest.mark.parametrize("flags", [(), ("-X", "dev", "-W", "error")], ids=["plain", "dev"])
@pytest.mark.parametrize(
    "statement",
    ["import catbound, catbound.cli", "from catbound import cli; cli.main(['table'])"],
    ids=["import", "table"],
)
def test_import_footprint(flags, statement):
    """A fresh interpreter loads neither the dataclass machinery nor json,
    on import or through a text-format table."""
    assert loaded(flags, statement, {"dataclasses", "inspect", "json"}) == "[]"


def test_import_footprint_builds_no_namedtuple():
    """Each record's __new__ is compiled with its module: importing the
    package and its command line calls collections.namedtuple not once and
    compiles no source but its modules' (namedtuple's eval would)."""
    code = (
        "import collections, sys\n"
        "real, calls, compiled = collections.namedtuple, [], []\n"
        "def counted(*args, **kwargs):\n"
        "    calls.append(args[0])\n"
        "    return real(*args, **kwargs)\n"
        "collections.namedtuple = counted\n"
        "def hook(event, args):\n"
        "    if event == 'compile' and not str(args[1]).endswith('.py'):\n"
        "        compiled.append(args[1])\n"
        "sys.addaudithook(hook)\n"
        "import catbound, catbound.cli\n"
        "print(calls, compiled)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[] []"


def test_import_footprint_without_site():
    """site may preload typing and so hide it; without site, importing the
    package and its command line loads no typing and no argparse either,
    which only the parser needs."""
    modules = {"typing", "argparse", "dataclasses", "inspect", "json"}
    assert loaded(("-S",), "import catbound, catbound.cli", modules) == "[]"
