"""Record the answers the benchmark checks against, from the current tree.

Run once, from the root of a checkout, at the commit whose answers are the
reference:

    python3 perfbench/record_reference.py

It writes `reference/cli.json` (exit code and stdout of every command of the
corpus-cli mix, run as a subprocess) and `reference/random_rings.json` (the
cup-length and weighted lower bound of every random pool presentation, as
`propagate` derives them, cross-checked with the brute-force oracle on rings
of at most three generators).  The `table` stdout must equal
`tests/golden/table.txt`.
"""

from __future__ import annotations

import json
import subprocess
import sys

import inputs
from run import REFERENCE, ROOT, SRC, child_env


def record_cli() -> dict:
    out = {}
    for argv in inputs.CLI_MIX:
        proc = subprocess.run(
            [sys.executable, "-m", "catbound.cli", *argv], cwd=ROOT,
            env=child_env(), capture_output=True, check=False, timeout=60,
        )
        out[" ".join(argv)] = {"exit": proc.returncode, "stdout": proc.stdout.decode("utf-8")}
    golden = (ROOT / "tests" / "golden" / "table.txt").read_text(encoding="utf-8")
    if out["table"]["stdout"] != golden:
        raise SystemExit("table output differs from tests/golden/table.txt")
    return out


def record_random() -> dict:
    sys.path.insert(0, str(SRC))
    from catbound import catalog, cup, dsl, solver

    out = {}
    for i in range(inputs.RANDOM_POOL):
        text, ngens = inputs.random_text(i)
        doc = dsl.parse(text)
        iv = solver.propagate(catalog.link([doc])).states[f"Rand{i}"].intervals
        answer = iv["cup"].lower
        if ngens <= 3:
            oracle = cup.cup_bruteforce_oracle(dsl.ring_presentation(doc.declarations[0]))
            if oracle != answer:
                raise SystemExit(f"pool entry {i}: search {answer} != oracle {oracle}")
        out[str(i)] = {
            "digest": inputs.text_digest(text),
            "cup": answer,
            "wgt": iv["sigmacat"].lower,
        }
    return out


def main() -> None:
    REFERENCE.mkdir(exist_ok=True)
    for name, data in (("cli.json", record_cli()), ("random_rings.json", record_random())):
        (REFERENCE / name).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")


if __name__ == "__main__":
    main()
