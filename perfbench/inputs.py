"""Seeded inputs for the benchmark's workloads, each with the answer the
program must give.

Everything here is a pure function of its arguments: the same seed gives the
same `.lsc` text.  The program under test only ever sees that text (or argv).

Answers come from closed forms where one exists:

* SO(n) mod 2, presented on the odd generators x_i (i < n) with
  x_i^{t_i} = 0, t_i the least power of two with i * t_i >= n: cup-length
  sum(t_i - 1).
* an exterior algebra on k generators: cup-length k.
* one generator truncated at t: cup-length t - 1.

Random presentations with substitutions have no closed form; their answers
were recorded once at the commit that introduced the benchmark
(`reference/random_rings.json`) and are cross-checked against the package's
brute-force oracle where it applies.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# ring-scaling

#: Per-case deadline, enforced from outside the program.  At the seed commit
#: every solved case finishes in under a fifth of it and every missed case
#: would need more than four times it, so the set of missed cases repeats.
DEADLINE_S = 1.0

#: The north-star suite.  The *_HARD cases miss the deadline at the seed
#: commit; they stay so that the known defects show.
SO_CASES, SO_HARD = (4, 6, 8, 10, 12, 14), (20, 24, 48)
EXTERIOR_CASES, EXTERIOR_HARD = (2, 4, 6, 8, 10, 12), (18, 22)
TRUNC_CASES, TRUNC_HARD = (10, 100, 1000, 3000, 10000), (300_000, 3_000_000)
HARD = {
    *(f"SO({n})" for n in SO_HARD),
    *(f"E{k}" for k in EXTERIOR_HARD),
    *(f"trunc{t}" for t in TRUNC_HARD),
}

#: Random presentations: a fixed pool whose answers are recorded.  Every pass
#: runs the whole pool, so the seed changes only the order, and the mix of
#: cheap and costly cases is the same on every seed.
RANDOM_POOL = 64


@dataclass(frozen=True)
class RingCase:
    """One ring-scaling operation: a one-ring catalog and the lower bounds
    that `propagate` must derive for its single space."""

    name: str
    space: str
    text: str
    cup: int
    wgt: int
    ngens: int

    @property
    def hard(self) -> bool:
        """Missed the deadline at the seed commit (a north-star case)."""
        return self.name in HARD


def so_cup(n: int) -> int:
    total = 0
    for i in range(1, n, 2):
        t = 1
        while i * t < n:
            t *= 2
        total += t - 1
    return total


def _one_ring_doc(ring: str, gens: list[str], space: str, space_stmts: list[str], p: int = 2) -> str:
    body = "\n".join(f"  {g}" for g in gens)
    stmts = "\n".join(f"  {s}" for s in space_stmts)
    return (
        f"ring {ring} over Z/{p} {{\n{body}\n}}\n\n"
        f"space {space} {{\n{stmts}\n  cohomology {ring} over Z/{p};\n}}\n"
    )


def so_case(n: int) -> RingCase:
    gens = []
    for i in range(1, n, 2):
        t = 1
        while i * t < n:
            t *= 2
        gens.append(f"gen x{i} : deg {i} trunc {t};")
    text = _one_ring_doc(f"SO{n}_mod2", gens, f"SO({n})", [f"dim {n * (n - 1) // 2};"])
    c = so_cup(n)
    return RingCase(f"SO({n})", f"SO({n})", text, c, c, len(gens))


def exterior_case(k: int) -> RingCase:
    gens = [f"gen e{2 * i + 1} : deg {2 * i + 1} exterior;" for i in range(k)]
    text = _one_ring_doc(f"E{k}", gens, f"Ext{k}", [f"dim {k * k};"])
    return RingCase(f"E{k}", f"Ext{k}", text, k, k, k)


def trunc_case(t: int) -> RingCase:
    text = _one_ring_doc(f"T{t}", [f"gen x : deg 1 trunc {t};"], f"P{t}", [f"dim {t - 1};"])
    return RingCase(f"trunc{t}", f"P{t}", text, t - 1, t - 1, 1)


def random_text(index: int) -> tuple[str, int]:
    """Pool entry `index`: a one-ring catalog over Z/2, Z/3 or Z/5 with 2 to
    6 generators, some of them rewritten by power substitutions onto later
    generators, some weighted.  Returns (text, number of generators)."""
    rng = random.Random(f"catbound-random-ring:{index}")
    p = rng.choice((2, 2, 3, 5))
    k = rng.randint(2, 6)
    decls: list[tuple[str, int, str]] = []  # (name, degree, attrs), last first
    rels: list[str] = []
    for j in reversed(range(k)):
        name = f"g{j}"
        weight = " weight 2" if rng.random() < 0.25 else ""
        if decls and len(rels) < 2 and rng.random() < 0.6:
            targets = rng.sample(decls, min(len(decls), rng.randint(1, 2)))
            powers = [(t[0], rng.randint(1, 2)) for t in targets]
            tdeg = sum(e * t[1] for t, (_, e) in zip(targets, powers))
            exps = [e for e in (2, 3) if tdeg % e == 0 and tdeg // e >= 1]
            if exps:
                e = rng.choice(exps)
                deg = tdeg // e
                if p == 2 or deg % 2 == 0:
                    coeff = rng.randint(1, p - 1)
                    rhs = " * ".join(n if x == 1 else f"{n}^{x}" for n, x in powers)
                    if coeff != 1:
                        rhs = f"{coeff} * {rhs}"
                    decls.append((name, deg, weight))
                    rels.append(f"rel {name}^{e} = {rhs};")
                    continue
        deg = rng.randint(1, 6)
        trunc = 2 if (p != 2 and deg % 2) else rng.randint(2, 6)
        decls.append((name, deg, f" trunc {trunc}{weight}"))
    gens = [f"gen {n} : deg {d}{a};" for n, d, a in reversed(decls)]
    stmts = ["loopspace-even;"] if rng.random() < 0.3 else []
    text = _one_ring_doc(f"Rand{index}_r", gens + rels, f"Rand{index}", stmts, p=p)
    return text, k


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def random_case(index: int, answers: dict) -> RingCase:
    """Pool entry `index` with its recorded answers; refuses an entry whose
    text no longer matches the one the answers were recorded for."""
    text, k = random_text(index)
    rec = answers[str(index)]
    if rec["digest"] != text_digest(text):
        raise ValueError(f"random pool entry {index} changed since its answers were recorded")
    return RingCase(f"random{index}", f"Rand{index}", text, rec["cup"], rec["wgt"], k)


def ring_suite(seed: int, answers: dict) -> list[RingCase]:
    """One pass of the ring-scaling workload, in seeded order."""
    cases = [so_case(n) for n in SO_CASES + SO_HARD]
    cases += [exterior_case(k) for k in EXTERIOR_CASES + EXTERIOR_HARD]
    cases += [trunc_case(t) for t in TRUNC_CASES + TRUNC_HARD]
    cases += [random_case(i, answers) for i in range(RANDOM_POOL)]
    random.Random(f"ring-scaling:{seed}").shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# large-catalog


@dataclass
class CatalogInput:
    """A generated catalog split over several documents, with the cat
    interval (lower, upper) every space must end with and the cup lower
    bound of every space that carries a ring."""

    files: dict[str, str]
    cat: dict[str, tuple[int, int]]
    cup: dict[str, int]
    rings: int
    distinct_rings: int  # presentations that differ other than by generator names

    @property
    def size_bytes(self) -> int:
        return sum(len(t.encode()) for t in self.files.values())


#: Units per catalog, by kind.  The counts are fixed so that every catalog
#: costs about the same; the parameters inside each unit are random.
CATALOG_UNITS = {
    "torus": 40,
    "rp": 30,
    "cp": 30,
    "chain": 10,
    "certified": 20,
    "refused": 20,
    "facts": 10,
}
CATALOG_FILES = 4
#: Sphere degrees are drawn from 2..SPHERE_MAX_DEG, so that the one-parameter
#: sphere rings seldom repeat within a catalog.
SPHERE_MAX_DEG = 600


class _CatalogBuilder:
    def __init__(self, tag: str, rng: random.Random):
        self.tag = tag
        self.rng = rng
        self.cat: dict[str, tuple[int, int]] = {}
        self.cup: dict[str, int] = {}
        self.rings = 0
        self.shapes: set[tuple] = set()
        self.ngen = 0

    def ring(self, name: str, gens: list[tuple[int, str]], rels=(), p: int = 2) -> str:
        """Declare a ring whose generator names are unique to this catalog,
        so no ring repeats across operations.  gens are (degree, attrs).
        Degrees and truncations are drawn from wide ranges, so that rings
        rarely repeat up to generator names either; `shapes` counts them."""
        names = []
        lines = [f"ring {name} over Z/{p} {{"]
        for deg, attrs in gens:
            self.ngen += 1
            g = f"z{self.tag}n{self.ngen}"
            names.append(g)
            lines.append(f"  gen {g} : deg {deg}{attrs};")
        for rel in rels:
            lines.append("  " + rel.format(*names))
        lines.append("}")
        self.rings += 1
        self.shapes.add((p, tuple(gens), tuple(rels)))
        return "\n".join(lines)

    def space(self, name: str, stmts: list[str], ring: str | None = None, p: int = 2) -> str:
        body = [f"  {s}" for s in stmts]
        if ring is not None:
            body.append(f"  cohomology {ring} over Z/{p};")
        return "\n".join([f"space {name} {{", *body, "}"])

    def sphere(self, name: str, d: int) -> list[str]:
        ring = self.ring(f"{name}_r", [(d, " exterior")])
        self.cat[name] = (1, 1)
        self.cup[name] = 1
        return [ring, self.space(name, [
            f"dim {d};",
            f"connectivity {d - 1};",
            f'stage 1 dim {d} skeleton "the {d}-sphere";',
            'known cat = 1 from "spheres have category 1";',
        ], f"{name}_r")]

    def cone_length(self, name: str, stmts: list[str], cup: int, dim: int) -> None:
        """Half the time record the cone length `cup` as an upper bound;
        otherwise only the dimension bounds cat from above."""
        if self.rng.random() < 0.5:
            stmts.append(f'known upper cat = {cup} from "cone length of the cell structure";')
            self.cat[name] = (cup, cup)
        else:
            self.cat[name] = (cup, dim)
        self.cup[name] = cup

    def torus(self, u: int) -> list[str]:
        # A product of k spheres (the k-torus when every degree is 1).
        k = self.rng.randint(1, 5)
        degs = sorted(self.rng.randint(1, 40) for _ in range(k))
        name = f"Tor{u}"
        ring = self.ring(f"{name}_r", [(d, " exterior") for d in degs])
        stmts = [f"dim {sum(degs)};", f"connectivity {degs[0] - 1};"]
        self.cone_length(name, stmts, k, sum(degs))
        return [ring, self.space(name, stmts, f"{name}_r")]

    def rp(self, u: int) -> list[str]:
        # x^2 = y, y^t = 0: Z/2[x]/(x^{2t}), with x in degree d (RP^{2t-1}
        # when d = 1).
        t = self.rng.randint(2, 9)
        d = self.rng.randint(1, 30)
        name = f"Rp{u}"
        ring = self.ring(f"{name}_r", [(d, ""), (2 * d, f" trunc {t}")], ["rel {0}^2 = {1};"])
        stmts = [f"dim {d * (2 * t - 1)};", f"connectivity {d - 1};"]
        self.cone_length(name, stmts, 2 * t - 1, d * (2 * t - 1))
        return [ring, self.space(name, stmts, f"{name}_r")]

    def cp(self, u: int) -> list[str]:
        # Z/p[x]/(x^{n+1}) with x in degree 2e (CP^n when e = 1).
        n = self.rng.randint(2, 9)
        e = self.rng.randint(1, 30)
        p = self.rng.choice((2, 3))
        name = f"Cp{u}"
        ring = self.ring(f"{name}_r", [(2 * e, f" trunc {n + 1}")], p=p)
        stmts = [f"dim {2 * e * n};", f"connectivity {2 * e - 1};"]
        self.cone_length(name, stmts, n, 2 * e * n)
        return [ring, self.space(name, stmts, f"{name}_r", p=p)]

    def chain(self, u: int) -> list[str]:
        # Q_j = S_j x Q_{j+1}, Q_L = S_L, declared from Q_0 down, so every
        # product refers to a space declared after it.
        length = self.rng.randint(2, 4)
        degs = [self.rng.randint(2, SPHERE_MAX_DEG) for _ in range(length + 1)]
        spheres = [f"Sph{u}_{j}" for j in range(length + 1)]
        out = []
        for j in range(length):
            name = f"Q{u}_{j}"
            right = f"Q{u}_{j + 1}" if j + 1 < length else spheres[length]
            ring = self.ring(f"{name}_r", [(d, " exterior") for d in degs[j:]])
            out.append(ring)
            out.append(self.space(name, [f"dim {sum(degs[j:])};"], f"{name}_r"))
            out.append(f"product {name} = {spheres[j]} * {right};")
            self.cat[name] = (length - j + 1, length - j + 1)
            self.cup[name] = length - j + 1
        for j, d in enumerate(degs):
            out += self.sphere(spheres[j], d)
        return out

    def bundle(self, u: int, certified: bool) -> list[str]:
        n = self.rng.randint(4, SPHERE_MAX_DEG)
        f = self.rng.randint(2, SPHERE_MAX_DEG)
        fiber, base, total = f"F{u}", f"B{u}", f"X{u}"
        out = self.sphere(fiber, f) + self.sphere(base, n)
        ring = self.ring(f"{total}_r", [(f, " exterior"), (n, " exterior")])
        stmts = [f"dim {n + f};", f"connectivity {min(n, f) - 1};"]
        out += [ring, self.space(total, stmts, f"{total}_r")]
        self.cup[total] = 2
        if certified:
            kind = self.rng.choice(("skeletal", "trivial", "verified"))
            d = self.rng.choice((n, n // 2))
            group = "trivial" if kind == "trivial" else fiber
            cert = 'verified "checked by hand"' if kind == "verified" else kind
            s = 0
            # Cat(total) <= stages(fiber) + dim(base) // d
            self.cat[total] = (2, min(1 + n // d, n + f))
        else:
            kind = self.rng.choice(("none", "skeletal", "trivial"))
            d = n
            group = fiber
            cert = kind
            s = 1 if kind == "skeletal" else 0  # an inconsistent certificate
            # fiber-base fallback: (cat F + 1)(cat B + 1) - 1
            self.cat[total] = (2, 3)
        out.append("\n".join([
            f"bundle bd{u} {{",
            f"  fiber {fiber};",
            f"  base {base};",
            f"  total {total};",
            f"  structure-group {group};",
            f"  cells-mod {d} {s};",
            f"  compatibility {cert};",
            "}",
        ]))
        return out

    def facts(self, u: int) -> list[str]:
        # Top-level facts stated before the space they concern.
        dim = self.rng.randint(5, 12)
        lo = self.rng.randint(1, dim - 1)
        name = f"W{u}"
        out = [f'known lower {name} cat = {lo} from "recorded lower bound";']
        hi = dim
        if self.rng.random() < 0.5:
            hi = self.rng.randint(lo, dim - 1)
            out.append(f'known upper {name} cat = {hi} from "recorded upper bound";')
        out.append(self.space(name, [f"dim {dim};", "connectivity 0;"]))
        self.cat[name] = (lo, hi)
        return out


def large_catalog(seed: int, index: int, units_per_kind: dict = CATALOG_UNITS) -> CatalogInput:
    """Catalog number `index` of the large-catalog workload under `seed`:
    about 300 spaces and 290 rings, none equal to a ring of another index."""
    rng = random.Random(f"large-catalog:{seed}:{index}")
    b = _CatalogBuilder(f"{index:x}", rng)
    units = []
    u = 0
    for kind, count in units_per_kind.items():
        for _ in range(count):
            u += 1
            if kind in ("certified", "refused"):
                units.append(b.bundle(u, kind == "certified"))
            else:
                units.append(getattr(b, kind)(u))
    rng.shuffle(units)
    files: dict[str, list[str]] = {f"part{i}.lsc": [] for i in range(CATALOG_FILES)}
    for i, unit in enumerate(units):
        files[f"part{i % CATALOG_FILES}.lsc"].extend(unit)
    return CatalogInput(
        {name: "\n\n".join(decls) + "\n" for name, decls in files.items()},
        b.cat,
        b.cup,
        b.rings,
        len(b.shapes),
    )


# ---------------------------------------------------------------------------
# corpus-cli

#: The command mix, run as cold `python -m catbound.cli` processes on the
#: shipped corpus.  References: `reference/cli.json`.
CLI_MIX = (
    ("table",),
    ("table", "--format", "json"),
    ("check-ganea",),
    ("cup", "SO9_mod2"),
    ("wgt", "PU(5)"),
    ("bound", "sp2-d3"),
    ("ledger", "so5"),
    ("validate",),
)


def cli_round(seed: int, round_index: int) -> list[tuple[str, ...]]:
    """Every command of the mix once, in an order drawn from the seed."""
    order = list(CLI_MIX)
    random.Random(f"corpus-cli:{seed}:{round_index}").shuffle(order)
    return order
