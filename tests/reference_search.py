"""The original search engines, kept as test-only references, and random
presentations and substitution chains to compare them with the package on.

`reference_search` is the original cup/weighted search, on top of the
original linear scan `linear_nilpotency_order`.  It walks exponent vectors in
ascending lexicographic order, multiplies one generator factor at a time and
never prunes on value, so it is exponential in the number of generators and
linear in every exponent.  Its contract is the one `catbound.cup` must keep: the maximum of sum(w_i * e_i) over nonzero
exponent vectors (within the top-degree hint, if any) and the
lexicographically smallest vector attaining it.
"""

from __future__ import annotations

import random

from catbound.algebra import (
    AlgebraError,
    Monomial,
    RingPresentation,
    Substitution,
    multiply_monomials,
    normal_form,
)

_ORDER_CAP = 4096


def linear_nilpotency_order(name: str, ring: RingPresentation, cap: int) -> int:
    """Least k <= cap with g^k = 0, by trying every power in turn."""
    i = ring.index(name)
    for k in range(1, cap + 1):
        exps = [0] * ring.ngens
        exps[i] = k
        if normal_form(Monomial(1, tuple(exps)), ring).is_zero():
            return k
    raise AlgebraError(f"generator {name!r} is not nilpotent within {cap} powers")


def reference_search(
    ring: RingPresentation, weights: tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    """(maximum, lexicographically smallest maximising exponent vector)."""
    n = ring.ngens
    bounds = [
        linear_nilpotency_order(g.name, ring, _ORDER_CAP) - 1 for g in ring.generators
    ]
    hint = ring.top_degree_hint
    degs = [g.degree for g in ring.generators]
    best_val = 0
    best_wit = (0,) * n
    evec = [0] * n

    def rec(i: int, mono: Monomial, val: int, deg: int) -> None:
        nonlocal best_val, best_wit
        if i == n:
            if val > best_val:
                best_val = val
                best_wit = tuple(evec)
            return
        cur = mono
        step = ring.monomial({ring.generators[i].name: 1})
        for e in range(bounds[i] + 1):
            if e > 0:
                if hint is not None and deg + e * degs[i] > hint:
                    break
                cur = multiply_monomials(cur, step, ring)
                if cur.is_zero():
                    break
            evec[i] = e
            rec(i + 1, cur, val + e * weights[i], deg + e * degs[i])
        evec[i] = 0

    rec(0, ring.one(), 0, 0)
    return best_val, best_wit


def random_presentation(
    rng: random.Random, max_gens: int = 6, hinted: bool = False
) -> RingPresentation:
    """A consistent presentation over Z/2, Z/3 or Z/5 with 1..max_gens
    generators, about half of them rewritten by a power substitution onto
    one or two later generators.  With `hinted`, the ring carries a random
    top-degree hint at most its top degree; hints that leave a generator
    non-nilpotent within the hint's cap are redrawn."""
    p = rng.choice([2, 3, 5])
    gens: list[tuple] = []  # built last generator first
    subs: dict[str, Substitution] = {}
    for j in reversed(range(rng.randint(1, max_gens))):
        name = f"g{j}"
        if gens and rng.random() < 0.5:
            targets = rng.sample(gens, min(len(gens), rng.randint(1, 2)))
            powers = tuple((t[0], rng.randint(1, 2)) for t in targets)
            tdeg = sum(e * t[1] for t, (_, e) in zip(targets, powers))
            exps = [e for e in (2, 3) if tdeg % e == 0]
            if exps:
                e = rng.choice(exps)
                deg = tdeg // e
                if p == 2 or deg % 2 == 0:
                    gens.append((name, deg))
                    subs[name] = Substitution(e, rng.randint(1, p - 1), powers)
                    continue
        deg = rng.randint(1, 5)
        trunc = 2 if (p != 2 and deg % 2) else rng.randint(2, 5)
        gens.append((name, deg, trunc))
    gens.reverse()
    ring = RingPresentation(p, gens, substitutions=subs, name=f"rand{p}")
    if not hinted:
        return ring
    top = sum(
        g.degree * (k - 1) for g, k in zip(ring.generators, ring.nilpotency_orders())
    )
    while True:
        hint = rng.randint(1, max(top, 1))
        hinted_ring = RingPresentation(
            p, gens, substitutions=subs, top_degree_hint=hint, name=f"rand{p}h"
        )
        try:
            hinted_ring.nilpotency_orders()
        except AlgebraError:
            continue
        return hinted_ring


def substitution_chain(p, exponents, trunc):
    """x0^a0 = c0 * x1, x1^a1 = c1 * x2, ..., with the last generator
    truncated; x0 has order a0 * a1 * ... * trunc."""
    degs = [2]
    for a in exponents:
        degs.append(degs[-1] * a)
    gens = [(f"x{i}", d) for i, d in enumerate(degs[:-1])]
    gens.append((f"x{len(exponents)}", degs[-1], trunc))
    subs = {
        f"x{i}": Substitution(a, 1 + i % (p - 1), ((f"x{i + 1}", 1),))
        for i, a in enumerate(exponents)
    }
    return RingPresentation(p, gens, substitutions=subs, name="chain")
