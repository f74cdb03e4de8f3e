"""The original search engines and normal form, kept as test-only references,
and random presentations and substitution chains to compare them with the
package on.

`reference_search` is the original cup/weighted search, on top of the
original linear scan `linear_nilpotency_order`.  It walks exponent vectors in
ascending lexicographic order, multiplies one generator factor at a time and
never prunes on value, so it is exponential in the number of generators and
linear in every exponent.  Its contract is the one `catbound.cup` must keep:
the maximum of sum(w_i * e_i) over all nonzero exponent vectors and the
lexicographically smallest vector attaining it.

`one_step_normal_form` is the original normal form, which applies a
substitution one power at a time and takes each step's Koszul sign on its
own, so it is linear in every exponent.
"""

from __future__ import annotations

import random

from catbound.algebra import (
    AlgebraError,
    Monomial,
    RingPresentation,
    Substitution,
    _koszul_parity,
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


def one_step_normal_form(m: Monomial, ring: RingPresentation) -> Monomial:
    """normal_form, one substitution step per power."""
    p = ring.p
    c = m.coeff % p
    if c == 0:
        return ring.zero_monomial()
    e = list(m.exps)
    for i, (factor, k) in enumerate(ring._homes):
        sub = factor.subs[k]
        if sub is not None:
            t, local, tc = sub
            targets = [(factor.gens[j], a) for j, a in local]
            while e[i] >= t:
                e[i] -= t
                parity = _koszul_parity(targets, e, ring._odd)
                c = c * tc * (-1 if parity else 1) % p
                for j, a in targets:
                    e[j] += a
        cap = factor.caps[k]
        if cap is not None and e[i] >= cap:
            return ring.zero_monomial()
    return Monomial(c, tuple(e))


def reference_search(
    ring: RingPresentation, weights: tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    """(maximum, lexicographically smallest maximising exponent vector)."""
    n = ring.ngens
    bounds = [
        linear_nilpotency_order(g.name, ring, _ORDER_CAP) - 1 for g in ring.generators
    ]
    best_val = 0
    best_wit = (0,) * n
    evec = [0] * n

    def rec(i: int, mono: Monomial, val: int) -> None:
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
                cur = multiply_monomials(cur, step, ring)
                if cur.is_zero():
                    break
            evec[i] = e
            rec(i + 1, cur, val + e * weights[i])
        evec[i] = 0

    rec(0, ring.one(), 0)
    return best_val, best_wit


def random_presentation(rng: random.Random, max_gens: int = 6) -> RingPresentation:
    """A consistent presentation over Z/2, Z/3 or Z/5 with 1..max_gens
    generators, about half of them rewritten by a power substitution onto
    one or two later generators."""
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
    return RingPresentation(p, gens, substitutions=subs, name=f"rand{p}")


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
