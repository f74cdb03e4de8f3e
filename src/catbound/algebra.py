"""Graded-commutative algebra over Z/p, presented by truncations and substitutions.

A presentation lists ordered generators, each with a positive degree and an
optional rewrite rule: either a truncation x^t = 0 or a substitution
x^t = (monomial in strictly later generators).  Monomials are exponent vectors
with a coefficient in Z/p.  Sorting generator factors costs one (-1) per
transposition of two odd-degree factors (the Koszul sign); over an odd prime
this forces the square of every odd-degree generator to vanish, whether or not
the presentation says so.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence


class AlgebraError(ValueError):
    """Raised for invalid presentations or malformed monomial input."""


#: Miller-Rabin with these bases is exact for every n < 2^64.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test; exact for n < 2^64."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Generator(NamedTuple):
    """A ring generator: name, degree >= 1, optional truncation, search weight."""

    name: str
    degree: int
    trunc: int | None = None
    weight: int = 1


class Substitution(NamedTuple):
    """Rewrite rule g^exponent -> coeff * prod(powers), later generators only."""

    exponent: int
    coeff: int
    powers: tuple[tuple[str, int], ...]


class Monomial(NamedTuple):
    """coeff * prod(g_i^exps[i]) with exps indexed by ring generator order."""

    coeff: int
    exps: tuple[int, ...]

    def is_zero(self) -> bool:
        return self.coeff == 0


class RingPresentation:
    """An ordered, finitely presented graded-commutative Z/p algebra.

    generators may be Generator instances or shorthand tuples
    (name, degree), (name, degree, trunc) or (name, degree, trunc, weight).
    substitutions maps a generator name to a Substitution; a generator may
    carry a truncation or a substitution, never both.
    """

    def __init__(
        self,
        p: int,
        generators: Iterable[Generator | tuple],
        substitutions: Mapping[str, Substitution] | None = None,
        top_degree_hint: int | None = None,
        name: str = "R",
    ):
        if isinstance(p, int) and p >= 2**64:
            raise AlgebraError(
                f"modulus is too large ({p.bit_length()} bits; "
                "primes below 2^64 are supported)"
            )
        if not isinstance(p, int) or not _is_prime(p):
            raise AlgebraError(f"modulus must be a prime >= 2 (got {p!r})")
        self.p = p
        self.name = name
        gens: list[Generator] = []
        for g in generators:
            if not isinstance(g, Generator):
                g = Generator(*g)
            gens.append(g)
        self.generators: tuple[Generator, ...] = tuple(gens)
        self._index = {g.name: i for i, g in enumerate(gens)}
        if len(self._index) != len(gens):
            raise AlgebraError(f"duplicate generator name in ring {name!r}")
        for g in gens:
            if not g.name:
                raise AlgebraError("generator name must be nonempty")
            if not isinstance(g.degree, int) or g.degree < 1:
                raise AlgebraError(
                    f"generator {g.name!r} must have degree >= 1 (got {g.degree!r})"
                )
            if g.trunc is not None and (not isinstance(g.trunc, int) or g.trunc < 2):
                raise AlgebraError(
                    f"truncation of {g.name!r} must be an integer >= 2 (got {g.trunc!r})"
                )
            if not isinstance(g.weight, int) or g.weight < 1:
                raise AlgebraError(f"weight of {g.name!r} must be an integer >= 1")
        if top_degree_hint is not None and top_degree_hint < 1:
            raise AlgebraError("top_degree_hint must be positive when given")
        self.top_degree_hint = top_degree_hint
        odd = [g.degree % 2 == 1 for g in gens]
        self._odd = tuple(i for i in range(len(gens)) if odd[i])

        # Normalize rules: zero-target substitutions become truncations.
        trunc = [g.trunc for g in gens]
        subs: list[tuple[int, int, tuple[int, ...]] | None] = [None] * len(gens)
        self.substitutions: dict[str, Substitution] = {}
        for src, sub in sorted((substitutions or {}).items()):
            if src not in self._index:
                raise AlgebraError(f"substitution on unknown generator {src!r}")
            i = self._index[src]
            if not isinstance(sub.exponent, int) or sub.exponent < 2:
                raise AlgebraError(f"substitution exponent on {src!r} must be >= 2")
            coeff = sub.coeff % p
            texps = [0] * len(gens)
            tdeg = 0
            for tname, te in sub.powers:
                if tname not in self._index:
                    raise AlgebraError(
                        f"substitution target {tname!r} is not a generator"
                    )
                j = self._index[tname]
                if j <= i:
                    raise AlgebraError(
                        f"substitution target {tname!r} must come strictly after {src!r}"
                    )
                if te < 1:
                    raise AlgebraError("substitution target exponents must be >= 1")
                texps[j] += te
                tdeg += te * gens[j].degree
            if coeff != 0 and tdeg != sub.exponent * gens[i].degree:
                raise AlgebraError(
                    f"substitution {src}^{sub.exponent} is not degree-homogeneous"
                )
            if coeff == 0 or not any(texps):
                if coeff != 0:
                    raise AlgebraError(
                        f"substitution {src}^{sub.exponent} = {coeff} is not "
                        "degree-homogeneous (constant target)"
                    )
                # g^t = 0 is a truncation in disguise.
                if trunc[i] is not None:
                    raise AlgebraError(
                        f"generator {src!r} has both a truncation and a relation"
                    )
                trunc[i] = sub.exponent
                continue
            if trunc[i] is not None:
                raise AlgebraError(
                    f"generator {src!r} has both a truncation and a substitution"
                )
            if p != 2 and odd[i]:
                raise AlgebraError(
                    f"odd-degree generator {src!r} squares to zero over Z/{p}; "
                    "a substitution with nonzero target is inconsistent"
                )
            subs[i] = (sub.exponent, coeff, tuple(texps))
            self.substitutions[src] = Substitution(
                sub.exponent, coeff, tuple(sub.powers)
            )

        # Effective truncation: the declared one, plus the forced square-zero
        # rule for odd-degree generators over an odd prime.
        eff: list[int | None] = list(trunc)
        for i, g in enumerate(gens):
            if p != 2 and odd[i] and subs[i] is None:
                if eff[i] is not None and eff[i] != 2:
                    raise AlgebraError(
                        f"odd-degree generator {g.name!r} over Z/{p} squares to "
                        f"zero; truncation {eff[i]} is inconsistent"
                    )
                eff[i] = 2
            if eff[i] is None and subs[i] is None:
                raise AlgebraError(
                    f"generator {g.name!r} has neither a truncation nor a relation; "
                    "it is not nilpotent, so the algebra is not finite-dimensional"
                )
        self._eff_trunc: tuple[int | None, ...] = tuple(eff)
        self._subs = tuple(subs)
        self._orders: tuple[int, ...] | None = None
        # the solver's search caches look rings up by value many times
        self._hash = hash((p, self.generators, top_degree_hint))

    # -- basic queries ----------------------------------------------------

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise AlgebraError(f"unknown generator {name!r}") from None

    def effective_truncation(self, name: str) -> int | None:
        return self._eff_trunc[self.index(name)]

    def nilpotency_orders(self) -> tuple[int, ...]:
        """nilpotency_order of every generator, in order; computed once."""
        if self._orders is None:
            self._orders = tuple(nilpotency_order(g.name, self) for g in self.generators)
        return self._orders

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingPresentation):
            return NotImplemented
        return (
            self.p == other.p
            and self.generators == other.generators
            and self.substitutions == other.substitutions
            and self.top_degree_hint == other.top_degree_hint
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"RingPresentation({self.name!r}, Z/{self.p}, {len(self.generators)} gens)"

    # -- constructors ------------------------------------------------------

    def zero_monomial(self) -> Monomial:
        return Monomial(0, (0,) * self.ngens)

    def one(self) -> Monomial:
        return Monomial(1 % self.p, (0,) * self.ngens)

    def monomial(self, powers: Mapping[str, int] | None = None, coeff: int = 1) -> Monomial:
        """Build a raw monomial from generator powers; not normalized."""
        exps = [0] * self.ngens
        for name, e in (powers or {}).items():
            if e < 0:
                raise AlgebraError("exponents must be non-negative")
            exps[self.index(name)] += e
        return Monomial(coeff % self.p, tuple(exps))

    def monomial_word(self, word: Sequence[str], coeff: int = 1) -> Monomial:
        """The product of the factors of word, left to right, times coeff, in
        normal form (Koszul signs included)."""
        m = Monomial(coeff % self.p, (0,) * self.ngens)
        for name in word:
            exps = [0] * self.ngens
            exps[self.index(name)] = 1
            m = multiply_monomials(m, Monomial(1, tuple(exps)), self)
        return m


def _koszul_parity(u: Sequence[int], v: Sequence[int], odd: Sequence[int]) -> int:
    """Parity of odd-odd inversions when the sorted word u is followed by v;
    odd lists the indices of the odd-degree generators in increasing order."""
    parity = 0
    pref = 0  # parity of the odd factors of v with index < a
    for a in odd:
        parity ^= u[a] & pref
        pref ^= v[a] & 1
    return parity


def normal_form(m: Monomial, ring: RingPresentation) -> Monomial:
    """Rewrite m to normal form: coefficient reduced mod p, substitutions and
    truncations applied exhaustively.  The canonical zero has coefficient 0
    and an all-zero exponent vector."""
    if len(m.exps) != ring.ngens:
        raise AlgebraError("monomial has wrong exponent vector length")
    p = ring.p
    c = m.coeff % p
    if c == 0:
        return ring.zero_monomial()
    e = list(m.exps)
    odd = ring._odd
    for i in range(ring.ngens):
        sub = ring._subs[i]
        if sub is not None:
            t, tc, texps = sub
            while e[i] >= t:
                e[i] -= t
                # The target sits left of e's later factors.  Counting e from
                # index 0 keeps the parity: an even-degree source has an even
                # number of odd-degree target factors, and an odd-degree one
                # is rewritten only over Z/2.
                parity = _koszul_parity(texps, e, odd)
                c = (c * tc * (-1 if parity else 1)) % p
                if c == 0:
                    return ring.zero_monomial()
                for j in range(i + 1, ring.ngens):
                    e[j] += texps[j]
        cap = ring._eff_trunc[i]
        if cap is not None and e[i] >= cap:
            return ring.zero_monomial()
    return Monomial(c, tuple(e))


def _truncates(e: list[int], ring: RingPresentation, start: int) -> bool:
    """Rewrite e in place from index start on, q = e[i] // t substitution steps
    at once; True when a truncation fires.  Every coefficient normal_form meets
    is a sign or a substitution coefficient, kept nonzero mod p: a unit of Z/p.
    So a monomial with a unit coefficient is zero exactly when this is True."""
    subs, caps = ring._subs, ring._eff_trunc
    for i in range(start, len(e)):
        sub = subs[i]
        if sub is None:
            if e[i] >= caps[i]:
                return True
        elif e[i] >= sub[0]:
            q, e[i] = divmod(e[i], sub[0])
            for j in range(i + 1, len(e)):
                e[j] += q * sub[2][j]
    return False


def degree(m: Monomial, ring: RingPresentation) -> int | None:
    """Total degree of a monomial; None for zero."""
    if m.is_zero():
        return None
    return sum(e * g.degree for e, g in zip(m.exps, ring.generators))


def multiply_monomials(u: Monomial, v: Monomial, ring: RingPresentation) -> Monomial:
    """Product of two monomials, Koszul sign included, in normal form."""
    parity = _koszul_parity(u.exps, v.exps, ring._odd)
    c = u.coeff * v.coeff * (-1 if parity else 1)
    exps = tuple(a + b for a, b in zip(u.exps, v.exps))
    return normal_form(Monomial(c, exps), ring)


def _power_bound(ring: RingPresentation, i: int) -> int:
    """The exponent of generator i's own truncation or substitution."""
    if ring._eff_trunc[i] is not None:
        return ring._eff_trunc[i]
    return ring._subs[i][0]


def nilpotency_order(name: str, ring: RingPresentation) -> int:
    """Least k with g^k = 0.  Capped by ceil(hint/deg)+1 when a top-degree
    hint exists, else by the product of all per-generator bounds, which every
    valid presentation meets; exceeding the hint's cap is an error.  Powers
    only grow the exponents that truncations test, so g^k = 0 is monotone in
    k: double, then bisect."""
    i = ring.index(name)
    d = ring.generators[i].degree
    if ring.top_degree_hint is not None:
        cap = -(-ring.top_degree_hint // d) + 1
    else:
        cap = 1
        for j in range(ring.ngens):
            cap *= _power_bound(ring, j)

    def vanishes(k: int) -> bool:
        exps = [0] * ring.ngens
        exps[i] = k
        return _truncates(exps, ring, i)

    lo, hi = 0, 1  # g^lo != 0; hi is the next power to try
    while not vanishes(hi):
        if hi >= cap:
            raise AlgebraError(
                f"generator {name!r} is not nilpotent within {cap} powers; "
                "the presentation does not describe a finite-dimensional algebra"
            )
        lo, hi = hi, min(2 * hi, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if vanishes(mid):
            hi = mid
        else:
            lo = mid
    return hi
