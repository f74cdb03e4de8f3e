"""Graded-commutative algebra over Z/p, presented by truncations and substitutions.

A presentation lists ordered generators, each with a positive degree and an
optional rewrite rule: either a truncation x^t = 0 or a substitution
x^t = (monomial in strictly later generators).  Monomials are exponent vectors
with a coefficient in Z/p.  Sorting generator factors costs one (-1) per
transposition of two odd-degree factors (the Koszul sign); over an odd prime
this forces the square of every odd-degree generator to vanish, whether or not
the presentation says so.

Rewriting moves exponents only along substitution edges, so a ring is the
tensor product of the subrings on the connected components of its
substitution graph (its tensor factors), and a monomial is zero exactly when
its part in some factor is.  The constructor builds the factors once, and
they are the ring's one rule table: normal forms, truncations, nilpotency
orders and the cup search all read their rules from it.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from .record import Record, _tuple_new


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


class Generator(Record):
    """A ring generator: name, degree >= 1, optional truncation, search weight."""

    __slots__ = ()

    def __new__(cls, name, degree, trunc=None, weight=1):
        return _tuple_new(cls, (name, degree, trunc, weight))


class Substitution(Record):
    """Rewrite rule g^exponent -> coeff * prod(powers), later generators only."""

    __slots__ = ()

    def __new__(cls, exponent, coeff, powers):
        return _tuple_new(cls, (exponent, coeff, powers))


class TensorFactor(Record):
    """One connected component of a ring's substitution graph, in local
    indices: position k stands for ring generator gens[k], and gens is
    increasing.  subs[k] is None or (t, ((j, a), ...), c) for
    x_k^t = c * prod x_j^a, the targets in increasing j with repeated targets
    merged and c a unit of Z/p; the coefficient comes last, so readers of
    the exponents alone take sub[0] and sub[1].  caps[k] is the effective
    truncation of a generator without a substitution, None otherwise."""

    __slots__ = ()

    def __new__(cls, gens, subs, caps):
        return _tuple_new(cls, (gens, subs, caps))


class Monomial(Record):
    """coeff * prod(g_i^exps[i]) with exps indexed by ring generator order."""

    __slots__ = ()

    def __new__(cls, coeff, exps):
        return _tuple_new(cls, (coeff, exps))

    def is_zero(self) -> bool:
        return self.coeff == 0


def _effective_truncation(i: int, g: Generator, trunc: int | None, p: int, late: list) -> int:
    """The effective truncation of generator i, which has no substitution,
    given its declared one; what is wrong with it goes on late, as (i, text),
    and 2 stands in.  Over an odd prime an odd-degree generator squares to
    zero whatever is declared, and a generator with no truncation is not
    nilpotent."""
    if p != 2 and g.degree % 2 == 1:
        if trunc is not None and trunc != 2:
            late.append((i, f"odd-degree generator {g.name!r} over Z/{p} squares to "
                         f"zero; truncation {trunc} is inconsistent"))
        return 2
    if trunc is None:
        late.append((i, f"generator {g.name!r} has neither a truncation nor a relation; "
                     "it is not nilpotent, so the algebra is not finite-dimensional"))
        return 2
    return trunc


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
        name: str = "R",
    ):
        if isinstance(p, int) and p >= 2**64:
            raise AlgebraError(
                f"modulus is too large ({p.bit_length()} bits; "
                "primes below 2^64 are supported)"
            )
        if not isinstance(p, int) or not (p == 2 or _is_prime(p)):
            raise AlgebraError(f"modulus must be a prime >= 2 (got {p!r})")
        self.p = p
        self.name = name
        gens = []
        index = self._index = {}
        for g in generators:
            g = g if isinstance(g, Generator) else Generator(*g)
            index[g.name] = len(gens)
            gens.append(g)
        if len(index) != len(gens):
            raise AlgebraError(f"duplicate generator name in ring {name!r}")
        self.generators = gens = tuple(gens)
        subs = substitutions or {}

        # One pass checks each generator; one that no relation names as its
        # source gets its own factor, its cap as its nilpotency order and
        # deg * (cap - 1) in the top degree.  The relations below merge
        # factors; a cap's problem is raised after them, first generator first.
        odd: list[int] = []
        factors: list[TensorFactor | None] = []
        homes: list = []
        late: list[tuple[int, str]] = []
        orders, top = [], 0  # a rule's source's order is filled in last
        for i, g in enumerate(gens):
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
            if g.degree % 2 == 1:
                odd.append(i)
            factor = cap = None  # decided by the generator's relation
            if g.name not in subs:
                cap = g.trunc
                if cap is None or (p != 2 and g.degree % 2 == 1):
                    cap = _effective_truncation(i, g, cap, p, late)
                top += g.degree * (cap - 1)
                factor = TensorFactor((i,), (None,), (cap,))
            factors.append(factor)
            homes.append((factor, 0))
            orders.append(cap)
        self._odd = tuple(odd)

        # rules[i] is (t, ((j, a), ...), c) for x_i^t = c * prod x_j^a, the
        # targets in increasing j with repeated targets merged.
        rules: dict[int, tuple[int, tuple[tuple[int, int], ...], int]] = {}
        self.substitutions: dict[str, Substitution] = {}
        for src, sub in sorted(subs.items()) if subs else ():
            if src not in self._index:
                raise AlgebraError(f"substitution on unknown generator {src!r}")
            i = self._index[src]
            if not isinstance(sub.exponent, int) or sub.exponent < 2:
                raise AlgebraError(f"substitution exponent on {src!r} must be >= 2")
            coeff = sub.coeff % p
            targets: dict[int, int] = {}
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
                targets[j] = targets.get(j, 0) + te
                tdeg += te * gens[j].degree
            # A nonzero constant target has degree 0, so it fails here too.
            if coeff != 0 and tdeg != sub.exponent * gens[i].degree:
                raise AlgebraError(
                    f"substitution {src}^{sub.exponent} is not degree-homogeneous"
                )
            if coeff == 0:
                # g^t = 0 is a truncation in disguise.
                if gens[i].trunc is not None:
                    raise AlgebraError(
                        f"generator {src!r} has both a truncation and a relation"
                    )
                cap = _effective_truncation(i, gens[i], sub.exponent, p, late)
                factors[i] = factor = TensorFactor((i,), (None,), (cap,))
                homes[i] = (factor, 0)
                orders[i] = cap
                top += gens[i].degree * (cap - 1)
                continue
            if gens[i].trunc is not None:
                raise AlgebraError(
                    f"generator {src!r} has both a truncation and a substitution"
                )
            if p != 2 and gens[i].degree % 2 == 1:
                raise AlgebraError(
                    f"odd-degree generator {src!r} squares to zero over Z/{p}; "
                    "a substitution with nonzero target is inconsistent"
                )
            rules[i] = (sub.exponent, tuple(sorted(targets.items())), coeff)
            top += gens[i].degree * (sub.exponent - 1)
            self.substitutions[src] = Substitution(
                sub.exponent, coeff, tuple(sub.powers)
            )
        if late:
            raise AlgebraError(min(late)[1])

        if rules:
            # Union-find over the substitution edges, each root the least
            # index of its component; its factor takes the root's place.
            parent: dict[int, int] = {}

            def find(i: int) -> int:
                while i in parent:
                    i = parent[i]
                return i

            for i, (_, targets, _) in rules.items():
                for j, _ in targets:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[max(ri, rj)] = min(ri, rj)
            # The generators the rules join: their sources, and their targets,
            # which come after a source and so are never a root.
            members: dict[int, list[int]] = {}
            at: dict[int, int] = {}  # each generator's local index
            for g in sorted(rules.keys() | parent.keys()):
                component = members.setdefault(find(g), [])
                at[g] = len(component)
                component.append(g)
            for root, component in members.items():
                local = []
                caps = []
                for g in component:
                    rule = rules.get(g)
                    if rule is None:
                        local.append(None)
                        caps.append(factors[g].caps[0])
                    else:
                        t, targets, c = rule
                        local.append((t, tuple([(at[j], a) for j, a in targets]), c))
                        caps.append(None)
                factor = TensorFactor(tuple(component), tuple(local), tuple(caps))
                for g in component:
                    factors[g] = None
                    homes[g] = (factor, at[g])
                factors[root] = factor
            factors = [f for f in factors if f is not None]
        #: The ring's one rule table, its factors ordered by first generator.
        self.factors: tuple[TensorFactor, ...] = tuple(factors)
        # Generator i's tensor factor and its local index there.
        self._homes: tuple[tuple[TensorFactor, int], ...] = tuple(homes)
        for i, (t, targets, _) in rules.items():
            if any(j in rules for j, _ in targets):
                # a chained rule needs the factors: bisect, once
                orders[i] = nilpotency_order(gens[i].name, self)
            else:
                # x_i^(qt+r) = x_i^r * c^q * prod x_j^(q*a_j) with every x_j
                # ruled only by its cap: zero from the least q reaching a cap
                orders[i] = t * min(-(-orders[j] // a) for j, a in targets)
        self._orders: tuple[int, ...] = tuple(orders)
        self._top = top
        self._top_degrees: tuple[tuple[int, ...], ...] | None = None
        # the solver's search caches look rings up by value many times
        self._hash = hash((p, gens))

    # -- basic queries ----------------------------------------------------

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise AlgebraError(f"unknown generator {name!r}") from None

    def nilpotency_orders(self) -> tuple[int, ...]:
        """nilpotency_order of every generator, in order, fixed when the ring
        is built: a generator without a rule has its cap as its order."""
        return self._orders

    def top_degrees(self) -> tuple[tuple[int, ...], ...]:
        """For each tensor factor, in order, the top degrees of the
        subalgebras on its generators from k on: entry k is
        sum_{j >= k} deg_j * (r_j - 1), r_j being its rule power t or its
        cap, and the last entry is 0.  The nonzero normal forms are exactly
        the monomials with every e_j < r_j and rewriting keeps degree, so no
        nonzero product in a factor lies above its entry 0.  Computed once."""
        if self._top_degrees is None:
            per_factor = []
            for factor in self.factors:
                below = [0]
                for g, sub, cap in zip(factor.gens[::-1], factor.subs[::-1], factor.caps[::-1]):
                    r = cap if sub is None else sub[0]
                    below.append(below[-1] + self.generators[g].degree * (r - 1))
                per_factor.append(tuple(reversed(below)))
            self._top_degrees = tuple(per_factor)
        return self._top_degrees

    def top_degree(self) -> int:
        """The ring's top degree, the sum of `top_degrees`' entries 0, fixed
        when the ring is built."""
        return self._top

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingPresentation):
            return NotImplemented
        return (
            self.p == other.p
            and self.generators == other.generators
            and self.substitutions == other.substitutions
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"RingPresentation({self.name!r}, Z/{self.p}, {len(self.generators)} gens)"

    # -- constructors ------------------------------------------------------

    def zero_monomial(self) -> Monomial:
        return Monomial(0, (0,) * self.ngens)

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


def _koszul_parity(
    u: Iterable[tuple[int, int]], v: Sequence[int], odd: Sequence[int]
) -> int:
    """Parity of odd-odd inversions when the sorted word u is followed by v.
    u lists (index, exponent) pairs in increasing index order (indices it
    omits have exponent 0), v is a dense exponent vector, and odd lists the
    indices of the odd-degree generators in increasing order."""
    parity = 0
    pref = 0  # parity of the odd factors of v with index < a
    k = 0  # odd[:k] are the odd indices below a
    for a, ua in u:
        while k < len(odd) and odd[k] < a:
            pref ^= v[odd[k]] & 1
            k += 1
        if ua & 1 and k < len(odd) and odd[k] == a:
            parity ^= pref
    return parity


def normal_form(m: Monomial, ring: RingPresentation) -> Monomial:
    """Rewrite m to normal form: coefficient reduced mod p, substitutions and
    truncations applied exhaustively, q = e_i // t substitution steps at once
    with the sign in closed form.  The canonical zero has coefficient 0 and
    an all-zero exponent vector."""
    if len(m.exps) != ring.ngens:
        raise AlgebraError("monomial has wrong exponent vector length")
    p = ring.p
    c = m.coeff % p
    if c == 0:
        return ring.zero_monomial()
    e = list(m.exps)
    odd = ring._odd
    for i, (factor, k) in enumerate(ring._homes):
        sub = factor.subs[k]
        if sub is not None and e[i] >= sub[0]:
            t, local, tc = sub
            targets = [(factor.gens[j], a) for j, a in local]
            q, e[i] = divmod(e[i], t)
            # Each step puts the target left of e's later factors; counting e
            # from index 0 keeps the parity, since only an even-degree source
            # is rewritten over an odd prime, and it has an even number of
            # odd-degree target factors.  Every step has the first step's
            # sign: over Z/2 signs are 1, and over an odd prime a sign needs
            # an odd-degree target, which a second step raises to its cap 2.
            if q & 1 and _koszul_parity(targets, e, odd):
                c = -c
            c = c * pow(tc, q, p) % p
            for j, a in targets:
                e[j] += q * a
        cap = factor.caps[k]
        if cap is not None and e[i] >= cap:
            return ring.zero_monomial()
    return Monomial(c, tuple(e))


def _truncates(
    e: list[int],
    subs: Sequence[tuple[int, tuple[tuple[int, int], ...], int] | None],
    caps: Sequence[int | None],
    start: int,
) -> bool:
    """Rewrite a tensor factor's local exponents e in place from index start
    on, q = e[i] // t substitution steps at once; True when a truncation fires.
    Every coefficient normal_form meets is a sign or a substitution
    coefficient, kept nonzero mod p: a unit of Z/p.  So a monomial with a unit
    coefficient is zero exactly when this is True for one of its factors."""
    for i in range(start, len(e)):
        sub = subs[i]
        if sub is None:
            if e[i] >= caps[i]:
                return True
        elif e[i] >= sub[0]:
            q, e[i] = divmod(e[i], sub[0])
            for j, a in sub[1]:
                e[j] += q * a
    return False


def multiply_monomials(u: Monomial, v: Monomial, ring: RingPresentation) -> Monomial:
    """Product of two monomials, Koszul sign included, in normal form."""
    odd = ring._odd
    parity = _koszul_parity([(a, u.exps[a]) for a in odd], v.exps, odd)
    c = u.coeff * v.coeff * (-1 if parity else 1)
    exps = tuple(a + b for a, b in zip(u.exps, v.exps))
    return normal_form(Monomial(c, exps), ring)


def nilpotency_order(name: str, ring: RingPresentation) -> int:
    """Least k with g^k = 0.  Such a k exists: the constructor refuses a
    generator with neither a truncation nor a relation, and substitutions
    only target later generators, so by induction from the last generator
    every generator is nilpotent and the doubling below ends.  Powers only
    grow the exponents that truncations test, so g^k = 0 is monotone in k:
    double, then bisect."""
    factor, at = ring._homes[ring.index(name)]
    if factor.subs[at] is None:  # no rule: g^k = 0 exactly when k reaches the cap
        return factor.caps[at]

    def vanishes(k: int) -> bool:
        exps = [0] * len(factor.gens)
        exps[at] = k
        return _truncates(exps, factor.subs, factor.caps, at)

    lo, hi = 0, 1  # g^lo != 0; hi is the next power to try
    while not vanishes(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if vanishes(mid):
            hi = mid
        else:
            lo = mid
    return hi
