import re
from pathlib import Path

import pytest

from catbound.corpus import CorpusError, load_corpus, parse_sources, read_sources
from catbound.solver import propagate

EXPECTED_CAT = {
    "SU(1)": 0,
    "SU(2)": 1,
    "SU(3)": 2,
    "SU(4)": 3,
    "SU(5)": 4,
    "PU(2)": 3,
    "PU(3)": 6,
    "PU(4)": 9,
    "PU(5)": 12,
    "SU(4)/C2": 9,
    "SO(3)": 3,
    "SO(5)": 8,
    "SO(6)": 9,
    "SO(7)": 11,
    "SO(8)": 12,
    "SO(9)": 20,
    "PO(8)": 18,
    "Spin(3)": 1,
    "Spin(5)": 3,
    "Spin(6)": 3,
    "Spin(7)": 5,
    "Spin(8)": 6,
    "Sp(1)": 1,
    "Sp(2)": 3,
    "Sp(3)": 5,
    "PSp(1)": 3,
    "PSp(2)": 8,
    "G2": 4,
    "S7": 1,
}


def test_shipped_corpus_links():
    catalog = load_corpus()
    assert len(catalog.rings) == 16
    assert len(catalog.spaces) == 37
    assert len(catalog.bundles) == 12
    assert len(catalog.facts) == 31
    assert len(catalog.products) == 1


def test_every_catalogued_group_closes():
    solution = propagate(load_corpus())
    assert solution.contradictions == []
    for name, value in EXPECTED_CAT.items():
        iv = solution.interval(name, "cat")
        assert iv.determined, (name, str(iv))
        assert iv.lower == value, (name, str(iv), value)


def test_corpus_loads_from_a_directory(tmp_path):
    src = Path("src/catbound/corpus")
    for f in src.glob("*.lsc"):
        (tmp_path / f.name).write_text(f.read_text())
    assert len(read_sources(tmp_path)) == len(read_sources())
    load_corpus(tmp_path)


def test_single_file_corpus(tmp_path):
    f = tmp_path / "one.lsc"
    f.write_text("space X { dim 3; }\n")
    catalog = load_corpus(f)
    assert list(catalog.spaces) == ["X"]


def test_missing_corpus_path():
    with pytest.raises(CorpusError, match="no such file"):
        read_sources("/nonexistent/corpus")


def test_dirty_sources_are_refused(tmp_path):
    f = tmp_path / "bad.lsc"
    f.write_text("ring R over Z/4 { gen x : deg 1 trunc 2; }\n")
    with pytest.raises(CorpusError, match="bad.lsc:1:"):
        load_corpus(f)


def test_sources_have_documentation():
    names = [name for name, _ in read_sources()]
    assert names == sorted(names)
    here = Path("src/catbound/corpus")
    assert (here / "SOURCES.md").exists()


def test_each_shipped_ring_tops_out_at_its_space_dimension():
    # H^k = 0 above the dimension, and the search's bound reads the ring's
    # top degree: the sum over its factors of RingPresentation.top_degrees.
    catalog = load_corpus()
    checked = set()
    for space in catalog.spaces.values():
        if space.ring is not None and space.dim is not None:
            top = sum(below[0] for below in space.ring.top_degrees())
            assert top == space.dim, space.name
            checked.add(space.ring.name)
    assert checked == set(catalog.rings)


# -- every ring against its closed form in the literature ------------------------


def times(a, b):
    """The product of two polynomials given as coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def truncated(d, r):
    """(1 - t^(d r)) / (1 - t^d) = 1 + t^d + ... + t^(d (r - 1))."""
    return [int(i % d == 0) for i in range(d * (r - 1) + 1)]


def exterior(*degrees):
    series = [1]
    for d in degrees:
        series = times(series, truncated(d, 2))
    return series


def poincare_series(ring):
    """The product of (1 - t^(d r)) / (1 - t^d) over the ring's generators, r
    the rule power or the cap: the normal forms with every exponent below
    its r are a basis of the ring, as top_degrees assumes."""
    series = [1]
    for factor in ring.factors:
        for g, sub, cap in zip(factor.gens, factor.subs, factor.caps):
            r = cap if sub is None else sub[0]
            series = times(series, truncated(ring.generators[g].degree, r))
    return series


def closed_form(space, p=2):
    """The literature's Poincare series of a group's cohomology mod p, or
    None where no closed form is recorded here."""
    m = re.fullmatch(r"(SO|SU|Sp|PU)\((\d+)\)", space)
    if space == "G2":  # mod 2
        return times([1, 0, 0, 1, 0, 0, 1, 0, 0, 1], truncated(5, 2))
    if m is None:
        return None
    family, n = m[1], int(m[2])
    if family == "SO":  # mod 2, Borel
        return exterior(*range(1, n))
    if family == "SU":
        return exterior(*range(3, 2 * n, 2))
    if family == "Sp":
        return exterior(*range(3, 4 * n, 4))
    # PU(n) mod p, p^r the largest power of p dividing n (Baum-Browder):
    # an exterior algebra on 1, 3, ..., 2n - 1 without 2p^r - 1, tensor a
    # truncated polynomial algebra on y in degree 2 with y^(p^r) = 0; with r
    # = 0, PU(n) has the cohomology of SU(n) mod p
    if n % p:
        return exterior(*range(3, 2 * n, 2))
    q = p
    while n % (q * p) == 0:
        q *= p
    odd = [d for d in range(1, 2 * n, 2) if d != 2 * q - 1]
    return times(exterior(*odd), truncated(2, q))


def test_every_shipped_ring_has_euler_characteristic_zero_and_tops_at_its_dim():
    # chi = 0 for every positive-dimensional compact Lie group, and for the
    # odd-dimensional closed manifolds the corpus holds
    catalog = load_corpus()
    for space in catalog.spaces.values():
        if space.ring is None:
            continue
        series = poincare_series(space.ring)
        assert sum(c if i % 2 == 0 else -c for i, c in enumerate(series)) == 0, space.name
        assert series[-1] != 0 and len(series) - 1 == space.dim, space.name


def test_every_shipped_group_ring_has_its_closed_form():
    compared = set()
    for space in load_corpus().spaces.values():
        if space.ring is None:
            continue
        want = closed_form(space.name, space.ring.p)
        if want is not None:
            assert poincare_series(space.ring) == want, space.name
            compared.add(space.name)
    assert compared == {
        *(f"SO({n})" for n in (3, 5, 6, 7, 8, 9)),
        *(f"SU({n})" for n in (2, 3, 4, 5)),
        *(f"PU({n})" for n in (2, 3, 4, 5)),
    }


@pytest.mark.parametrize("space", ["G2", "Sp(1)", "Sp(2)", "Sp(3)"])
def test_closed_forms_of_groups_without_a_ring_fit_their_dims(space):
    # The corpus declares no ring for G2 or Sp(n); their closed forms still
    # give chi = 0 and the declared dim as their top degree.
    series = closed_form(space)
    assert sum(c if i % 2 == 0 else -c for i, c in enumerate(series)) == 0
    assert len(series) - 1 == load_corpus().spaces[space].dim


def test_sp1_has_the_closed_form_of_the_shipped_su2_ring():
    assert closed_form("Sp(1)") == poincare_series(load_corpus().spaces["SU(2)"].ring)
