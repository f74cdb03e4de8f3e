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
