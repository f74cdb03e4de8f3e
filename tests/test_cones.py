import pytest

from catbound.cones import (
    MAX_LEDGER_PIECES,
    BoundRefused,
    BundleRecord,
    CompatibilityCertificate,
    ConeDecomposition,
    ConeError,
    ConeStage,
    check_compatibility,
    filtration_ledger,
    general_bundle_bound,
    james_ganea_bound,
    main_theorem_bound,
    product_bound,
)


def skeleta(space, dims):
    return ConeDecomposition(
        space,
        tuple(ConeStage(i + 1, d, skeleton=True) for i, d in enumerate(dims)),
    )


def principal(name, fiber, base_dim, dims, **kw):
    kw.setdefault("certificate", CompatibilityCertificate("skeletal"))
    return BundleRecord(
        name=name,
        total=name.upper(),
        fiber=fiber,
        base="B",
        structure_group=kw.pop("structure_group", fiber),
        d=kw.pop("d", 1),
        s=kw.pop("s", 0),
        base_dim=base_dim,
        fiber_decomposition=skeleta(fiber, dims),
        **kw,
    )


# -- the one-stage-per-cone upper bound ---------------------------------------


def test_james_ganea_bound():
    assert james_ganea_bound(10, 1) == 10
    assert james_ganea_bound(7, 3) == 2
    assert james_ganea_bound(14, 2) == 7
    assert james_ganea_bound(0, 5) == 0
    with pytest.raises(ConeError):
        james_ganea_bound(7, 0)
    with pytest.raises(ConeError):
        james_ganea_bound(-1, 1)


# -- certificates --------------------------------------------------------------


def test_skeletal_certificate_passes_for_principal_skeletal_bundles():
    v = check_compatibility(principal("b", "F", 7, [3]))
    assert v.passed and v.rule == "skeletal" and v.bound == 1 + 7


def test_skeletal_certificate_rejects_shifted_cells():
    b = principal("b", "F", 7, [3], d=3, s=1)
    v = check_compatibility(b)
    assert not v.passed and v.bound is None
    assert "needs s = 0" in v.reason


def test_skeletal_certificate_rejects_nonprincipal_bundles():
    b = principal("b", "F", 7, [3], structure_group="G")
    v = check_compatibility(b)
    assert not v.passed
    assert "differs from structure group" in v.reason


def test_skeletal_certificate_needs_skeletal_stages():
    dec = ConeDecomposition("F", (ConeStage(1, 3, skeleton=False),))
    b = BundleRecord(
        "b", "T", "F", "B", "F", 1, 0, 7,
        fiber_decomposition=dec,
        certificate=CompatibilityCertificate("skeletal"),
    )
    v = check_compatibility(b)
    assert not v.passed
    assert "declared skeleton" in v.reason


def test_skeletal_certificate_needs_a_decomposition():
    b = BundleRecord(
        "b", "T", "F", "B", "F", 1, 0, 7,
        certificate=CompatibilityCertificate("skeletal"),
    )
    v = check_compatibility(b)
    assert not v.passed
    assert "no cone decomposition" in v.reason


def test_trivial_certificate_needs_trivial_structure_group():
    good = principal(
        "b", "F", 7, [3],
        structure_group="trivial",
        certificate=CompatibilityCertificate("trivial"),
    )
    v = check_compatibility(good)
    assert v.passed and v.rule == "trivialBundle" and v.bound == 1 + 7
    bad = principal("b", "F", 7, [3], certificate=CompatibilityCertificate("trivial"))
    v = check_compatibility(bad)
    assert not v.passed and "structure group" in v.reason and v.bound is None


def test_verified_certificate_carries_its_reason():
    b = principal(
        "b", "F", 7, [3],
        certificate=CompatibilityCertificate("verified", "stagewise check"),
    )
    v = check_compatibility(b)
    assert v.passed and v.rule == "verified" and v.reason == "stagewise check"
    assert v.bound == main_theorem_bound(b) == 1 + 7


@pytest.mark.parametrize(
    "certificate",
    [CompatibilityCertificate("trivial"), CompatibilityCertificate("verified", "r")],
    ids=["trivial", "verified"],
)
def test_no_certificate_passes_without_a_fiber_decomposition(certificate):
    b = BundleRecord("b", "T", "F", "B", "trivial", 1, 0, 7, certificate=certificate)
    assert check_compatibility(b) == (
        False, None, "fiber has no cone decomposition", None
    )
    with pytest.raises(BoundRefused) as refused:
        main_theorem_bound(b)
    assert refused.value.reason == "bundle 'b': fiber has no cone decomposition"


def test_missing_certificate_fails():
    b = principal("b", "F", 7, [3], certificate=CompatibilityCertificate())
    v = check_compatibility(b)
    assert not v.passed and v.rule is None


def test_certificate_validation():
    with pytest.raises(ConeError, match="unknown certificate kind"):
        CompatibilityCertificate("sketchy")
    with pytest.raises(ConeError, match="nonempty reason"):
        CompatibilityCertificate("verified", "  ")


# -- the certified stagewise bound ---------------------------------------------


def test_stagewise_bounds_for_the_rotation_family():
    assert main_theorem_bound(principal("so5", "Sp(1)", 7, [3])) == 8
    assert main_theorem_bound(principal("so6", "SU(3)", 7, [5, 8])) == 9
    assert main_theorem_bound(principal("so7", "G2", 7, [5, 8, 11, 14])) == 11
    assert main_theorem_bound(principal("so9", "Spin(7)", 15, [7, 12, 15, 18, 21])) == 20
    assert main_theorem_bound(principal("po8", "G2", 14, [5, 8, 11, 14])) == 18


def test_stagewise_bound_with_sparse_base_cells():
    b = principal(
        "sp2", "Sp(1)", 7, [3],
        d=3, s=1,
        certificate=CompatibilityCertificate("verified", "7-cell lands in stage 1"),
    )
    assert main_theorem_bound(b) == 1 + 7 // 3 == 3


def test_uncertified_bundle_is_refused():
    b = principal("sp2", "Sp(1)", 7, [3], certificate=CompatibilityCertificate())
    with pytest.raises(BoundRefused, match="no compatibility certificate"):
        main_theorem_bound(b)


def test_refusal_names_the_bundle():
    b = principal("b", "F", 7, [3], structure_group="G")
    with pytest.raises(BoundRefused, match="bundle 'b'"):
        main_theorem_bound(b)


# -- fallback bounds ------------------------------------------------------------


def test_product_bound_adds():
    assert product_bound(11, 1) == 12
    assert product_bound(0, 0) == 0
    with pytest.raises(ConeError):
        product_bound(-1, 2)


def test_general_bundle_bound():
    assert general_bundle_bound(1, 1) == 3
    assert general_bundle_bound(1, 2) == 5
    assert general_bundle_bound(0, 4) == 4
    with pytest.raises(ConeError):
        general_bundle_bound(2, -1)


def test_general_bound_never_beats_a_certified_one_here():
    b = principal("so5", "Sp(1)", 7, [3])
    assert main_theorem_bound(b) <= general_bundle_bound(1, 7)


# -- structural validation -------------------------------------------------------


def test_stages_must_be_numbered_consecutively():
    with pytest.raises(ConeError, match="numbered 1..m"):
        ConeDecomposition("X", (ConeStage(2, 3),))
    with pytest.raises(ConeError, match="needs dim >= 1"):
        ConeDecomposition("X", (ConeStage(1, 0),))


def test_bundle_record_validation():
    with pytest.raises(ConeError, match="d must be >= 1"):
        BundleRecord("b", "T", "F", "B", "F", 0, 0, 7)
    with pytest.raises(ConeError, match="0 <= s <= d-1"):
        BundleRecord("b", "T", "F", "B", "F", 2, 2, 8)
    with pytest.raises(ConeError, match="base dimension must be >= 0"):
        BundleRecord("b", "T", "F", "B", "F", 2, 0, -1)
    with pytest.raises(ConeError, match="smaller than the cell period"):
        BundleRecord("b", "T", "F", "B", "F", 2, 0, 1)
    BundleRecord("b", "T", "F", "B", "F", 2, 0, 0)  # a point base is fine


# -- the filtration ledger --------------------------------------------------------


def test_two_stage_ledger_by_hand():
    b = principal("tiny", "F", 1, [3])
    led = filtration_ledger(b)
    assert led.total_bound == 2 and (led.n, led.m) == (1, 1)
    assert [st.k for st in led.stages] == [1, 2]
    assert led.stages[0].pieces == ((0, 1), (1, 0))
    assert led.stages[0].dims == (3, 1)
    assert led.stages[1].pieces == ((1, 1),)
    assert led.stages[1].dims == (4,)


def test_rank_five_ledger_top_stage():
    b = principal("so5", "Sp(1)", 7, [3])
    led = filtration_ledger(b)
    assert led.total_bound == 8
    assert len(led.stages) == 8
    top = led.stages[-1]
    assert top.pieces == ((7, 1),)
    assert top.dims == (10,)


def test_ledger_covers_every_piece_once():
    bundles = [
        principal("so5", "Sp(1)", 7, [3]),
        principal("so7", "G2", 7, [5, 8, 11, 14]),
        principal(
            "sp2", "Sp(1)", 7, [3],
            d=3, s=1,
            certificate=CompatibilityCertificate("verified", "stage check"),
        ),
    ]
    for b in bundles:
        led = filtration_ledger(b)
        attach = {st.index: st.attach_dim for st in b.fiber_decomposition.stages}
        seen = set()
        for stage in led.stages:
            for (i, j), dim in zip(stage.pieces, stage.dims):
                assert i + j == stage.k
                assert 0 <= i <= led.n and 0 <= j <= led.m
                expect = (b.d * i + b.s if i else 0) + (attach[j] if j else 0)
                assert dim == expect
                seen.add((i, j))
        want = {
            (i, j)
            for i in range(led.n + 1)
            for j in range(led.m + 1)
            if (i, j) != (0, 0)
        }
        assert seen == want


def test_ledger_refuses_uncertified_bundles():
    b = principal("b", "F", 7, [3], certificate=CompatibilityCertificate())
    with pytest.raises(BoundRefused):
        filtration_ledger(b)


def test_ledger_lists_at_most_max_ledger_pieces():
    # (n + 1)(m + 1) - 1 pieces: 9091 * 11 - 1 = MAX_LEDGER_PIECES exactly
    assert MAX_LEDGER_PIECES == 9091 * 11 - 1
    dims = list(range(3, 13))
    led = filtration_ledger(principal("edge", "F", 9090, dims))
    assert sum(len(stage.pieces) for stage in led.stages) == MAX_LEDGER_PIECES
    wide = principal("wide", "F", 9091, dims)
    assert main_theorem_bound(wide) == 9101
    with pytest.raises(BoundRefused, match="100011 pieces, more than the 100000"):
        filtration_ledger(wide)


def test_ledger_refuses_exactly_as_the_bound_does():
    undecomposed = BundleRecord(
        name="v",
        total="V",
        fiber="F",
        base="B",
        structure_group="G",
        d=1,
        s=0,
        base_dim=4,
        certificate=CompatibilityCertificate("verified", "checked by hand"),
    )
    refused = [
        principal("none", "F", 7, [3], certificate=CompatibilityCertificate()),
        principal("shifted", "F", 7, [3], d=2, s=1),
        undecomposed,
    ]
    for b in refused:
        with pytest.raises(BoundRefused) as bound:
            main_theorem_bound(b)
        with pytest.raises(BoundRefused) as ledger:
            filtration_ledger(b)
        assert ledger.value.reason == bound.value.reason
    assert "fiber has no cone decomposition" in ledger.value.reason
    assert filtration_ledger(principal("b", "F", 7, [3])).total_bound == (
        main_theorem_bound(principal("b", "F", 7, [3]))
    )
