"""Cone decompositions, fibre-bundle compatibility certificates, and the
upper bounds they justify for the strong (cone-length) category.

A cone decomposition of F is a chain * = F_0 < F_1 < ... < F_m = F where each
step attaches a single cone; its length m bounds Cat F.  For a fibre bundle
F -> X -> B whose base is (d-1)-connected of dimension dimB, with cells
concentrated in dimensions 0..s mod d, a stagewise-compressible decomposition
of the fibre (recorded here as a certificate) gives
Cat X <= m + floor(dimB / d).  Without any certificate only the coarse
product-style bound (Cat F + 1)(Cat B + 1) - 1 applies.

The records below check the theorem's hypotheses when they are built; the
parser and the linker report a ConeError's text as it stands.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ConeError(ValueError):
    """Malformed decomposition or bundle record."""


class BoundRefused(RuntimeError):
    """A bound was requested whose hypotheses are not certified."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class ConeStage:
    """Stage i attaches the cone on some complex K_i; attach_dim is the
    dimension of C(K_i), i.e. of the new top cells.  skeleton marks stages
    that are literal skeleta of the decomposed space."""

    index: int
    attach_dim: int
    description: str = ""
    skeleton: bool = False


@dataclass(frozen=True)
class ConeDecomposition:
    space: str
    stages: tuple[ConeStage, ...] = ()

    def __post_init__(self):
        for k, st in enumerate(self.stages, start=1):
            if st.index != k:
                raise ConeError(
                    f"space {self.space!r}: stages must be numbered 1..m in order"
                )
            if st.attach_dim < 1:
                raise ConeError(
                    f"space {self.space!r}: stage {st.index} needs dim >= 1"
                )

    @property
    def length(self) -> int:
        return len(self.stages)

    def all_skeletal(self) -> bool:
        return all(st.skeleton for st in self.stages)


#: Certificate kinds, weakest to strongest claims that the structure-group
#: action compresses stagewise into the fiber filtration.
CERTIFICATE_KINDS = ("none", "skeletal", "trivial", "verified")


@dataclass(frozen=True)
class CompatibilityCertificate:
    kind: str = "none"
    reason: str = ""

    def __post_init__(self):
        if self.kind not in CERTIFICATE_KINDS:
            raise ConeError(f"unknown certificate kind {self.kind!r}")
        if self.kind == "verified" and not self.reason.strip():
            raise ConeError("a verified certificate needs a nonempty reason")


@dataclass(frozen=True)
class BundleRecord:
    """F -> total -> base with structure group G; d, s describe the base's
    cell structure (base is (d-1)-connected, cells in dims 0..s mod d)."""

    name: str
    total: str
    fiber: str
    base: str
    structure_group: str
    d: int
    s: int
    # the linker fills these two in from the base and fiber spaces
    base_dim: int = 0
    fiber_decomposition: ConeDecomposition | None = None
    certificate: CompatibilityCertificate = field(
        default_factory=CompatibilityCertificate
    )

    kind = "bundle"

    def __post_init__(self):
        # the theorem's cell hypothesis: period d >= 1, residues 0 <= s <= d-1
        if self.d < 1:
            raise ConeError(f"bundle {self.name!r}: d must be >= 1")
        if not 0 <= self.s <= self.d - 1:
            raise ConeError(f"bundle {self.name!r}: s must satisfy 0 <= s <= d-1")
        if self.base_dim < 0:
            raise ConeError(f"bundle {self.name!r}: base dimension must be >= 0")
        if self.base_dim != 0 and self.base_dim < self.d:
            raise ConeError(
                f"bundle {self.name!r}: base dim {self.base_dim} is smaller "
                f"than the cell period {self.d}"
            )


@dataclass(frozen=True)
class Verdict:
    passed: bool
    rule: str | None
    reason: str


def james_ganea_bound(dim: int, d: int) -> int:
    """Cat of a (d-1)-connected complex of the given dimension is at most
    floor(dim/d)."""
    if d < 1:
        raise ConeError("d must be >= 1")
    if dim < 0:
        raise ConeError("dimension must be >= 0")
    return dim // d


def check_compatibility(bundle: BundleRecord) -> Verdict:
    """Decide whether the recorded certificate licenses the stagewise bound.

    skeletal: principal bundle (fiber = structure group) whose stages are all
    declared skeleta, with s = 0.  trivial: trivial structure group, any
    decomposition.  verified: a recorded ad-hoc argument.  Inconsistent
    certificates fail with the inconsistency spelled out.
    """
    cert = bundle.certificate
    if cert.kind == "none":
        return Verdict(False, None, "no compatibility certificate recorded")
    if cert.kind == "skeletal":
        problems = []
        if bundle.s != 0:
            problems.append(f"s = {bundle.s} but the skeletal rule needs s = 0")
        if bundle.fiber != bundle.structure_group:
            problems.append(
                f"fiber {bundle.fiber!r} differs from structure group "
                f"{bundle.structure_group!r}"
            )
        dec = bundle.fiber_decomposition
        if dec is None:
            problems.append("fiber has no cone decomposition")
        elif not dec.all_skeletal():
            problems.append("not every stage is a declared skeleton")
        if problems:
            return Verdict(
                False, None, "inconsistent skeletal certificate: " + "; ".join(problems)
            )
        return Verdict(True, "skeletal", "principal bundle, skeletal stages, s = 0")
    if cert.kind == "trivial":
        if bundle.structure_group != "trivial":
            return Verdict(
                False,
                None,
                "inconsistent trivial-bundle certificate: structure group is "
                f"{bundle.structure_group!r}",
            )
        return Verdict(
            True, "trivialBundle", "trivial structure group; any decomposition works"
        )
    # verified
    return Verdict(True, "verified", cert.reason)


def main_theorem_bound(bundle: BundleRecord) -> int:
    """Cat(total) <= m + floor(base_dim / d) for a certified bundle; refuses
    (with the verdict's reason) when no certificate passes."""
    verdict = check_compatibility(bundle)
    if not verdict.passed:
        raise BoundRefused(
            f"bundle {bundle.name!r}: {verdict.reason}"
        )
    dec = bundle.fiber_decomposition
    if dec is None:
        raise BoundRefused(
            f"bundle {bundle.name!r}: fiber has no cone decomposition"
        )
    return dec.length + james_ganea_bound(bundle.base_dim, bundle.d)


def product_bound(cat_x: int, cat_y: int) -> int:
    """Cat(X x Y) <= Cat X + Cat Y."""
    if cat_x < 0 or cat_y < 0:
        raise ConeError("Cat bounds must be >= 0")
    return cat_x + cat_y


def general_bundle_bound(cat_fiber: int, cat_base: int) -> int:
    """Cat(total) <= (Cat F + 1)(Cat B + 1) - 1, with no compatibility
    hypothesis at all."""
    if cat_fiber < 0 or cat_base < 0:
        raise ConeError("Cat bounds must be >= 0")
    return (cat_fiber + 1) * (cat_base + 1) - 1


@dataclass(frozen=True)
class LedgerStage:
    """Stage k of the filtration of the total space: the pieces glued on at
    that stage, as pairs (i, j) meaning C(A_i) x C(K_j), with i = 0 or j = 0
    for the one-sided pieces.  dims holds dim(piece), aligned with pieces."""

    k: int
    pieces: tuple[tuple[int, int], ...]
    dims: tuple[int, ...]


@dataclass(frozen=True)
class FiltrationLedger:
    bundle: str
    n: int
    m: int
    stages: tuple[LedgerStage, ...]

    @property
    def total_bound(self) -> int:
        return self.n + self.m


def filtration_ledger(bundle: BundleRecord) -> FiltrationLedger:
    """Expand the stagewise filtration behind the certified bundle bound:
    stage k glues the pieces {(i,j) : i+j = k, 0 <= i <= n, 0 <= j <= m},
    minus (0,0), where n = floor(base_dim/d) and m is the decomposition
    length.  A_i is (d*i - 2)-connected of dimension d*i + s - 1, so the
    piece C(A_i) x C(K_j) has dimension d*i + s + attach_dim(j)."""
    main_theorem_bound(bundle)  # refuses exactly where the bound refuses
    dec = bundle.fiber_decomposition
    n = james_ganea_bound(bundle.base_dim, bundle.d)
    m = dec.length
    attach = {st.index: st.attach_dim for st in dec.stages}
    stages = []
    for k in range(1, n + m + 1):
        pieces = []
        dims = []
        for i in range(max(0, k - m), min(n, k) + 1):
            j = k - i
            if (i, j) == (0, 0):
                continue
            pieces.append((i, j))
            dim = 0
            if i > 0:
                dim += bundle.d * i + bundle.s
            if j > 0:
                dim += attach[j]
            dims.append(dim)
        stages.append(LedgerStage(k, tuple(pieces), tuple(dims)))
    return FiltrationLedger(bundle.name, n, m, tuple(stages))
