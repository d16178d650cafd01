"""Orbit-type sets and stratification graphs for concrete bundles.

Combines label enumeration with the per-manifold solvability criteria to
decide which Howe-subgroup labels occur as orbit types of the pointed
gauge orbit space of a given SU(n)-bundle, and restricts the subgroup
order to the present labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import diophantine as dio
from .labels import HasseDiagram, HoweLabel, covering_relation, enumerate_labels


class Manifold(str, Enum):
    S4 = "s4"
    S2XS2 = "s2xs2"
    T4 = "t4"
    CP2 = "cp2"
    DIM2 = "dim2"
    DIM3 = "dim3"


@dataclass(frozen=True)
class BundleSpec:
    """A principal SU(n)-bundle over one of the supported base manifolds.

    `c2` is the integer Chern number c_P (second Chern class in units of
    the generator); it must be 0 for dim-2/3 bases, where every bundle is
    trivial.
    """

    n: int
    manifold: Manifold
    c2: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        self.check_c2(self.manifold, self.c2)

    @staticmethod
    def check_c2(manifold: Manifold, c2: int) -> None:
        """Refuse c2 != 0 over a dim-2/3 base, where every bundle is trivial."""
        if manifold in (Manifold.DIM2, Manifold.DIM3) and c2 != 0:
            raise ValueError(f"bundles over {manifold.value} are trivial; c2 must be 0, got {c2}")


@dataclass(frozen=True)
class StratumAnnotation:
    label: HoweLabel
    d_s4: int
    d_s2xs2: int
    present: bool
    criterion: str


def _divides(d: int, c: int) -> bool:
    # gcd(empty) = 0 encodes "trivial bundle only": 0 divides only 0.
    return c == 0 if d == 0 else c % d == 0


_CRITERIA = {Manifold.S4: "linear-gcd", Manifold.S2XS2: "bilinear-gcd",
             Manifold.T4: "bilinear-gcd", Manifold.CP2: "quadratic-oracle",
             Manifold.DIM2: "dim<4-trivial", Manifold.DIM3: "dim<4-trivial"}


def annotate(label: HoweLabel, manifold: Manifold, c2: int,
             budget: int | None = None) -> StratumAnnotation:
    """Presence verdict plus divisor data for a single label."""
    ds4, ds2 = dio.d_s4(label), dio.d_s2xs2(label)
    criterion = _CRITERIA[manifold]
    # One presence test per criterion, each closing over what it decides on.
    # The CP^2 test looks dio.cp2_solvable up at call time, so a rebound
    # module attribute (a tracer's wrapper, say) is the one that runs.
    present = {
        "linear-gcd": lambda: _divides(ds4, c2),
        "bilinear-gcd": lambda: _divides(ds2, c2),
        "quadratic-oracle": lambda: dio.cp2_solvable(label, c2, budget=budget),
        "dim<4-trivial": lambda: True,
    }[criterion]
    return StratumAnnotation(label=label, d_s4=ds4, d_s2xs2=ds2, present=present(),
                             criterion=criterion)


def orbit_types(spec: BundleSpec, budget: int | None = None) -> list[StratumAnnotation]:
    """Annotations for every label of SU(spec.n), sorted by label."""
    return [annotate(label, spec.manifold, spec.c2, budget=budget)
            for label in enumerate_labels(spec.n)]


def type_count(spec: BundleSpec, budget: int | None = None) -> int:
    """Number of orbit types present for the bundle."""
    return sum(1 for ann in orbit_types(spec, budget=budget) if ann.present)


def stratification_graph(spec: BundleSpec, budget: int | None = None) -> HasseDiagram:
    """Covering relation of the induced order on the present labels."""
    present = [ann.label for ann in orbit_types(spec, budget=budget) if ann.present]
    return covering_relation(spec.n, present)
