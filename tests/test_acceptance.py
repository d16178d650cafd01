"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import itertools
import math
import random
import time

from gaugestrata.cli import main
from gaugestrata.diophantine import (cp2_solvable, d_s2xs2, d_s4, gcd_seq,
                                     jones_solvable, quad_value)
from gaugestrata.labels import (canonicalize, direct_successors, dual,
                                enumerate_labels, hasse_diagram, parse_label)
from gaugestrata.strata import BundleSpec, Manifold, orbit_types


def L(k, m):
    return canonicalize(k, m)


# Golden node annotations (d_S4, d_S2xS2) transcribed from the published
# Hasse diagrams for n = 2..5, keyed by (k, m) as printed there.
GOLDEN = {
    2: [((1,), (2,), 1, 1), ((1, 1), (1, 1), 0, 2), ((2,), (1,), 0, 0)],
    3: [((1,), (3,), 1, 1), ((1, 1), (1, 2), 1, 1), ((1, 1, 1), (1, 1, 1), 0, 1),
        ((2, 1), (1, 1), 0, 6), ((3,), (1,), 0, 0)],
    4: [((1,), (4,), 1, 1), ((1, 1), (1, 3), 1, 1), ((1, 1), (2, 2), 1, 1),
        ((1, 1, 1), (1, 1, 2), 1, 1), ((2, 1), (1, 2), 1, 1),
        ((1, 1, 1, 1), (1, 1, 1, 1), 0, 1), ((2,), (2,), 2, 2),
        ((1, 1, 2), (1, 1, 1), 0, 2), ((1, 3), (1, 1), 0, 12),
        ((2, 2), (1, 1), 0, 4), ((4,), (1,), 0, 0)],
    5: [((1,), (5,), 1, 1), ((1, 1), (1, 4), 1, 1), ((1, 1), (2, 3), 1, 1),
        ((1, 1, 1), (1, 1, 3), 1, 1), ((1, 1, 1), (1, 2, 2), 1, 1),
        ((2, 1), (1, 3), 1, 1), ((1, 1, 1, 1), (1, 1, 1, 2), 1, 1),
        ((2, 1, 1), (1, 1, 2), 1, 1), ((1, 1, 1, 1, 1), (1, 1, 1, 1, 1), 0, 1),
        ((1, 2), (1, 2), 2, 2), ((1, 3), (2, 1), 1, 1),
        ((1, 1, 1, 2), (1, 1, 1, 1), 0, 1), ((1, 1, 3), (1, 1, 1), 0, 1),
        ((1, 2, 2), (1, 1, 1), 0, 2), ((1, 4), (1, 1), 0, 20),
        ((2, 3), (1, 1), 0, 30), ((5,), (1,), 0, 0)],
}


def test_criterion_1_golden_divisor_table():
    start = time.perf_counter()
    total = 0
    for n, rows in GOLDEN.items():
        expected = {}
        for k, m, ds4, ds2 in rows:
            expected[L(k, m)] = (ds4, ds2)
        assert set(expected) == set(enumerate_labels(n))
        for label, (ds4, ds2) in expected.items():
            assert d_s4(label) == ds4, f"{label}: d_S4 {d_s4(label)} != {ds4}"
            assert d_s2xs2(label) == ds2, f"{label}: d_S2xS2 {d_s2xs2(label)} != {ds2}"
        total += len(rows)
    elapsed = time.perf_counter() - start
    assert total == 36
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: 36 golden (d_S4, d_S2xS2) pairs for n=2..5 [{elapsed:.3f}s]")


def test_criterion_2_hasse_structure():
    start = time.perf_counter()
    for n, count in [(2, 3), (3, 5), (4, 11), (5, 17)]:
        assert len(hasse_diagram(n).nodes) == count
    center = L((1,), (4,))
    j1, j2 = L((1, 1), (1, 3)), L((1, 1), (2, 2))
    j11 = L((1, 1, 1), (1, 1, 2))
    assert direct_successors(center) == {j1, j2}
    assert j11 in direct_successors(j1)
    assert j11 in direct_successors(j2)
    assert L((2,), (2,)) in direct_successors(j2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 2: node counts 3/5/11/17 and SU(4) covering edges [{elapsed:.3f}s]")


def test_criterion_3_worked_example_via_check(capsys):
    from gaugestrata.diophantine import gcd_seq, l_coefficients

    start = time.perf_counter()
    label = parse_label("(4 4 6|1 1 2)")
    assert label.n == 20
    assert gcd_seq(label.k) == 2
    assert d_s4(label) == 6
    assert gcd_seq(l_coefficients(label)) == 4
    assert d_s2xs2(label) == 2
    code = main(["check", "(4 4 6|1 1 2)", "s2xs2", "3"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert "gcd(k) = 2" in out
    assert "gcd(red k) = 6" in out
    assert "gcd(L) = 4" in out
    assert "d_S2xS2 = 2" in out
    assert elapsed < 0.1
    print(f"PASS criterion 3: K(20) worked example via check [{elapsed:.4f}s]")


def test_criterion_4_cp2_closed_forms():
    start = time.perf_counter()
    torus2 = L((1, 1), (1, 1))
    for c in range(-100, 101):
        expect = c <= 0 and math.isqrt(-c) ** 2 == -c
        assert cp2_solvable(torus2, c) == expect
    block3 = L((2, 1), (1, 1))
    solvable3 = {0, 3, 12, 27, 48, 75}
    for c in range(-100, 101):
        assert cp2_solvable(block3, c) == (-c in solvable3 and c <= 0)
    torus3 = L((1, 1, 1), (1, 1, 1))
    for c in (1, 3, 4, 7, 9, 12):
        assert cp2_solvable(torus3, -c)
    for c in (2, 5, 6, 8, 10, 11):
        assert not cp2_solvable(torus3, -c)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 4: CP^2 closed-form presence for n=2,3 [{elapsed:.3f}s]")


def test_criterion_5_oracle_jones_equivalence():
    start = time.perf_counter()
    torus3 = L((1, 1, 1), (1, 1, 1))
    for c in range(0, 5001):
        assert cp2_solvable(torus3, -c) == jones_solvable(-c), f"-c_p = {c}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 5: oracle agrees with Jones conditions on 0..5000 [{elapsed:.3f}s]")


def test_criterion_6_property_suite():
    start = time.perf_counter()

    # duality involution and order-antiisomorphism, n <= 6
    for n in range(2, 7):
        diagram = hasse_diagram(n)
        for j in diagram.nodes:
            assert dual(dual(j)) == j
        assert diagram.edges == {(dual(b), dual(a)) for a, b in diagram.edges}

    # divisor chain, n <= 8
    for n in range(2, 9):
        for j in enumerate_labels(n):
            ds4, ds2 = d_s4(j), d_s2xs2(j)
            assert ds4 == 0 if ds2 == 0 else ds4 % ds2 == 0

    # constraint-surface identity: 200 random constrained vectors per label
    rng = random.Random(20)
    for n in range(2, 9):
        for j in enumerate_labels(n):
            if j.r > 5:
                continue
            if j.r == 1:
                vectors = [(0,)] * 200
            else:
                # kt_q*e_p - kt_p*e_q for p < q, with kt = k / gcd(k)
                g = gcd_seq(j.k)
                gens = []
                for p, q in itertools.combinations(range(j.r), 2):
                    gen = [0] * j.r
                    gen[p], gen[q] = j.k[q] // g, -j.k[p] // g
                    gens.append(gen)
                vectors = []
                for _ in range(200):
                    t = [rng.randint(-5, 5) for _ in gens]
                    vectors.append(tuple(
                        sum(ti * g[i] for ti, g in zip(t, gens))
                        for i in range(j.r)))
            for a in vectors:
                assert sum(ki * ai for ki, ai in zip(j.k, a)) == 0
                ssq = sum(ki * ai * ai for ki, ai in zip(j.k, a))
                assert quad_value(j, a) == -ssq // 2

    # present-set(S4) contained in present-set(S2xS2), n <= 6, |c_P| <= 20
    for n in range(2, 7):
        for c2 in range(-20, 21):
            s4 = {a.label for a in orbit_types(BundleSpec(n=n, manifold=Manifold.S4, c2=c2))
                  if a.present}
            s2 = {a.label for a in orbit_types(BundleSpec(n=n, manifold=Manifold.S2XS2, c2=c2))
                  if a.present}
            assert s4 <= s2

    # trivial bundle: full label set on all four 4-manifolds, n <= 4
    for n in range(2, 5):
        full = set(enumerate_labels(n))
        for manifold in (Manifold.S4, Manifold.S2XS2, Manifold.T4, Manifold.CP2):
            present = {a.label for a in orbit_types(BundleSpec(n=n, manifold=manifold, c2=0))
                       if a.present}
            assert present == full

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"PASS criterion 6: property suite [{elapsed:.3f}s]")


def test_criterion_7_low_dimensions():
    start = time.perf_counter()
    for n in range(2, 9):
        full = set(enumerate_labels(n))
        for manifold in (Manifold.DIM2, Manifold.DIM3):
            anns = orbit_types(BundleSpec(n=n, manifold=manifold))
            assert {a.label for a in anns} == full
            assert all(a.present for a in anns)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 7: Type = Howe(SU(n)) in dimensions 2 and 3, n <= 8 [{elapsed:.3f}s]")
