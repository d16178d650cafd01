import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugestrata.diophantine import (BudgetExceededError, _kernel_basis,
                                     cp2_solvable, d_s2xs2, d_s4, gcd_seq,
                                     jones_solvable, l_coefficients, quad_value,
                                     reduced_k)
from gaugestrata.labels import canonicalize, enumerate_labels


def L(k, m):
    return canonicalize(k, m)


def quad_brute(k, a):
    """Independent oracle for Q: the literal double sum, halved exactly."""
    twice = sum(k[i] * (k[j] - (i == j)) * a[i] * a[j]
                for i in range(len(k)) for j in range(len(k)))
    assert twice % 2 == 0
    return twice // 2


def pairwise_generators(k):
    """kt_q*e_p - kt_p*e_q for each p < q, with kt = k / gcd(k): integer
    combinations of these give every solution of sum(k_i * a_i) = 0."""
    g = gcd_seq(k)
    gens = []
    for p, q in itertools.combinations(range(len(k)), 2):
        vec = [0] * len(k)
        vec[p], vec[q] = k[q] // g, -k[p] // g
        gens.append(vec)
    return gens


def constrained_vectors(label, count, rng, coeff_bound=5):
    """Random integer solutions of sum(k_i * a_i) = 0."""
    if label.r == 1:
        return [(0,)] * count
    gens = pairwise_generators(label.k)
    out = []
    for _ in range(count):
        t = [rng.randint(-coeff_bound, coeff_bound) for _ in gens]
        out.append(tuple(sum(ti * g[i] for ti, g in zip(t, gens))
                         for i in range(label.r)))
    return out


class TestGcdSeq:
    def test_worked_example(self):
        assert gcd_seq((4, 4, 6)) == 2

    def test_empty_is_zero(self):
        assert gcd_seq(()) == 0

    def test_singleton(self):
        assert gcd_seq((7,)) == 7


class TestReducedK:
    def test_drops_m1_positions(self):
        assert reduced_k(L((4, 4, 6), (1, 1, 2))) == (6,)

    def test_all_m1(self):
        assert reduced_k(L((1, 1), (1, 1))) == ()

    def test_single_factor(self):
        assert reduced_k(L((1,), (5,))) == (1,)


class TestDS4:
    @pytest.mark.parametrize("k,m,expect", [
        ((2,), (2,), 2),
        ((1, 1), (1, 1), 0),
        ((1, 1), (1, 3), 1),
        ((4, 4, 6), (1, 1, 2), 6),
    ])
    def test_values(self, k, m, expect):
        assert d_s4(L(k, m)) == expect


class TestLCoefficients:
    def test_worked_example(self):
        assert l_coefficients(L((4, 4, 6), (1, 1, 2))) == (24, 32, 60, 60)

    def test_pair(self):
        assert l_coefficients(L((2, 1), (1, 1))) == (6,)

    def test_r1_empty(self):
        assert l_coefficients(L((5,), (1,))) == ()
        assert l_coefficients(L((2,), (2,))) == ()


class TestDS2xS2:
    @pytest.mark.parametrize("k,m,expect", [
        ((4, 4, 6), (1, 1, 2), 2),
        ((1, 3), (1, 1), 12),
        ((2, 3), (1, 1), 30),
        ((1, 1), (1, 1), 2),
    ])
    def test_values(self, k, m, expect):
        assert d_s2xs2(L(k, m)) == expect

    @pytest.mark.parametrize("n", range(2, 9))
    def test_divides_d_s4(self, n):
        for j in enumerate_labels(n):
            ds4, ds2 = d_s4(j), d_s2xs2(j)
            assert ds4 == 0 if ds2 == 0 else ds4 % ds2 == 0


def lattice_coordinates(basis, targets):
    """Rational coordinates of each target on the basis vectors, or None
    when the vectors are dependent or a target is not in their span
    (Gauss-Jordan over Q, all targets at once)."""
    m = len(basis)
    rows = [[Fraction(v[i]) for v in basis] + [Fraction(w[i]) for w in targets]
            for i in range(len(targets[0]))]
    for col in range(m):
        piv = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i, row in enumerate(rows):
            if i != col and row[col]:
                rows[i] = [x - row[col] * y for x, y in zip(row, rows[col])]
    if any(x for row in rows[m:] for x in row[m:]):
        return None
    return [[row[m + t] for row in rows[:m]] for t in range(len(targets))]


class TestKernelBasis:
    def test_two_entries(self):
        basis = _kernel_basis((2, 1))
        assert len(basis) == 1 and basis[0] in ([1, -2], [-1, 2])

    def test_single_entry_has_empty_basis(self):
        assert _kernel_basis((5,)) == []

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=7))
    @settings(max_examples=100, deadline=None)
    def test_basis_of_kernel_lattice(self, k):
        basis = _kernel_basis(k)
        assert len(basis) == len(k) - 1
        for vec in basis:
            assert sum(ki * vi for ki, vi in zip(k, vec)) == 0
        # The basis spans the whole lattice: every pairwise generator is an
        # integer combination of it (a basis of a proper sublattice fails).
        if len(k) > 1:
            coords = lattice_coordinates(basis, pairwise_generators(k))
            assert coords is not None, k
            assert all(c.denominator == 1 for cs in coords for c in cs), (k, coords)

    def test_doubled_vector_spans_sublattice(self):
        # The span check above rejects a basis of an index-2 sublattice.
        k = (3, 2, 2)
        basis = _kernel_basis(k)
        basis[0] = [2 * x for x in basis[0]]
        coords = lattice_coordinates(basis, pairwise_generators(k))
        assert any(c.denominator != 1 for cs in coords for c in cs)


class TestQuadValue:
    def test_unit_triple(self):
        assert quad_value(L((1, 1, 1), (1, 1, 1)), (1, -1, 0)) == -1

    def test_zero_vector(self):
        assert quad_value(L((4, 4, 6), (1, 1, 2)), (0, 0, 0)) == 0

    def test_two_one(self):
        assert quad_value(L((2, 1), (1, 1)), (1, -2)) == -3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            quad_value(L((1, 1), (1, 1)), (1, 2, 3))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_double_sum_oracle(self, data):
        n = data.draw(st.integers(2, 6))
        labels = enumerate_labels(n)
        j = data.draw(st.sampled_from(labels))
        a = tuple(data.draw(st.integers(-8, 8)) for _ in range(j.r))
        assert quad_value(j, a) == quad_brute(j.k, a)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_constraint_surface_identity(self, n):
        rng = random.Random(n)
        for j in enumerate_labels(n):
            if j.r > 5:
                continue
            for a in constrained_vectors(j, 20, rng):
                ssq = sum(ki * ai * ai for ki, ai in zip(j.k, a))
                assert ssq % 2 == 0
                assert quad_value(j, a) == -ssq // 2


def cp2_brute(label, c_p, box):
    """Box-search oracle for the g = 0 case (all m_i = 1, so b is forced to 0)."""
    r = label.r
    for a in itertools.product(range(-box, box + 1), repeat=r):
        if sum(ki * ai for ki, ai in zip(label.k, a)) != 0:
            continue
        if quad_brute(label.k, a) == c_p:
            return True
    return False


def cp2_pairwise(label, c_p):
    """The modular search for g > 0 over Z_g^(r(r-1)/2), one coordinate per
    pairwise generator."""
    g, k, r = d_s4(label), label.k, label.r
    gens = pairwise_generators(k)
    for t in itertools.product(range(g), repeat=len(gens)):
        a = [sum(ti * gen[i] for ti, gen in zip(t, gens)) for i in range(r)]
        if (c_p + sum(ki * ai * ai for ki, ai in zip(k, a)) // 2) % g == 0:
            return True
    return False


def zero_sum_box(label, target):
    """The g = 0 box search that the state merge replaced, without its
    budget: the first r-2 coordinates range over the box
    k_i*a_i^2 <= remaining target, the last two are solved in closed form."""
    k, r = label.k, label.r
    if r == 1:
        return target == 0
    kp, kq = k[-2], k[-1]

    def last_two(lin_t, quad_r):
        # Solve kp*a + kq*b = lin_t, kp*a^2 + kq*b^2 = quad_r.
        if quad_r < 0:
            return False
        disc = 4 * kp * kq * (quad_r * (kp + kq) - lin_t * lin_t)
        if disc < 0:
            return False
        root = math.isqrt(disc)
        if root * root != disc:
            return False
        den = 2 * kq * (kq + kp)
        for num in (2 * lin_t * kq + root, 2 * lin_t * kq - root):
            if num % den:
                continue
            b = num // den
            rem = lin_t - kq * b
            if rem % kp:
                continue
            a = rem // kp
            if kp * a + kq * b == lin_t and kp * a * a + kq * b * b == quad_r:
                return True
        return False

    def descend(i, lin, quad):
        if i == r - 2:
            return last_two(-lin, target - quad)
        bound = math.isqrt((target - quad) // k[i])
        for ai in range(-bound, bound + 1):
            if descend(i + 1, lin + k[i] * ai, quad + k[i] * ai * ai):
                return True
        return False

    return descend(0, 0, 0)


class TestCP2Solvable:
    def test_n2_squares(self):
        j = L((1, 1), (1, 1))
        assert cp2_solvable(j, -4)
        assert not cp2_solvable(j, -2)
        for c in range(-30, 31):
            expect = c <= 0 and math.isqrt(-c) ** 2 == -c
            assert cp2_solvable(j, c) == expect

    def test_three_times_square(self):
        j = L((2, 1), (1, 1))
        assert cp2_solvable(j, -3)
        assert not cp2_solvable(j, -6)

    def test_gcd_one_always_present(self):
        j = L((1, 1), (1, 2))
        for c in range(-10, 11):
            assert cp2_solvable(j, c)

    def test_unit_triple_lists(self):
        j = L((1, 1, 1), (1, 1, 1))
        for c in (1, 3, 4, 7, 9, 12):
            assert cp2_solvable(j, -c)
        for c in (2, 5, 6, 8, 10, 11):
            assert not cp2_solvable(j, -c)

    def test_zero_always_solvable(self):
        for n in range(2, 6):
            for j in enumerate_labels(n):
                assert cp2_solvable(j, 0)

    def test_positive_cp_with_g0(self):
        assert not cp2_solvable(L((1, 1), (1, 1)), 5)

    def test_r1_divisibility(self):
        j = L((2,), (2,))  # g = 2, no free parameters
        for c in range(-9, 10):
            assert cp2_solvable(j, c) == (c % 2 == 0)

    def test_full_group_label(self):
        j = L((4,), (1,))  # g = 0, only the trivial bundle
        assert cp2_solvable(j, 0)
        assert not cp2_solvable(j, -1)

    def test_g2_pair_even_only(self):
        # 2b + Q(a) = c with k = (2,2): Q(a) = -2*a1^2 on the surface,
        # so exactly the even c are attained.
        j = L((2, 2), (2, 2))
        for c in range(-12, 13):
            assert cp2_solvable(j, c) == (c % 2 == 0)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_box_oracle_g0(self, n):
        for j in enumerate_labels(n):
            if d_s4(j) != 0:
                continue
            for c in range(-12, 1):
                assert cp2_solvable(j, c) == cp2_brute(j, c, box=5)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_box_search_g0(self, n):
        # Merging prefixes with equal (|linear sum|, square sum) gives the
        # verdicts of the box search over every prefix.
        for j in enumerate_labels(n):
            if d_s4(j) != 0:
                continue
            for c in range(-80, 0):
                assert cp2_solvable(j, c) == zero_sum_box(j, -2 * c), (j, c)

    def test_g0_n16_large_c2_default_budget(self):
        assert cp2_solvable(L((1,) * 16, (1,) * 16), -1000)

    def test_g0_budget_counts_steps_and_solves(self):
        # target 10: 7 steps for a_1 in [-3, 3], then one closed-form solve
        # for each of |a_1| = 0, 1, 2 (|a_1| = 3 leaves no room); none succeeds.
        j = L((1, 1, 1), (1, 1, 1))
        with pytest.raises(BudgetExceededError):
            cp2_solvable(j, -5, budget=9)
        assert not cp2_solvable(j, -5, budget=10)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_pairwise_search(self, n):
        # The g^(r-1) search on a kernel basis gives the verdicts of the
        # g^(r(r-1)/2) search over all pairwise generators.
        for j in enumerate_labels(n):
            if d_s4(j) == 0:
                continue
            for c in range(-20, 13):
                assert cp2_solvable(j, c) == cp2_pairwise(j, c), (j, c)

    def test_n11_label_answers_with_witnesses(self):
        # 2^28 pairwise points, 2^7 kernel coordinates.
        j = L((2,) + (1,) * 7, (2,) + (1,) * 7)
        g = d_s4(j)
        witness = {}
        for a in itertools.product(range(-1, 2), repeat=j.r):
            if sum(ki * ai for ki, ai in zip(j.k, a)) == 0:
                ssq = sum(ki * ai * ai for ki, ai in zip(j.k, a))
                witness.setdefault(ssq // 2 % g, a)
        for c in range(-12, 13):
            if cp2_solvable(j, c):
                a = witness[-c % g]
                assert (c + sum(ki * ai * ai for ki, ai in zip(j.k, a)) // 2) % g == 0

    def test_budget_exceeded(self):
        j = L((30, 30, 30, 30), (2, 2, 2, 2))
        with pytest.raises(BudgetExceededError) as err:
            cp2_solvable(j, 5, budget=10)
        assert "(30 30 30 30|2 2 2 2)" in str(err.value)
        assert err.value.required == 30**3

    def test_box_search_budget(self):
        j = L((1, 1, 1, 1), (1, 1, 1, 1))  # g = 0
        with pytest.raises(BudgetExceededError) as err:
            cp2_solvable(j, -200, budget=10)
        assert err.value.required is None
        assert str(err.value) == ("search for label (1 1 1 1|1 1 1 1) needs more "
                                  "iterations, budget is 10")
        assert cp2_solvable(j, -200)

    def test_budget_must_be_positive(self):
        # A modular search, the g = 0 search (d_S4 = 0) and r = 1 alike.
        for j, c in ((L((2, 2), (2, 2)), 4), (L((1, 1), (1, 1)), -3), (L((2,), (2,)), 4)):
            for budget in (0, "abc"):
                with pytest.raises(ValueError, match="positive integer"):
                    cp2_solvable(j, c, budget=budget)

    def test_budget_env_override(self, monkeypatch):
        j = L((2, 2), (2, 2))  # needs 2 iterations
        monkeypatch.setenv("STRATA_BUDGET", "1")
        with pytest.raises(BudgetExceededError):
            cp2_solvable(j, 4)
        monkeypatch.setenv("STRATA_BUDGET", "100")
        assert cp2_solvable(j, 4)


class TestJones:
    def test_examples(self):
        assert jones_solvable(-12)
        assert not jones_solvable(-11)
        assert jones_solvable(0)

    def test_published_lists(self):
        for c in (1, 3, 4, 7, 9, 12):
            assert jones_solvable(-c)
        for c in (2, 5, 6, 8, 10, 11):
            assert not jones_solvable(-c)

    def test_positive_unsolvable(self):
        assert not jones_solvable(3)

    def test_matches_direct_representation(self):
        # Oracle: brute search of -(a1^2 + a1 a2 + a2^2) = c_p.
        for c in range(0, 200):
            box = math.isqrt(c) + 1
            brute = any(a * a + a * b + b * b == c
                        for a in range(-box, box + 1) for b in range(-box, box + 1))
            assert jones_solvable(-c) == brute, f"-c_p = {c}"
