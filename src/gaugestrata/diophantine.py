"""Solvability criteria for the characteristic bundle-reduction equations.

For a label J = (k, m) the presence of the corresponding orbit type over a
given 4-manifold reduces to an integer divisibility or representability
question:

* S^4: a linear equation, solvable iff gcd(red k) divides the Chern number.
* S^2 x S^2 and T^4: a bilinear equation, controlled by the gcd of the
  form's coefficients together with gcd(red k).
* CP^2: a quadratic form subject to a linear constraint; decided here by
  an exact modular search on a kernel basis when gcd(red k) > 0, and by a
  search over merged (linear sum, square sum) states when gcd(red k) = 0,
  with a closed-form cross-check for the maximal torus case.

All arithmetic is exact (Python integers).
"""

from __future__ import annotations

import itertools
import math
import os

from .labels import HoweLabel, format_label

DEFAULT_BUDGET = 10_000_000
BUDGET_ENV_VAR = "STRATA_BUDGET"


class BudgetExceededError(RuntimeError):
    """A finite search would exceed the configured iteration budget.

    `required` is the size of the search when it is known before the search
    starts, and None when the search stopped on passing the budget.
    """

    def __init__(self, label: HoweLabel, required: int | None, budget: int):
        self.label = label
        self.required = required
        self.budget = budget
        need = "more iterations" if required is None else f"{required} iterations"
        super().__init__(
            f"search for label {format_label(label)} needs {need}, budget is {budget}")


def _resolve_budget(budget: int | None) -> int:
    if budget is None:
        budget = os.environ.get(BUDGET_ENV_VAR, DEFAULT_BUDGET)
    if not str(budget).strip().isdecimal() or int(budget) < 1:
        raise ValueError(f"budget ({BUDGET_ENV_VAR}) must be a positive integer, got {budget!r}")
    return int(budget)


def gcd_seq(seq) -> int:
    """gcd of a sequence of nonnegative integers, with gcd of nothing = 0."""
    return math.gcd(*seq)


def reduced_k(label: HoweLabel) -> tuple[int, ...]:
    """Subsequence of k at positions where m_i != 1 (possibly empty)."""
    return tuple(ki for ki, mi in label.pairs if mi != 1)


def d_s4(label: HoweLabel) -> int:
    """Divisor deciding presence over S^4: gcd(red k)."""
    return gcd_seq(reduced_k(label))


def l_coefficients(label: HoweLabel) -> tuple[int, ...]:
    """Nonzero bilinear-form coefficients, up to sign, sorted ascending.

    With g = gcd(k) and kt_i = k_i / g these are g*kt_a*kt_b*(kt_a + kt_b)
    for each pair a < b, and g*kt_a*kt_b*kt_c for each triple a < b < c.
    Empty for r = 1.
    """
    r = label.r
    if r == 1:
        return ()
    g = gcd_seq(label.k)
    kt = [ki // g for ki in label.k]
    coeffs = []
    for a in range(r):
        for b in range(a + 1, r):
            coeffs.append(g * kt[a] * kt[b] * (kt[a] + kt[b]))
            for c in range(b + 1, r):
                coeffs.append(g * kt[a] * kt[b] * kt[c])
    return tuple(sorted(coeffs))


def d_s2xs2(label: HoweLabel) -> int:
    """Divisor deciding presence over S^2 x S^2 (and T^4)."""
    return math.gcd(d_s4(label), gcd_seq(l_coefficients(label)))


def _kernel_basis(k) -> list[list[int]]:
    """Basis of the lattice {a in Z^r : sum(k_i * a_i) = 0}, r - 1 vectors.

    Unimodular column operations reduce the row k to (gcd(k), 0, ..., 0)
    (Cohen, GTM 138, section 2.4); the columns whose entry ends at 0 span
    the kernel.
    """
    r = len(k)
    row = list(k)
    cols = [[int(i == j) for i in range(r)] for j in range(r)]
    while sum(1 for v in row if v) > 1:
        piv = min((j for j in range(r) if row[j]), key=lambda j: abs(row[j]))
        for j in range(r):
            if j != piv and row[j]:
                q = row[j] // row[piv]
                row[j] -= q * row[piv]
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[piv])]
    return [cols[j] for j in range(r) if row[j] == 0]


def quad_value(label: HoweLabel, a) -> int:
    """Exact value of Q(a) = 1/2 * sum_ij k_i (k_j - delta_ij) a_i a_j.

    The double sum collapses to (sum k_i a_i)^2 - sum k_i a_i^2, which is
    always even, so the halving is exact.
    """
    a = tuple(a)
    if len(a) != label.r:
        raise ValueError(f"vector length {len(a)} != r = {label.r}")
    s1 = sum(ki * ai for ki, ai in zip(label.k, a))
    twice = s1 * s1 - sum(ki * ai * ai for ki, ai in zip(label.k, a))
    assert twice % 2 == 0
    return twice // 2


def _zero_sum_representable(label: HoweLabel, target: int, budget: int) -> bool:
    """Decide whether sum(k_i*a_i) = 0 and sum(k_i*a_i^2) = target have a
    common integer solution, for target > 0.

    Prefixes of a with equal |sum k_i*a_i| and equal sum k_i*a_i^2 complete
    alike, so the first r-2 coordinates keep one dict from |sum k_i*a_i| to
    an int bitmask of the square sums reached, dropping those Cauchy-Schwarz
    rules out. The last two are solved in closed form (a quadratic in b after
    eliminating a via the linear equation), once per set bit. Every
    (state, a_i) step and every closed-form solve counts against the budget,
    and BudgetExceededError is raised once the count passes it.
    """
    k, r = label.k, label.r
    if r == 1:
        return target == 0
    kp, kq = k[-2], k[-1]
    visited = 0

    def last_two(lin_t: int, quad_r: int) -> bool:
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

    states = {0: 1}
    rest = sum(k)
    for ki in k[:-2]:
        rest -= ki
        merged: dict[int, int] = {}
        for lin, quads in states.items():
            least, most = (quads & -quads).bit_length() - 1, quads.bit_length() - 1
            bound = math.isqrt((target - least) // ki)
            visited += 2 * bound + 1
            if visited > budget:
                raise BudgetExceededError(label, None, budget)
            for ai in range(-bound, bound + 1):
                new, step = abs(lin + ki * ai), ki * ai * ai
                # Largest prefix square sum that leaves ceil(new^2 / rest) for the rest.
                room = target + (-new * new // rest) - step
                if room >= least:
                    kept = quads if room >= most else quads & ((2 << room) - 1)
                    merged[new] = merged.get(new, 0) | kept << step
        states = merged
    for lin, quads in states.items():
        while quads:
            visited += 1
            if visited > budget:
                raise BudgetExceededError(label, None, budget)
            low = quads & -quads
            if last_two(-lin, target - low.bit_length() + 1):
                return True
            quads ^= low
    return False


def cp2_solvable(label: HoweLabel, c_p: int, budget: int | None = None) -> bool:
    """Decide the CP^2 characteristic equation for the given Chern number.

    With g = gcd(red k), integers b and a are sought with sum(k_i*a_i) = 0
    and g*b + Q(a) = c_p. On the constraint surface Q(a) = -1/2*sum(k_i*a_i^2),
    so for g = 0 (b = 0) a search over merged prefix states decides whether
    the lattice holds a with sum(k_i*a_i^2) = -2*c_p. For g > 0 only
    a modulo g times the constraint lattice matters, so an exact search
    over the g^(r-1) coordinates of a on a kernel basis decides it.

    Raises BudgetExceededError when either search would exceed the
    iteration budget (default 10**7, overridable via STRATA_BUDGET): the
    modular search before it starts, the g = 0 search once its count of
    state steps and closed-form solves passes it.
    """
    budget = _resolve_budget(budget)
    g = d_s4(label)
    k, r = label.k, label.r
    if g == 0:
        # red k empty, i.e. all m_i = 1: b is forced to 0.
        return c_p == 0 or (c_p < 0 and _zero_sum_representable(label, -2 * c_p, budget))
    required = g ** (r - 1)
    if required > budget:
        raise BudgetExceededError(label, required, budget)
    if c_p % g == 0:  # the first point of the search, a = 0
        return True
    basis = _kernel_basis(k)
    for t in itertools.product(range(g), repeat=r - 1):
        a = [sum(ti * v[i] for ti, v in zip(t, basis)) for i in range(r)]
        if (c_p + sum(ki * ai * ai for ki, ai in zip(k, a)) // 2) % g == 0:
            return True
    return False


def jones_solvable(c_p: int) -> bool:
    """Closed-form solvability of -(a1^2 + a1*a2 + a2^2) = c_p.

    Solvable iff c_p <= 0 and, writing -c_p = 3^m * q with 3 not dividing q,
    q is not congruent to 2 mod 3, and every prime congruent to 5 or 11
    mod 12 divides -c_p to an even power. c_p = 0 is solvable (zero vector).
    """
    if c_p > 0:
        return False
    c = -c_p
    if c == 0:
        return True
    q = c
    while q % 3 == 0:
        q //= 3
    if q % 3 == 2:
        return False
    # Trial division; inputs are desk-scale.
    rest = c
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            exp = 0
            while rest % p == 0:
                rest //= p
                exp += 1
            if p % 12 in (5, 11) and exp % 2:
                return False
        p += 1 if p == 2 else 2
    if rest > 1 and rest % 12 in (5, 11):
        return False
    return True
