import pytest

from gaugestrata.diophantine import d_s2xs2, d_s4
from gaugestrata.labels import canonicalize, direct_successors, leq
from gaugestrata.strata import (BundleSpec, Manifold, orbit_types,
                                stratification_graph, type_count)


def L(k, m):
    return canonicalize(k, m)


def reachable(a):
    """Labels strictly above `a`, by search over the successor calculus."""
    seen, stack = set(), [a]
    while stack:
        for s in direct_successors(stack.pop()):
            if s not in seen:
                seen.add(s)
                stack.append(s)
    return seen


def present_set(spec):
    return {ann.label for ann in orbit_types(spec) if ann.present}


class TestBundleSpec:
    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            BundleSpec(n=1, manifold=Manifold.S4, c2=0)

    @pytest.mark.parametrize("manifold", [Manifold.DIM2, Manifold.DIM3])
    def test_low_dim_requires_trivial(self, manifold):
        BundleSpec(n=3, manifold=manifold, c2=0)
        with pytest.raises(ValueError):
            BundleSpec(n=3, manifold=manifold, c2=1)


class TestOrbitTypes:
    def test_s4_n2_c1(self):
        spec = BundleSpec(n=2, manifold=Manifold.S4, c2=1)
        assert present_set(spec) == {L((1,), (2,))}

    def test_s2xs2_n2_c2(self):
        spec = BundleSpec(n=2, manifold=Manifold.S2XS2, c2=2)
        assert present_set(spec) == {L((1,), (2,)), L((1, 1), (1, 1))}

    def test_dim3_everything(self):
        spec = BundleSpec(n=3, manifold=Manifold.DIM3)
        anns = orbit_types(spec)
        assert len(anns) == 5
        assert all(ann.present for ann in anns)
        assert all(ann.criterion == "dim<4-trivial" for ann in anns)

    def test_cp2_n3(self):
        spec = BundleSpec(n=3, manifold=Manifold.CP2, c2=-5)
        present = present_set(spec)
        assert L((1, 1, 1), (1, 1, 1)) not in present
        assert L((1, 1), (1, 2)) in present

    def test_annotations_rederivable(self):
        spec = BundleSpec(n=4, manifold=Manifold.S2XS2, c2=6)
        for ann in orbit_types(spec):
            assert ann.d_s4 == d_s4(ann.label)
            assert ann.d_s2xs2 == d_s2xs2(ann.label)
            expect = ann.d_s2xs2 != 0 and 6 % ann.d_s2xs2 == 0
            assert ann.present == expect
            assert ann.criterion == "bilinear-gcd"

    def test_t4_matches_s2xs2(self):
        for c2 in (-6, 0, 5):
            a = orbit_types(BundleSpec(n=4, manifold=Manifold.T4, c2=c2))
            b = orbit_types(BundleSpec(n=4, manifold=Manifold.S2XS2, c2=c2))
            assert [(x.label, x.present) for x in a] == [(y.label, y.present) for y in b]

    @pytest.mark.parametrize("manifold", [Manifold.S4, Manifold.S2XS2, Manifold.T4, Manifold.CP2])
    def test_minimum_always_present(self, manifold):
        for n in range(2, 7):
            for c2 in (-7, 1, 13):
                spec = BundleSpec(n=n, manifold=manifold, c2=c2)
                assert L((1,), (n,)) in present_set(spec)

    @pytest.mark.parametrize("manifold", [Manifold.S4, Manifold.S2XS2, Manifold.T4, Manifold.CP2])
    def test_maximum_present_iff_trivial(self, manifold):
        for n in range(2, 5):
            top = L((n,), (1,))
            assert top in present_set(BundleSpec(n=n, manifold=manifold, c2=0))
            assert top not in present_set(BundleSpec(n=n, manifold=manifold, c2=2))

    def test_sandwich_s4_in_s2xs2(self):
        for n in range(2, 7):
            for c2 in range(-20, 21):
                s4 = present_set(BundleSpec(n=n, manifold=Manifold.S4, c2=c2))
                s2 = present_set(BundleSpec(n=n, manifold=Manifold.S2XS2, c2=c2))
                assert s4 <= s2


class TestTypeCount:
    def test_dim2_full(self):
        assert type_count(BundleSpec(n=4, manifold=Manifold.DIM2)) == 11

    def test_s4_n2(self):
        assert type_count(BundleSpec(n=2, manifold=Manifold.S4, c2=1)) == 1
        assert type_count(BundleSpec(n=2, manifold=Manifold.S4, c2=0)) == 3


class TestStratificationGraph:
    def test_trivial_bundle_full_chain(self):
        g = stratification_graph(BundleSpec(n=2, manifold=Manifold.S4, c2=0))
        assert g.edges == {(L((1,), (2,)), L((1, 1), (1, 1))),
                           (L((1, 1), (1, 1)), L((2,), (1,)))}

    def test_single_node(self):
        g = stratification_graph(BundleSpec(n=2, manifold=Manifold.S4, c2=1))
        assert g.nodes == {L((1,), (2,))}
        assert g.edges == frozenset()

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("manifold,c2", [
        (m, c) for m in (Manifold.S4, Manifold.S2XS2, Manifold.T4, Manifold.CP2)
        for c in (0, -5, 6, -200)] + [(Manifold.S4, 2), (Manifold.DIM2, 0), (Manifold.DIM3, 0)])
    def test_covering_of_induced_order(self, n, manifold, c2):
        # Oracle: recompute the covering relation on the subset from
        # reachability over direct_successors, not from the bitset index.
        g = stratification_graph(BundleSpec(n=n, manifold=manifold, c2=c2))
        present = sorted(g.nodes)
        above = {a: reachable(a) for a in present}
        expected = set()
        for a in present:
            for b in present:
                if b not in above[a]:
                    continue
                if any(x in above[a] and b in above[x] for x in present):
                    continue
                expected.add((a, b))
        assert g.edges == expected
        assert all(leq(a, b) for a, b in g.edges)

    @pytest.mark.parametrize("c2", [-4, 2, 6])
    def test_acyclic_and_reduced(self, c2):
        g = stratification_graph(BundleSpec(n=5, manifold=Manifold.S2XS2, c2=c2))
        adj = {j: set() for j in g.nodes}
        for a, b in g.edges:
            adj[a].add(b)
        for a, b in g.edges:
            # no alternative path a -> ... -> b
            adj[a].discard(b)
            seen, stack = set(), [a]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            assert b not in seen
            adj[a].add(b)

    def test_nodes_match_present(self):
        spec = BundleSpec(n=4, manifold=Manifold.CP2, c2=-3)
        g = stratification_graph(spec)
        assert g.nodes == present_set(spec)
