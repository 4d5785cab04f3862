import itertools
import random

import pytest

from guessnum import cyclic
from guessnum import digraph as dg
from guessnum.errors import BadParams, LoopEdge, VertexOutOfRange

from oracles import (
    all_digraphs,
    bfs_girth,
    bfs_mas_search,
    bfs_reachable,
    brute_girth,
    brute_mas,
    brute_mas_witness,
    brute_rank_gf2,
    digraphs_up_to_isomorphism,
    induces_acyclic,
    pair_clique_partition,
    random_digraph,
    scan_greedy_acyclic_set,
    tarjan_components,
    union_find_roots,
    weak_components,
)


def check_mirror(d):
    """Bit v of out-row u is bit u of in-row v."""
    out_rows, in_rows = d.out_rows(), d.in_rows()
    for u in range(d.n):
        for v in range(d.n):
            assert out_rows[u] >> v & 1 == in_rows[v] >> u & 1


class TestConstruction:
    def test_cycle_from_edge_list(self):
        d = dg.from_edge_list(3, [(0, 1), (1, 2), (2, 0)])
        assert d == dg.cycle(3)

    def test_bidirectional_pair(self):
        d = dg.from_edge_list(2, [(0, 1), (1, 0)])
        assert d == dg.clique(2)
        assert d.bidirectional_pairs() == [(0, 1)]

    def test_loop_rejected(self):
        with pytest.raises(LoopEdge):
            dg.from_edge_list(3, [(0, 0)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            dg.from_edge_list(3, [(0, 3)])

    def test_duplicates_collapse(self):
        d = dg.from_edge_list(2, [(0, 1), (0, 1), (0, 1)])
        assert d.edge_count() == 1

    def test_standard_dispatch(self):
        assert dg.standard("clique", 3) == dg.clique(3)
        assert dg.standard("complete_bipartite", 2, 3) == dg.complete_bipartite(2, 3)
        with pytest.raises(BadParams):
            dg.standard("wheel", 5)

    def test_clique_shape(self):
        d = dg.clique(3)
        assert d.edge_count() == 6
        assert dg.girth(d) == 2

    def test_cycle_shape(self):
        d = dg.cycle(4)
        assert dg.girth(d) == 4
        assert all(d.in_degree(v) == 1 for v in range(4))

    def test_cycle_needs_two(self):
        with pytest.raises(BadParams):
            dg.cycle(1)

    def test_complete_bipartite_shape(self):
        d = dg.complete_bipartite(2, 3)
        assert d.n == 5
        assert all(d.in_degree(v) == 3 for v in range(2))
        assert all(d.in_degree(v) == 2 for v in range(2, 5))

    def test_mirror_invariant_fuzz(self):
        rng = random.Random(7)
        for _ in range(50):
            check_mirror(random_digraph(rng, rng.randint(0, 8)))

    def test_rows_are_the_representation(self):
        for n in range(5):
            for d in all_digraphs(n):
                out_rows, in_rows = d.out_rows(), d.in_rows()
                # shared and immutable: a caller cannot edit a digraph's rows
                assert type(out_rows) is tuple and type(in_rows) is tuple
                assert d.out_rows() is out_rows and d.in_rows() is in_rows
                for rows in (out_rows, in_rows):
                    with pytest.raises(TypeError):
                        rows[0] = 0
                check_mirror(d)
                for v in range(n):
                    for got, row in ((d.out_neighbours(v), out_rows[v]),
                                     (d.in_neighbours(v), in_rows[v])):
                        assert got == tuple(w for w in range(n) if row >> w & 1)
                edges = d.edges()
                twice = dg.Digraph(n, edges + edges[::-1])
                assert twice == d and hash(twice) == hash(d)


class TestStructure:
    def test_clique_report(self):
        rep = dg.structure_report(dg.clique(3))
        assert rep.girth == 2
        assert rep.strong
        assert not rep.is_tournament
        assert rep.bidirectional_edge_count == 3

    def test_cycle_report(self):
        rep = dg.structure_report(dg.cycle(5))
        assert rep.girth == 5
        assert rep.strong
        assert rep.min_in_degree == rep.max_in_degree == 1
        assert rep.regular_in_out

    def test_path_acyclic(self):
        rep = dg.structure_report(dg.path(4))
        assert rep.girth is None
        assert rep.acyclic
        assert not rep.strong
        assert rep.component_count == 4

    def test_girth_three_iff_no_bidirectional_and_cyclic(self):
        rng = random.Random(11)
        for _ in range(60):
            d = random_digraph(rng, rng.randint(1, 7))
            rep = dg.structure_report(d)
            lhs = rep.girth is not None and rep.girth >= 3
            rhs = rep.bidirectional_edge_count == 0 and rep.girth is not None
            assert lhs == rhs

    def test_is_acyclic_agrees_with_girth(self):
        for n in range(5):
            for d in all_digraphs(n):
                assert dg.is_acyclic(d) == (dg.girth(d) is None)

    def test_components_of_cycle(self):
        scc = dg.strong_components(dg.cycle(6))
        assert len(scc.components) == 1

    def test_components_of_unidirectional_union(self):
        d = dg.unidirectional_union(dg.clique(2), dg.clique(2))
        scc = dg.strong_components(d)
        assert sorted(scc.components) == [(0, 1), (2, 3)]
        assert scc.condensation.edge_count() == 1
        # reverse topological order: the edge runs to the earlier component
        (edge,) = scc.condensation.edges()
        assert edge[0] > edge[1]

    def test_acyclic_components_are_singletons(self):
        scc = dg.strong_components(dg.path(5))
        assert all(len(c) == 1 for c in scc.components)

    def test_condensation_acyclic_fuzz(self):
        rng = random.Random(3)
        for _ in range(40):
            d = random_digraph(rng, rng.randint(1, 8))
            scc = dg.strong_components(d)
            assert dg.is_acyclic(scc.condensation)
            # every vertex appears exactly once
            seen = sorted(v for comp in scc.components for v in comp)
            assert seen == list(range(d.n))


def check_order(d, mask, order):
    """``order`` lists the vertices of ``mask`` once each, every edge
    among them pointing forward."""
    assert sorted(order) == [v for v in range(d.n) if mask >> v & 1]
    position = {v: i for i, v in enumerate(order)}
    for u in order:
        for v in d.out_neighbours(u):
            if v in position:
                assert position[u] < position[v]


class TestWalks:
    """The bit-row walks against brute force and set-based references."""

    def test_topological_order_on_every_small_digraph_and_mask(self):
        checked = 0
        for n in range(5):
            for d in digraphs_up_to_isomorphism(n):
                out_rows = d.out_rows()
                for mask in range(1 << n):
                    sub, _ = dg.induced_subdigraph(d, [v for v in range(n) if mask >> v & 1])
                    order = dg.topological_order(out_rows, mask)
                    assert (order is None) == (brute_girth(sub) is not None)
                    if order is not None:
                        check_order(d, mask, order)
                    checked += 1
        assert checked == 1 + 2 + 4 * 3 + 8 * 16 + 16 * 218

    def test_topological_order_on_random_digraphs(self):
        rng = random.Random(61)
        acyclic = 0
        for _ in range(300):
            n = rng.randint(1, 12)
            d = random_digraph(rng, n, p=rng.choice([0.1, 0.2, 0.4]))
            mask = rng.getrandbits(n)
            order = dg.topological_order(d.out_rows(), mask)
            vertices = [v for v in range(n) if mask >> v & 1]
            assert (order is not None) == induces_acyclic(d, vertices)
            if order is not None:
                check_order(d, mask, order)
                acyclic += 1
        assert 50 < acyclic < 250

    def test_is_acyclic_reads_the_whole_mask(self):
        assert dg.is_acyclic(dg.path(4)) and not dg.is_acyclic(dg.cycle(4))
        assert dg.topological_order(dg.cycle(4).out_rows(), 0b0111) is not None
        assert dg.topological_order([], 0) == []

    def test_reachable_matches_bfs(self):
        rng = random.Random(62)
        for _ in range(300):
            n = rng.randint(1, 12)
            d = random_digraph(rng, n, p=rng.choice([0.1, 0.2, 0.4]))
            rows = rng.choice([d.out_rows(), d.in_rows()])
            frontier = rng.getrandbits(n)
            within = rng.choice([-1, (1 << n) - 1, rng.getrandbits(n)])
            expected = bfs_reachable(rows, frontier, within & (1 << n) - 1)
            assert dg.reachable(rows, frontier, within) == sum(1 << v for v in expected)

    def test_weak_components_match_union_find(self):
        rng = random.Random(63)
        for _ in range(200):
            n = rng.randint(0, 12)
            d = random_digraph(rng, n, p=rng.choice([0.05, 0.1, 0.3]))
            out_rows, in_rows = d.out_rows(), d.in_rows()
            comps = dg.weak_components([a | b for a, b in zip(out_rows, in_rows)])
            # a partition of the vertices, in the order of lowest vertices
            assert sum(comps) == (1 << n) - 1
            assert all(a & b == 0 for i, a in enumerate(comps) for b in comps[i + 1:])
            lowest = [c & -c for c in comps]
            assert lowest == sorted(lowest)
            roots = union_find_roots(n, [d.in_neighbours(v) for v in range(n)])
            groups = {}
            for v, r in enumerate(roots):
                groups[r] = groups.get(r, 0) | 1 << v
            assert sorted(comps) == sorted(groups.values())
            assert sorted(comps) == sorted(sum(1 << v for v in c) for c in weak_components(d))


class TestTarjanAndGirth:
    """Tarjan's search and the girth walk on bit rows against Tarjan's
    per-vertex arrays and breadth-first searches with distance dicts."""

    def test_strong_components_on_every_small_digraph(self):
        checked = 0
        for n in range(5):
            for d in all_digraphs(n):
                assert dg.strong_components(d) == tarjan_components(d)
                checked += 1
        assert checked == 4166

    def test_strong_components_on_random_digraphs(self):
        rng = random.Random(71)
        counts = set()
        for _ in range(2000):
            d = random_digraph(rng, rng.randint(1, 16), p=rng.choice([0.05, 0.1, 0.15, 0.25]))
            scc = dg.strong_components(d)
            assert scc == tarjan_components(d)
            counts.add(len(scc.components))
        assert len(counts) > 10

    def test_strong_components_on_circulants_without_the_shortcut(self, monkeypatch):
        monkeypatch.setattr(dg, "rotation_invariant", lambda out_rows: False)
        for n in range(1, 13):
            for k in range(n):
                for shifts in itertools.combinations(range(1, n), k):
                    d = dg.Digraph(n, [(v, (v + j) % n) for v in range(n) for j in shifts])
                    assert dg.strong_components(d) == tarjan_components(d)

    def test_girth_against_brute_force(self):
        for n in range(5):
            for d in all_digraphs(n):
                assert dg.girth(d) == brute_girth(d)
        rng = random.Random(72)
        for _ in range(3000):
            d = random_digraph(rng, rng.randint(1, 7), p=rng.choice([0.1, 0.2, 0.3, 0.5]))
            assert dg.girth(d) == brute_girth(d)

    def test_girth_against_breadth_first_search(self):
        rng = random.Random(73)
        girths = set()
        for _ in range(2000):
            d = random_digraph(rng, rng.randint(1, 16), p=rng.choice([0.03, 0.06, 0.1, 0.2]))
            girths.add(dg.girth(d))
            assert dg.girth(d) == bfs_girth(d)
        assert {None, 2, 3, 4, 5} <= girths

    def test_girth_walks_only_layers_that_can_close_a_shorter_cycle(self, monkeypatch):
        monkeypatch.setattr(dg, "rotation_invariant", lambda out_rows: False)
        reads = []

        class Rows(list):
            def __getitem__(self, v):
                reads.append(v)
                return list.__getitem__(self, v)

        class Recorded(dg.Digraph):
            def out_rows(self):
                return Rows(super().out_rows())

        # a triangle, then a 4-cycle: after the triangle every walk
        # stops at its second layer
        d = Recorded(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)])
        assert dg.girth(d) == 3
        assert reads == [0, 1, 2, 1, 2, 2, 0, 3, 4, 4, 5, 5, 6, 6, 3]
        # a 2-cycle ends the whole search
        reads.clear()
        assert dg.girth(Recorded(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)])) == 2
        assert reads == [0, 1]

    def test_clique_partition_on_every_small_digraph(self):
        for n in range(5):
            for d in all_digraphs(n):
                assert dg.clique_partition_number(d) == pair_clique_partition(d)


class TestMas:
    def test_clique(self):
        assert dg.mas_exact(dg.clique(5)).size == 1

    def test_cycle_matches_brute_force(self):
        for n in range(2, 9):
            res = dg.mas_exact(dg.cycle(n))
            assert res.size == n - 1 == brute_mas(dg.cycle(n))

    def test_witness_is_acyclic_and_lexicographic(self):
        rng = random.Random(5)
        for _ in range(30):
            d = random_digraph(rng, rng.randint(1, 8))
            res = dg.mas_exact(d)
            assert res.exact
            assert res.size == brute_mas(d)
            assert induces_acyclic(d, res.witness)
            assert list(res.witness) == sorted(res.witness)

    def check_smallest_witness(self, d):
        res = dg.mas_exact(d)
        assert res.exact
        assert res.witness == brute_mas_witness(d)
        rank = brute_rank_gf2([row | (1 << v) for v, row in enumerate(d.out_rows())])
        assert res.size <= rank
        return res, rank

    def test_witness_is_the_smallest_optimum(self):
        rng = random.Random(6)
        for _ in range(60):
            self.check_smallest_witness(random_digraph(rng, rng.randint(1, 9)))

    def test_rank_cap_on_cyclic_divisors(self):
        # the circulant of a divisor g of x^n + 1 has mas = n - deg(g) =
        # rank(I + A) over GF(2), so the search stops at the rank cap
        for n in range(2, 13):
            xn1 = cyclic.x_power_plus_one(n)
            for bits in range(1, 1 << n, 2):
                g = cyclic.Gf2Poly(bits)
                if g.degree < n and (xn1 % g).is_zero():
                    d = cyclic.digraph_from_polynomial(g, n)
                    res, rank = self.check_smallest_witness(d)
                    assert res.size == rank == n - g.degree

    def test_gf2_rank(self):
        rng = random.Random(8)
        for _ in range(40):
            rows = [rng.getrandbits(9) for _ in range(rng.randint(0, 9))]
            assert dg.gf2_rank(rows) == brute_rank_gf2(rows)

    def test_floor_bound(self):
        rng = random.Random(9)
        for _ in range(20):
            d = random_digraph(rng, rng.randint(1, 8))
            rep = dg.structure_report(d)
            assert dg.mas_exact(d).size >= d.n / (rep.max_in_degree + 1)

    def test_budget_degrades_to_lower_bound(self):
        d = dg.cycle_power_ring(3, 2, 2)
        res = dg.mas_exact(d, budget=50)
        assert not res.exact
        assert induces_acyclic(d, res.witness)
        assert res.size >= d.n / (dg.structure_report(d).max_in_degree + 1)


    @pytest.mark.parametrize("budget", [dg.DEFAULT_MAS_BUDGET, 3])
    def test_mask_search_matches_the_induced_subdigraph(self, budget):
        # the same search, budget and greedy fallback, so the same result
        # with the witness mapped back through the sorted vertex ids
        rng = random.Random(10)
        cases = [d for n in range(4) for d in all_digraphs(n)]
        cases += [random_digraph(rng, rng.randint(5, 7)) for _ in range(12)]
        for d in cases:
            out_rows = d.out_rows()
            for mask in range(1 << d.n):
                vertices = [v for v in range(d.n) if mask >> v & 1]
                sub, ids = dg.induced_subdigraph(d, vertices)
                ref = dg.mas_exact(sub, budget=budget)
                got = dg._mas_search(out_rows, mask, budget)
                assert got == dg.MasResult(
                    ref.size, tuple(ids[i] for i in ref.witness), ref.exact
                )


class TestMasSearchAgainstBfs:
    """The reachability-row search against the BFS search it replaced."""

    @staticmethod
    def small_cases():
        # every vertex mask of every digraph with n <= 4
        for n in range(5):
            for d in all_digraphs(n):
                yield d, range(1 << n)

    @staticmethod
    def seeded_cases(seed):
        rng = random.Random(seed)
        for _ in range(24):
            d = random_digraph(rng, rng.randint(5, 12), rng.uniform(0.15, 0.6))
            masks = [(1 << d.n) - 1] + [rng.getrandbits(d.n) for _ in range(12)]
            yield d, masks

    @staticmethod
    def circulants(seed):
        # the sparse non-divisor x^5 + x^2 + 1 at n = 12, then a sparse and
        # a dense random generator for every n from 12 to 20
        rng = random.Random(seed)
        gens = [(cyclic.parse_poly("x5+x2+1"), 12)]
        for n in range(12, 21):
            sparse = 1 | sum(1 << e for e in rng.sample(range(1, n), rng.randint(2, 4)))
            dense = 1 | rng.getrandbits(n - 1) << 1
            gens += [(cyclic.Gf2Poly(sparse), n), (cyclic.Gf2Poly(dense), n)]
        for g, n in gens:
            yield cyclic.digraph_from_polynomial(g, n), [(1 << n) - 1]

    def all_cases(self):
        yield from self.small_cases()
        yield from self.seeded_cases(11)
        yield from self.circulants(12)

    def test_default_budget_matches(self):
        budget = dg.DEFAULT_MAS_BUDGET
        for d, masks in self.all_cases():
            out_rows = d.out_rows()
            for mask in masks:
                got = dg._mas_search(out_rows, mask, budget)
                assert got == bfs_mas_search(out_rows, mask, budget)

    @pytest.mark.parametrize("budget", [1, 2, 3, 4, 5])
    def test_small_budgets_give_acyclic_lower_bounds(self, budget):
        cases = [(d, range(1 << d.n)) for n in range(4) for d in all_digraphs(n)]
        cases += list(self.seeded_cases(13)) + list(self.circulants(14))
        inexact = 0
        for d, masks in cases:
            out_rows = d.out_rows()
            for mask in masks:
                full = dg._mas_search(out_rows, mask, dg.DEFAULT_MAS_BUDGET)
                got = dg._mas_search(out_rows, mask, budget)
                assert all(mask >> v & 1 for v in got.witness)
                assert len(set(got.witness)) == got.size
                assert induces_acyclic(d, got.witness)
                assert got.size >= len(scan_greedy_acyclic_set(out_rows, mask))
                # an exact answer is the optimum with the smallest witness;
                # a search whose budget ran out says so
                if got.exact:
                    assert got == full
                if got.size < full.size:
                    assert not got.exact
                inexact += not got.exact
        assert inexact > 0

    def test_greedy_matches_the_scan(self):
        rng = random.Random(15)
        cases = [(d, range(1 << d.n)) for n in range(4) for d in all_digraphs(n)]
        for _ in range(30):
            d = random_digraph(rng, rng.randint(4, 16), rng.uniform(0.1, 0.6))
            cases.append((d, [(1 << d.n) - 1] + [rng.getrandbits(d.n) for _ in range(10)]))
        for d, masks in cases:
            in_rows, out_rows = d.in_rows(), d.out_rows()
            for mask in masks:
                got = dg._greedy_acyclic_set(in_rows, mask)
                assert got == scan_greedy_acyclic_set(out_rows, mask)

    def test_node_ceiling_on_a_dense_non_divisor(self):
        # x^12 + x^10 + x^9 + x^7 + x^2 + 1 does not divide x^20 + 1; its
        # 100-edge circulant has mas 8 under a GF(2)-rank cap of 18, so the
        # bound alone closes the search.  The budget counts nodes, so an
        # exact answer at 2 186 means at most 2 186 nodes; the BFS search
        # needs 32 259 of its own.
        g = cyclic.parse_poly("x12+x10+x9+x7+x2+1")
        assert not cyclic.divides_xn1(g, 20)
        d = cyclic.digraph_from_polynomial(g, 20)
        out_rows, every = d.out_rows(), (1 << 20) - 1
        assert dg._mas_search(out_rows, every, 2186) == dg.MasResult(8, tuple(range(8)), True)
        assert not bfs_mas_search(out_rows, every, 32258).exact


class TestCliquePartition:
    def test_clique(self):
        assert dg.clique_partition_number(dg.clique(4)).count == 1

    def test_no_bidirectional_gives_n(self):
        assert dg.clique_partition_number(dg.cycle(5)).count == 5

    def test_disjoint_cliques(self):
        d = dg.disjoint_union(dg.clique(2), dg.clique(3))
        res = dg.clique_partition_number(d)
        assert res.count == 2
        for part in res.parts:
            for u in part:
                for v in part:
                    if u != v:
                        assert d.has_edge(u, v) and d.has_edge(v, u)


class TestCombinators:
    def test_disjoint_union_counts(self):
        d = dg.disjoint_union(dg.clique(2), dg.path(2))
        assert d.n == 4
        assert d.edge_count() == 3

    def test_unidirectional_union_adds_cross_edges(self):
        d = dg.unidirectional_union(dg.clique(2), dg.path(2))
        assert d.edge_count() == 3 + 4
        assert d.has_edge(0, 2) and d.has_edge(1, 3)
        assert not d.has_edge(2, 0)

    def test_bidirectional_union_adds_both_directions(self):
        d = dg.bidirectional_union(dg.clique(2), dg.path(2))
        assert d.edge_count() == 3 + 8
        assert d.has_edge(2, 0) and d.has_edge(0, 2)

    def test_strong_product_shape(self):
        prod = dg.strong_product(dg.cycle(3), dg.cycle(3))
        assert prod.n == 9
        assert all(prod.in_degree(v) == 3 for v in range(9))

    def test_strong_product_identity_factor(self):
        d = dg.from_edge_list(3, [(0, 1), (2, 1)])
        assert dg.strong_product(dg.clique(1), d) == d

    def test_strong_product_keeps_strong_and_bidirectional_free(self):
        prod = dg.strong_product(dg.cycle(3), dg.cycle(4))
        rep = dg.structure_report(prod)
        assert rep.strong
        assert rep.bidirectional_edge_count == 0

    def test_strong_product_degree_law(self):
        for d1, d2 in [(dg.cycle(3), dg.cycle(4)), (dg.clique(2), dg.cycle(3))]:
            prod = dg.strong_product(d1, d2)
            expect = (d1.in_degree(0) + 1) * (d2.in_degree(0) + 1) - 1
            assert all(prod.in_degree(v) == expect for v in range(prod.n))
            assert all(prod.out_degree(v) == expect for v in range(prod.n))

    def test_k_expand_shape(self):
        d = dg.k_expand(dg.cycle(3), 2)
        assert d.n == 6
        assert all(d.in_degree(v) == 2 for v in range(6))

    def test_k_expand_identity(self):
        d = dg.from_edge_list(4, [(0, 1), (1, 2), (2, 0), (3, 1)])
        assert dg.k_expand(d, 1) == d

    def test_k_expand_pair(self):
        d = dg.k_expand(dg.clique(2), 2)
        expected = {(a, b) for a in (0, 1) for b in (2, 3)}
        expected |= {(b, a) for a, b in expected}
        assert set(d.edges()) == expected

    def test_k_expand_in_neighborhood_law(self):
        base = dg.from_edge_list(4, [(0, 1), (2, 1), (3, 0), (1, 3)])
        k = 3
        d = dg.k_expand(base, k)
        for v in range(base.n):
            for i in range(k):
                expect = {u * k + j for u in base.in_neighbours(v) for j in range(k)}
                assert set(d.in_neighbours(v * k + i)) == expect

    def test_ring_of_two_triangles(self):
        d = dg.cycle_power_ring(3, 1, 2)
        rep = dg.structure_report(d)
        assert d.n == 6
        assert rep.strong
        assert rep.girth == 3

    def test_ring_single_copy_is_the_power(self):
        assert dg.cycle_power_ring(3, 2, 1) == dg.strong_product(dg.cycle(3), dg.cycle(3))

    def test_ring_girth(self):
        rep = dg.structure_report(dg.cycle_power_ring(4, 1, 3))
        assert rep.girth == 4
        assert rep.strong

    def test_ring_bad_params(self):
        with pytest.raises(BadParams):
            dg.cycle_power_ring(2, 1, 1)

    def test_cycle_power_mas_witness(self):
        # the low-coordinate block induces a maximum acyclic subgraph
        for l, k in [(3, 2), (4, 2)]:
            block = dg.cycle(l)
            for _ in range(k - 1):
                block = dg.strong_product(block, dg.cycle(l))
            res = dg.mas_exact(block)
            assert res.size == (l - 1) ** k
            expected = sorted(
                u1 * l + u2 for u1 in range(l - 1) for u2 in range(l - 1)
            )
            assert list(res.witness) == expected

    def test_combinator_mirrors(self):
        rng = random.Random(13)
        for _ in range(10):
            d1 = random_digraph(rng, rng.randint(1, 4))
            d2 = random_digraph(rng, rng.randint(1, 4))
            for combo in (
                dg.disjoint_union(d1, d2),
                dg.unidirectional_union(d1, d2),
                dg.bidirectional_union(d1, d2),
                dg.strong_product(d1, d2),
                dg.k_expand(d1, 2),
            ):
                check_mirror(combo)


class TestTextFormats:
    def test_round_trip(self):
        rng = random.Random(17)
        for _ in range(20):
            d = random_digraph(rng, rng.randint(1, 8))
            assert dg.from_text(dg.to_text(d)) == d

    def test_comments_and_duplicates(self):
        text = "# four vertices\n4\n0 1\n0 1  # twice\n2 3\n"
        d = dg.from_text(text)
        assert d.n == 4
        assert d.edges() == [(0, 1), (2, 3)]

    def test_malformed_numbers_rejected(self):
        for text in ("three\n", "3\n0 x\n", "3 4\n", "3\n0 1 2\n"):
            with pytest.raises(BadParams):
                dg.from_text(text)

    def test_file_round_trip(self, tmp_path):
        d = dg.clique(3)
        path = tmp_path / "k3.dg"
        dg.write_digraph(d, path)
        assert dg.read_digraph(path) == d

    def test_full_text_and_dot(self):
        d = dg.Digraph(4, [(3, 2), (0, 1), (1, 2), (2, 3), (1, 0), (3, 0)])
        assert dg.to_text(d) == "4\n0 1\n1 0\n1 2\n2 3\n3 0\n3 2\n"
        assert dg.to_dot(d, "G") == (
            "digraph G {\n"
            "  0 -> 1 [dir=both];\n"
            "  1 -> 2;\n"
            "  2 -> 3 [dir=both];\n"
            "  3 -> 0;\n"
            "}\n"
        )

    def test_dot_merges_bidirectional(self):
        dot = dg.to_dot(dg.clique(2))
        assert "0 -> 1 [dir=both];" in dot
        dot = dg.to_dot(dg.path(2))
        assert "0 -> 1;" in dot
