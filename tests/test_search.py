import random

from guessnum import _search
from guessnum import digraph as dg

from oracles import brute_chromatic, dsatur_backtrack, random_digraph, set_dsatur

BUDGETS = (None, 1, 2, 3, 5, 8, 13, 30, 100)


def random_graph(rng, n, p):
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def proper(rows, colors):
    return all(colors[u] != colors[v] for u in range(len(rows))
               for v in range(len(rows)) if rows[u] >> v & 1)


class TestMaxIndependentSet:
    def test_star_keeps_the_full_search(self):
        # the only optimum of a star centred at 0 is its leaves, which a
        # search that does not claim transitivity still finds; the claim
        # skips every set without vertex 0
        leaves = (1 << 6) - 2
        rows = [leaves] + [1] * 5
        count = lambda candidates: candidates.bit_count()
        assert _search.max_independent_set(rows, 6, count) == (5, leaves, True)
        assert _search.max_independent_set(rows, 6, count, transitive=True) == (1, 1, True)


class TestFindKColoring:
    def test_same_answer_as_the_reference_under_every_budget(self):
        # equal answers at every budget mean the nodes are visited in the
        # same order, so budgeted callers see no change either
        rng = random.Random(51)
        for _ in range(150):
            n = rng.randint(0, 11)
            rows = random_graph(rng, n, rng.random())
            for k in range(min(n, 5) + 1):
                for budget in BUDGETS:
                    assert _search.find_k_coloring(rows, n, k, budget) == \
                        dsatur_backtrack(rows, n, k, budget), (rows, k, budget)

    def test_irregular_degrees_and_ties(self):
        # a star plus a triangle: several degree classes, and equal keys
        # broken by the lowest index
        rows = [0b111110, 0b000001, 0b000001, 0b110001, 0b101001, 0b011001]
        for k in range(7):
            for budget in BUDGETS:
                assert _search.find_k_coloring(rows, 6, k, budget) == \
                    dsatur_backtrack(rows, 6, k, budget)

    def test_complete_search_decides_k_colourability(self):
        rng = random.Random(52)
        for _ in range(40):
            n = rng.randint(1, 9)
            rows = random_graph(rng, n, rng.random())
            chi = brute_chromatic(rows, n)
            for k in range(n + 1):
                colors, complete = _search.find_k_coloring(rows, n, k)
                assert complete
                assert (colors is not None) == (k >= chi)
                if colors is not None:
                    assert max(colors) < k
                    assert proper(rows, colors)

    def test_budget_runs_out(self):
        # K_6 has no 5-colouring; one node is not enough to say so
        rows = [0b111111 & ~(1 << v) for v in range(6)]
        assert _search.find_k_coloring(rows, 6, 5, node_budget=1) == (None, False)
        assert _search.find_k_coloring(rows, 6, 5) == (None, True)


def irregular_graph(rng, n):
    # each vertex gets its own edge probability, so the degrees spread
    # over many classes and ties between equal keys still occur
    weights = [rng.random() for _ in range(n)]
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < weights[u] * weights[v]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def complement_rows(d):
    # the graph clique_partition_number colours: the complement of the
    # bidirectional pairs
    full = (1 << d.n) - 1
    rows = [full & ~(1 << v) for v in range(d.n)]
    for u, v in d.bidirectional_pairs():
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    return rows


class TestGreedyDsatur:
    def test_same_colouring_as_the_reference(self):
        rng = random.Random(71)
        for _ in range(300):
            n = rng.randint(0, 40)
            rows = irregular_graph(rng, n) if rng.random() < 0.5 else \
                random_graph(rng, n, rng.random())
            colors = _search.greedy_dsatur(rows, n)
            assert colors == set_dsatur(rows, n), rows
            assert proper(rows, colors)

    def test_irregular_degrees_and_ties(self):
        rows = [0b111110, 0b000001, 0b000001, 0b110001, 0b101001, 0b011001]
        assert _search.greedy_dsatur(rows, 6) == set_dsatur(rows, 6)
        # a path: degrees 1, 2, 2, 1, and two equal middle keys
        path = [0b0010, 0b0101, 0b1010, 0b0100]
        assert _search.greedy_dsatur(path, 4) == set_dsatur(path, 4) == [1, 0, 1, 0]

    def test_clique_partition_complements(self):
        rng = random.Random(72)
        for _ in range(100):
            d = random_digraph(rng, rng.randint(1, 12), p=rng.random())
            rows = complement_rows(d)
            assert _search.greedy_dsatur(rows, d.n) == set_dsatur(rows, d.n)
        for d in (dg.clique(5), dg.cycle(6)):
            rows = complement_rows(d)
            assert _search.greedy_dsatur(rows, d.n) == set_dsatur(rows, d.n)
