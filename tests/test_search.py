import random

from guessnum import _search

from oracles import brute_chromatic, dsatur_backtrack

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
