import contextlib
import os
import random
import subprocess
import sys

import guessnum
from guessnum import _search, cyclic, solvers
from guessnum import digraph as dg
from guessnum import gf_linear as gl
from guessnum import guessing_graph as gg

from oracles import (
    all_digraphs,
    brute_chromatic,
    brute_exterior_classes,
    dsatur_backtrack,
    random_digraph,
    reference_max_independent_set,
    set_dsatur,
)

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


def brute_bound(d, s, coords):
    """``brute_exterior_classes`` as a bound, each candidate mask scanned once."""
    memo = {}

    def bound(candidates):
        if candidates not in memo:
            memo[candidates] = brute_exterior_classes(d, s, coords, candidates)
        return memo[candidates]

    return bound


def assert_same_search(rows, n, cover, bound, seeds):
    # equal answers at every budget mean the nodes are visited in the
    # same order, so budgeted callers see no change either
    for seed_mask in seeds:
        for transitive in (False, True):
            for budget in BUDGETS:
                got = _search.max_independent_set(rows, n, cover, seed_mask, budget,
                                                  transitive)
                want = reference_max_independent_set(rows, n, bound, seed_mask, budget,
                                                     transitive)
                assert got == want, (rows, cover, seed_mask, budget, transitive)


class TestMaxIndependentSet:
    def test_star_keeps_the_full_search(self):
        # the only optimum of a star centred at 0 is its leaves, which a
        # search that does not claim transitivity still finds; the claim
        # skips every set without vertex 0
        leaves = (1 << 6) - 2
        rows = [leaves] + [1] * 5
        count = ((), (1 << 6) - 1)
        assert _search.max_independent_set(rows, 6, count) == (5, leaves, True)
        assert _search.max_independent_set(rows, 6, count, transitive=True) == (1, 1, True)

    def test_same_answer_as_the_reference_on_random_graphs(self):
        rng = random.Random(53)
        for _ in range(150):
            n = rng.randint(0, 14)
            rows = random_graph(rng, n, rng.random())
            # a random maximal independent set as the seed
            seed_mask = 0
            free = (1 << n) - 1
            while free:
                v = rng.choice([u for u in range(n) if free >> u & 1])
                seed_mask |= 1 << v
                free &= ~(rows[v] | 1 << v)
            assert_same_search(rows, n, ((), (1 << n) - 1), lambda c: c.bit_count(),
                               (0, seed_mask))

    def test_same_answer_as_the_reference_on_configuration_graphs(self):
        rng = random.Random(57)
        cases = [(d, s) for n in range(4) for d in all_digraphs(n) for s in (2, 3, 4)]
        cases += [(random_digraph(rng, n, rng.uniform(0.3, 0.8)), s)
                  for s, n in [(2, 4)] * 6 + [(2, 5)] * 6 + [(3, 4)] * 3 + [(3, 5)]]
        for d, s in cases:
            handle = gg.GuessingGraph(d, s)
            handle.materialize()
            acyclic = handle.mas.witness
            cover = solvers._exterior_clique_cover(handle.masks, s, acyclic)
            assert_same_search(handle.rows, handle.n_configs, cover,
                               brute_bound(d, s, acyclic), (0, solvers._seed(handle)))

    def test_same_answer_as_the_reference_on_code_distance_graphs(self):
        for s, top in ((2, 6), (3, 4), (4, 3)):
            for n in range(1, top + 1):
                for d in range(2, n + 1):
                    masks, rows = solvers._distance_rows(n, d, s)
                    singleton = range(d - 1)
                    cover = solvers._exterior_clique_cover(masks, s, singleton)
                    assert_same_search(rows, s**n, cover,
                                       brute_bound(dg.Digraph(n), s, singleton),
                                       (0, solvers._lexicode(rows)))


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


def reference_graphs():
    rng = random.Random(71)
    for _ in range(300):
        n = rng.randint(0, 40)
        rows = irregular_graph(rng, n) if rng.random() < 0.5 else \
            random_graph(rng, n, rng.random())
        yield rows, n


# a star plus a triangle, and a path: degrees 1, 2, 2, 1, and two equal
# middle keys
TIES = [0b111110, 0b000001, 0b000001, 0b110001, 0b101001, 0b011001]
PATH = [0b0010, 0b0101, 0b1010, 0b0100]


def complement_graphs():
    rng = random.Random(72)
    for _ in range(100):
        d = random_digraph(rng, rng.randint(1, 12), p=rng.random())
        yield complement_rows(d), d.n
    for d in (dg.clique(5), dg.cycle(6)):
        yield complement_rows(d), d.n


class TestGreedyDsatur:
    def test_same_colouring_as_the_reference(self):
        for rows, n in reference_graphs():
            colors = _search.greedy_dsatur(rows, n)
            assert colors == set_dsatur(rows, n), rows
            assert proper(rows, colors)

    def test_irregular_degrees_and_ties(self):
        assert _search.greedy_dsatur(TIES, 6) == set_dsatur(TIES, 6)
        assert _search.greedy_dsatur(PATH, 4) == set_dsatur(PATH, 4) == [1, 0, 1, 0]

    def test_clique_partition_complements(self):
        for rows, n in complement_graphs():
            assert _search.greedy_dsatur(rows, n) == set_dsatur(rows, n)

    def test_is_the_first_descent_of_the_colouring_search(self):
        # with a colour for every vertex the search never backtracks, so
        # its first n + 1 nodes colour every vertex as greedy DSATUR does
        graphs = [*reference_graphs(), (TIES, 6), (PATH, 4), *complement_graphs()]
        for rows, n in graphs:
            assert _search.greedy_dsatur(rows, n) == \
                _search.find_k_coloring(rows, n, n, node_budget=n + 1)[0], rows


@contextlib.contextmanager
def shallow_stack(headroom=100):
    """Lower the recursion limit to ``headroom`` frames above the caller."""
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


class TestSearchDepth:
    """The searches run as loops: none needs a frame per vertex."""

    def test_import_keeps_the_recursion_limit(self):
        src = os.path.dirname(os.path.dirname(guessnum.__file__))
        paths = [src, os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        code = ("import sys; before = sys.getrecursionlimit(); import guessnum; "
                "print(before, sys.getrecursionlimit())")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        assert out[0] == out[1]

    def test_bitmask_searches_on_300_vertices(self):
        rows = [0] * 300
        every = (1 << 300) - 1
        with shallow_stack():
            mis = _search.max_independent_set(rows, 300, ((), every))
            colouring = _search.find_k_coloring(rows, 300, 1)
        assert mis == (300, every, True)
        assert colouring == ([0] * 300, True)

    def test_acyclic_set_on_300_vertices(self):
        with shallow_stack():
            mas = dg.mas_exact(dg.Digraph(300))
        assert (mas.size, mas.exact) == (300, True)

    def test_exhaustive_linear_search_on_300_vertices(self):
        circulant = cyclic.digraph_from_polynomial(cyclic.parse_poly("x5+x2+1"), 12)
        padded = dg.Digraph(300, circulant.edges())
        with shallow_stack():
            res = gl.linear_guessing_number(padded, 2)
        assert (res.lower, res.exact, res.provenance) == (4, True, ("exhaustive", "exhaustive"))
