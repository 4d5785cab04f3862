"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import itertools
import math
import random
import time

import pytest

from guessnum import cyclic
from guessnum import digraph as dg
from guessnum import gf_linear as gl
from guessnum import netcode, solvers
from guessnum.guessing_graph import GuessingGraph, decode, encode

from oracles import (
    brute_degree,
    brute_mas,
    exhaustive_best_protocol,
    identity_plus,
    random_digraph,
)


def report(number, description):
    """Print the criterion verdict line whether the body passed or raised."""

    def decorator(fn):
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                print(f"criterion {number}: FAIL ({description}): {exc}")
                raise
            print(f"criterion {number}: PASS ({description}) [{time.time() - start:.2f}s]")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorator


@report(1, "butterfly and the 3-clique")
def test_criterion_01_butterfly():
    h = GuessingGraph(dg.clique(3), 2)
    assert solvers.max_independent_set(h).alpha == 4
    assert solvers.guessing_number(dg.clique(3), 2).value == 2.0
    assert solvers.information_defect(dg.clique(3), 2).value == 1.0
    res = netcode.solvable(netcode.butterfly(), 2)
    assert res.solvable
    functions = {name: (inputs, table) for name, inputs, table in res.certificate.functions}
    assert functions["z"] == (("s1", "s2"), (0, 1, 1, 0))  # sum mod 2


@report(2, "closed forms for cliques, cycles and acyclic digraphs")
def test_criterion_02_closed_forms():
    for s in (2, 3):
        for n in (1, 2, 3, 4):
            assert solvers.guessing_number(dg.clique(n), s).value == n - 1
            assert solvers.information_defect(dg.clique(n), s).value == (1 if n > 1 else 1)
        for n in (2, 3, 4, 5):
            assert solvers.guessing_number(dg.cycle(n), s).value == 1.0
            assert solvers.information_defect(dg.cycle(n), s).value == n - 1
        for d in (dg.path(1), dg.path(3), dg.from_edge_list(4, [(0, 1), (0, 2), (1, 3)])):
            assert solvers.guessing_number(d, s).value == 0.0
            assert solvers.information_defect(d, s).value == d.n


@report(3, "protocol enumeration agrees with the independent-set solver")
def test_criterion_03_protocol_oracle():
    for n in (1, 2, 3):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for mask in range(1 << len(pairs)):
            d = dg.Digraph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])
            best, _ = exhaustive_best_protocol(d, 2)
            alpha = solvers.max_independent_set(GuessingGraph(d, 2)).alpha
            assert best == alpha, f"digraph mask {mask} on {n} vertices"


@report(4, "closed-form degree equals brute force on 200 random digraphs")
def test_criterion_04_degree_formula():
    rng = random.Random(104)
    for _ in range(200):
        n = rng.randint(1, 5)
        s = rng.choice([2, 3])
        d = random_digraph(rng, n, p=rng.uniform(0.1, 0.9))
        assert solvers.degree_closed_form(d, s) == brute_degree(d, s)


@report(5, "union laws and product isomorphisms")
def test_criterion_05_unions():
    k2, p2 = dg.clique(2), dg.path(2)
    assert solvers.guessing_number(dg.disjoint_union(k2, p2), 2).value == 1.0
    assert solvers.guessing_number(dg.bidirectional_union(k2, p2), 2).value == 2.0
    b1 = solvers.information_defect(k2, 2).value
    b2 = solvers.information_defect(p2, 2).value
    assert solvers.information_defect(dg.bidirectional_union(k2, p2), 2).value == max(b1, b2)

    factors = [dg.path(1), dg.path(2), dg.clique(2), dg.Digraph(2)]
    for d1, d2 in itertools.product(factors, repeat=2):
        h1, h2 = GuessingGraph(d1, 2), GuessingGraph(d2, 2)
        unions = {
            "disjoint": GuessingGraph(dg.disjoint_union(d1, d2), 2),
            "unidirectional": GuessingGraph(dg.unidirectional_union(d1, d2), 2),
            "bidirectional": GuessingGraph(dg.bidirectional_union(d1, d2), 2),
        }
        shift = 2**d1.n
        for x1, x2, y1, y2 in itertools.product(
            range(h1.n_configs), range(h2.n_configs), repeat=2
        ):
            if (x1, x2) == (y1, y2):
                continue
            a1, a2 = h1.adjacent(x1, y1), h2.adjacent(x2, y2)
            x, y = x1 + shift * x2, y1 + shift * y2
            assert unions["disjoint"].adjacent(x, y) == (a1 or a2)
            assert unions["unidirectional"].adjacent(x, y) == (a1 or (x1 == y1 and a2))
            assert unions["bidirectional"].adjacent(x, y) == (
                (x1 == y1 and a2) or (x2 == y2 and a1)
            )


@report(6, "cyclic-code digraphs: fixed spaces and divisor sweep")
def test_criterion_06_cyclic_codes():
    # rank 2 and the repetition code on the directed triangle
    assert gl.rank_gfp(identity_plus(dg.cycle(3), 2).transpose()) == 2
    assert gl.parity_check_protocol(dg.cycle(3)).basis == (7,)

    # the weight-4 degree-4 generator on 7 vertices
    g = cyclic.parse_poly("11101")
    d7 = cyclic.digraph_from_polynomial(g, 7)
    rep = dg.structure_report(d7)
    assert rep.is_tournament and rep.strong
    assert dg.mas_exact(d7).size == 3
    lin = gl.linear_guessing_number(d7, 2, exhaustive=True)
    assert lin.value == 4
    par = gl.parity_check_protocol(d7)
    assert par.dimension == 4
    space = {0}
    for b in par.basis:
        space |= {x ^ b for x in space}
    assert len(space) == 16
    assert min(x.bit_count() for x in space if x) == 3

    # fixed-space dimension equals generator degree for every proper
    # divisor of x^n + 1, 3 <= n <= 15
    for n in range(3, 16):
        xn1 = cyclic.x_power_plus_one(n)
        for bits in range(1, 1 << n, 2):
            cand = cyclic.Gf2Poly(bits)
            if not (xn1 % cand).is_zero():
                continue
            d = cyclic.digraph_from_polynomial(cand, n)
            assert gl.parity_check_protocol(d).dimension == cand.degree
            mas = dg.mas_exact(d)
            assert mas.exact and n - mas.size == cand.degree


@report(7, "mixed-weight non-divisor on 14 vertices")
def test_criterion_07_non_divisor():
    h = cyclic.parse_poly("x12+x11+x10+x9+x6+x+1")
    gcd = h.gcd(cyclic.x_power_plus_one(14))
    assert gcd == cyclic.parse_poly("x9+x8+x6+x5+x4+x3+1")
    d = cyclic.digraph_from_polynomial(h, 14)
    rep = solvers.bounds_report(d, 2)
    assert rep.g_linear_lower >= 9
    assert rep.g_upper <= 11
    # The set {0, 1, 3, 4, 8} induces an acyclic subgraph, so mas >= 5;
    # the all-ones strategy gives g >= 9 and g <= n - mas, so mas <= 14 - 9.
    mas = dg.mas_exact(d)
    assert mas.exact and mas.size == 5
    assert brute_mas(d) == 5


@report(8, "coefficient-pattern search over every support-respecting matrix")
def test_criterion_08_linear_exhaustive():
    res = gl.linear_guessing_number(dg.clique(3), 2, exhaustive=True)
    assert res.value == 2 and res.exact
    for d in (dg.path(4), dg.from_edge_list(3, [(0, 1), (0, 2), (1, 2)])):
        res = gl.linear_guessing_number(d, 2, exhaustive=True)
        assert res.value == 0 and res.exact


@report(9, "strong product of two directed triangles")
def test_criterion_09_strong_product():
    prod = dg.strong_product(dg.cycle(3), dg.cycle(3))
    assert prod.n == 9
    assert all(prod.in_degree(v) == 3 for v in range(9))
    assert gl.linear_guessing_number(prod, 2).value == 5
    bound, witness = gl.linear_product_lower(dg.cycle(3), dg.cycle(3), 2)
    assert bound == 5
    eye_plus = gl.GfMatrix.identity(9, 2).add(witness)
    assert gl.rank_gfp(eye_plus) == 4
    assert dg.mas_exact(prod).size == 4
    res = solvers.guessing_number(prod, 2)
    assert res.alpha == 32 and res.value == 5.0


@report(10, "alphabet expansion and composition")
def test_criterion_10_alphabets():
    base = dg.cycle(3)
    expanded = dg.k_expand(base, 2)
    small = GuessingGraph(expanded, 2)
    big = GuessingGraph(base, 4)

    def to_big(code):
        word = decode(code, 6, 2)
        return encode(tuple(word[2 * v] + 2 * word[2 * v + 1] for v in range(3)), 4)

    for x in range(64):
        for y in range(x + 1, 64):
            assert small.adjacent(x, y) == big.adjacent(to_big(x), to_big(y))
    assert solvers.guessing_number(expanded, 2).value == 2.0

    comp = solvers.alphabet_composition_bounds(1, 1, 3, 2, 3)
    true_g = solvers.guessing_number(base, 6).value
    assert true_g == 1.0
    assert comp.lower - 1e-9 <= true_g <= comp.upper + 1e-9

    comp = solvers.alphabet_composition_bounds(2, 2, 3, 2, 2)
    true_g = solvers.guessing_number(dg.clique(3), 4).value
    assert true_g == 2.0
    assert comp.lower - 1e-9 <= true_g <= comp.upper + 1e-9


@report(11, "shared-relay bottlenecks")
def test_criterion_11_bottleneck():
    for m in (1, 2, 3):
        for n in range(m, 4):
            assert solvers.guessing_number(dg.complete_bipartite(m, n), 2).value == m
            verdict = netcode.solvable(netcode.bottleneck(n, m), 2)
            assert verdict.solvable == (m == n)


@report(12, "bound chains are sound on random strong digraphs")
def test_criterion_12_bound_chains():
    rng = random.Random(112)
    checked = 0
    while checked < 100:
        n = rng.randint(2, 4)
        d = random_digraph(rng, n, p=rng.uniform(0.3, 0.8))
        if not dg.structure_report(d).strong:
            continue
        rep = solvers.bounds_report(d, 2)
        g = solvers.guessing_number(d, 2).value
        glin = gl.linear_guessing_number(d, 2, exhaustive=True).value
        b = solvers.information_defect(d, 2).value
        for bound in rep.bounds:
            if bound.kind == "lower" and bound.target in ("g", "g_linear"):
                assert bound.value <= g + 1e-9, bound
            if bound.kind == "upper" and bound.target == "g":
                assert g <= bound.value + 1e-9, bound
            if bound.target == "g_linear":
                if bound.kind == "lower":
                    assert bound.value <= glin + 1e-9, bound
                else:
                    assert glin <= bound.value + 1e-9, bound
        assert b + g >= n - 1e-9
        checked += 1


@report(13, "ring families keep the linear rate of their blocks")
def test_ring_family_rate():
    # finite stand-in for the asymptotic claim: for cycle length 3 and
    # power k, the ring keeps g_linear >= (1 - (2/3)^k) * n
    for k, copies in [(1, 2), (1, 3), (2, 1), (2, 2)]:
        d = dg.cycle_power_ring(3, k, copies)
        res = gl.linear_guessing_number(d, 2)
        target = (1 - (2 / 3) ** k) * d.n
        assert res.lower >= target - 1e-9, (k, copies, res)
