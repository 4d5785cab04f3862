import random

import pytest

from guessnum import cyclic
from guessnum import digraph as dg
from guessnum import gf_linear as gl
from guessnum.errors import BadGenerator, BadParams, DivisionByZeroPoly

P = cyclic.parse_poly


class TestPolyArithmetic:
    def test_parse_forms_agree(self):
        assert P("11101") == P("x4+x2+x+1")
        assert P("11") == P("x+1") == P("x0+x")
        assert P("1") == cyclic.Gf2Poly(1)
        assert P("x^3+x+1") == P("x3+x+1") == P("1101")

    def test_malformed_terms_rejected(self):
        for text in ("x-1", "xa", "x^", "x^-2", "x+"):
            with pytest.raises(BadParams):
                P(text)

    def test_multiplication(self):
        assert P("11") * P("1011") == P("11101")  # (x+1)(x^3+x^2+1) = x^4+x^2+x+1

    def test_divmod_round_trip_exhaustive(self):
        for a_bits in range(512):
            a = cyclic.Gf2Poly(a_bits)
            for b_bits in range(1, 512):
                b = cyclic.Gf2Poly(b_bits)
                q, r = divmod(a, b)
                assert q * b + r == a
                assert r.degree < b.degree or r.is_zero()

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZeroPoly):
            divmod(P("11"), cyclic.Gf2Poly(0))

    def test_gcd_of_mixed_weight_polynomial(self):
        h = P("x12+x11+x10+x9+x6+x+1")
        expected = P("x9+x8+x6+x5+x4+x3+1")
        assert h.gcd(cyclic.x_power_plus_one(14)) == expected

    def test_gcd_with_zero(self):
        p = P("1011")
        assert p.gcd(cyclic.Gf2Poly(0)) == p

    def test_text_round_trip(self):
        rng = random.Random(50)
        for _ in range(50):
            poly = cyclic.Gf2Poly(rng.randrange(1, 1 << 12))
            assert P(poly.to_bitstring()) == poly
            assert P(poly.to_terms()) == poly


class TestDivides:
    def test_x_plus_one_divides_everything(self):
        for n in range(1, 12):
            assert cyclic.divides_xn1(P("11"), n)

    def test_paley_generator(self):
        assert cyclic.divides_xn1(P("11101"), 7)

    def test_non_divisor(self):
        assert not cyclic.divides_xn1(P("101"), 7)


class TestDigraphGeneration:
    def test_x_plus_one_gives_a_directed_cycle(self):
        d = cyclic.digraph_from_polynomial(P("11"), 5)
        rep = dg.structure_report(d)
        assert rep.girth == 5
        assert rep.strong
        assert rep.min_in_degree == rep.max_in_degree == 1
        # the edge rule sends each vertex to its predecessor
        assert set(d.edges()) == {((a + 1) % 5, a) for a in range(5)}

    def test_all_ones_gives_the_clique(self):
        quotient, _ = divmod(cyclic.x_power_plus_one(5), P("11"))
        d = cyclic.digraph_from_polynomial(quotient, 5)
        assert d == dg.clique(5)

    def test_unit_polynomial_gives_the_empty_digraph(self):
        d = cyclic.digraph_from_polynomial(P("1"), 4)
        assert d.edge_count() == 0

    def test_even_constant_term_rejected(self):
        with pytest.raises(BadGenerator):
            cyclic.digraph_from_polynomial(P("x2+x"), 5)

    def test_degree_must_fit(self):
        with pytest.raises(BadParams):
            cyclic.digraph_from_polynomial(P("11101"), 4)

    def test_paley_tournament(self):
        d = cyclic.digraph_from_polynomial(P("11101"), 7)
        rep = dg.structure_report(d)
        assert rep.is_tournament
        assert rep.strong
        assert rep.regular_in_out
        assert rep.min_in_degree == 3

    def test_regular_with_weight_minus_one_degree(self):
        rng = random.Random(51)
        for _ in range(30):
            n = rng.randint(3, 12)
            g = None
            while g is None or not cyclic.divides_xn1(g, n) or g.degree >= n:
                g = cyclic.Gf2Poly(rng.randrange(1, 1 << n) | 1)
            d = cyclic.digraph_from_polynomial(g, n)
            assert all(d.in_degree(v) == g.weight - 1 for v in range(n))
            assert all(d.out_degree(v) == g.weight - 1 for v in range(n))


class TestReports:
    def test_paley_report(self):
        rep = cyclic.polynomial_digraph_report(P("11101"), 7)
        assert rep.divides
        assert rep.all_code_properties_hold
        assert rep.fixed_space_dimension == 4
        assert rep.mas_size == 3
        assert rep.tournament_edges and rep.tournament_coeff

    def test_directed_cycle_report(self):
        rep = cyclic.polynomial_digraph_report(P("11"), 5)
        assert rep.all_code_properties_hold
        assert rep.common_degree == 1 == rep.weight - 1
        assert rep.fixed_space_dimension == 1

    def test_mixed_weight_polynomial_gets_gcd_bound_only(self):
        rep = cyclic.polynomial_digraph_report(P("x12+x11+x10+x9+x6+x+1"), 14)
        assert not rep.divides
        assert rep.mas_matches_degree is None
        assert rep.gcd_lower_bound == 9
        assert rep.fixed_space_dimension == 9

    def test_mixed_weight_polynomial_acyclic_set(self):
        # sandwich: the fixed space has dimension 9, so no acyclic induced
        # set can exceed 14 - 9 = 5; {0, 1, 3, 4, 8} attains it
        from oracles import induces_acyclic

        d = cyclic.digraph_from_polynomial(P("x12+x11+x10+x9+x6+x+1"), 14)
        res = dg.mas_exact(d)
        assert res.exact
        assert res.size == 5
        assert res.witness == (0, 1, 3, 4, 8)
        assert induces_acyclic(d, res.witness)

    def test_divisor_witness_is_the_leading_block(self):
        # for cyclic divisors the first n - deg(g) vertices are exactly
        # the lexicographically smallest maximum acyclic witness
        for n in (6, 9, 10):
            xn1 = cyclic.x_power_plus_one(n)
            for bits in range(1, 1 << n, 2):
                g = cyclic.Gf2Poly(bits)
                if g.degree >= n or not (xn1 % g).is_zero():
                    continue
                d = cyclic.digraph_from_polynomial(g, n)
                res = dg.mas_exact(d)
                assert res.witness == tuple(range(n - g.degree))

    def test_bidirectional_coefficient_test_matches_edges(self):
        rng = random.Random(52)
        checked = 0
        while checked < 200:
            n = rng.randint(2, 12)
            bits = rng.randrange(1, 1 << n) | 1
            g = cyclic.Gf2Poly(bits)
            if g.degree >= n:
                continue
            rep = cyclic.polynomial_digraph_report(g, n)
            assert rep.bidirectional_free_coeff == rep.bidirectional_free_edges
            assert rep.tournament_coeff == rep.tournament_edges
            checked += 1


class TestSimplex:
    def test_dimension_three_is_the_paley_tournament(self):
        poly, d = cyclic.simplex_digraph(3)
        assert poly == P("11101")
        assert d == cyclic.digraph_from_polynomial(P("11101"), 7)
        assert d.in_degree(0) == 3

    def test_dimension_two_is_the_directed_triangle(self):
        poly, d = cyclic.simplex_digraph(2)
        assert poly == P("11")
        assert d.n == 3
        assert all(d.in_degree(v) == 1 for v in range(3))

    def test_parameter_laws(self):
        for l in range(2, 7):
            poly, d = cyclic.simplex_digraph(l)
            n = (1 << l) - 1
            assert d.n == n
            assert all(d.in_degree(v) == (1 << (l - 1)) - 1 for v in range(n))
            par = gl.parity_check_protocol(d)
            assert par.dimension == (1 << l) - l - 1 == poly.degree

    def test_dimension_four_details(self):
        _, d = cyclic.simplex_digraph(4)
        assert d.n == 15
        assert d.in_degree(0) == 7
        assert gl.parity_check_protocol(d).dimension == 11
        assert dg.mas_exact(d).size == 4

    def test_range_check(self):
        with pytest.raises(BadParams):
            cyclic.simplex_digraph(1)
        with pytest.raises(BadParams):
            cyclic.simplex_digraph(11)


class TestFamilies:
    def test_three_t(self):
        fam = cyclic.family_unidirectional("three_t", t=5)
        assert fam.digraph.n == 15
        assert fam.poly == P("x7+x6+x5+x2+x+1")
        assert all(fam.digraph.in_degree(v) == 5 for v in range(15))
        assert fam.report.bidirectional_free_edges
        assert fam.report.strong
        assert fam.report.fixed_space_dimension == 7  # n/3 + 2

    def test_three_t_rejects_multiples_of_three(self):
        with pytest.raises(BadParams):
            cyclic.family_unidirectional("three_t", t=6)

    def test_three_t_rejects_the_degenerate_width(self):
        # t = 4 puts the generator degree at n/2, mirroring a coefficient
        with pytest.raises(BadParams):
            cyclic.family_unidirectional("three_t", t=4)

    def test_even_half(self):
        fam = cyclic.family_unidirectional("even_half", p=5)
        assert fam.digraph.n == 10
        assert all(fam.digraph.in_degree(v) == 4 for v in range(10))
        assert fam.report.fixed_space_dimension == 4
        assert fam.report.bidirectional_free_edges
        assert fam.report.strong

    def test_doubling_degree_and_weight_laws(self):
        base_cases = [
            (P("111"), 3, 1),
            (P("111"), 3, 2),
            (P("11111"), 5, 1),
            (P("x2+x+1"), 6, 1),
        ]
        for g, t, l in base_cases:
            fam = cyclic.family_unidirectional("doubling", g=g, t=t, l=l)
            assert fam.poly.degree == (1 << l) * g.degree + 1
            assert fam.poly.weight == 2 * g.weight
            assert fam.digraph.n == (1 << l) * t
            assert fam.report.divides

    def test_doubling_rejects_non_divisor(self):
        with pytest.raises(BadParams):
            cyclic.family_unidirectional("doubling", g=P("1011"), t=4, l=1)

    def test_unknown_kind(self):
        with pytest.raises(BadParams):
            cyclic.family_unidirectional("mystery", t=5)
