import itertools
import random
from types import SimpleNamespace

import pytest

from guessnum import cyclic
from guessnum import digraph as dg
from guessnum import gf_linear as gl
from guessnum import solvers
from guessnum.errors import BadParams, NonPrimeField

from oracles import (
    all_digraphs,
    brute_min_rank,
    full_support_matrix,
    identity_plus,
    induces_acyclic,
    random_digraph,
    rerank_descend,
    rref_nullspace,
    rref_rank,
    unpruned_min_rank,
    witness_fixed_matrix,
)


def paley7():
    return cyclic.digraph_from_polynomial(cyclic.parse_poly("11101"), 7)


class TestRank:
    def test_identity(self):
        assert gl.rank_gfp(gl.GfMatrix.identity(5, 2)) == 5
        assert gl.rank_gfp(gl.GfMatrix.identity(4, 3)) == 4

    def test_cycle_parity_matrix(self):
        h = identity_plus(dg.cycle(3), 2).transpose()
        assert gl.rank_gfp(h) == 2

    def test_all_ones(self):
        m = gl.GfMatrix([[1] * 3 for _ in range(3)], 2)
        assert gl.rank_gfp(m) == 1

    def test_non_prime_rejected(self):
        with pytest.raises(NonPrimeField):
            gl.GfMatrix([[1]], 4)

    def test_gf3_rank(self):
        m = gl.GfMatrix([[1, 2, 0], [0, 1, 2], [0, 0, 1]], 3)
        assert gl.rank_gfp(m) == 3
        m = gl.GfMatrix([[1, 2], [2, 4]], 3)  # second row = 2 * first
        assert gl.rank_gfp(m) == 1

    def test_nullspace_dimension(self):
        m = identity_plus(dg.cycle(3), 2).transpose()
        basis = gl.nullspace_gfp(m)
        assert len(basis) == 3 - gl.rank_gfp(m)
        for vec in basis:
            assert m.mul_vec(vec) == (0, 0, 0)

    def test_nullspace_of_random_matrices(self):
        rng = random.Random(41)
        for p in (2, 3, 5):
            for _ in range(25):
                rows, cols = rng.randint(1, 4), rng.randint(1, 4)
                m = gl.GfMatrix(
                    [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], p
                )
                basis = gl.nullspace_gfp(m)
                assert len(basis) == cols - gl.rank_gfp(m)
                zero = (0,) * rows
                for vec in basis:
                    assert m.mul_vec(vec) == zero
                # the basis spans every solution found by brute force
                solutions = {
                    v for v in itertools.product(range(p), repeat=cols)
                    if m.mul_vec(v) == zero
                }
                span = {
                    tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) % p
                          for i in range(cols))
                    for coeffs in itertools.product(range(p), repeat=len(basis))
                }
                assert span == solutions

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_the_elimination_oracle(self, p):
        # seeded matrices of 1-9 rows and columns, tall and wide, some of
        # low rank by construction, with zeroed rows and columns
        rng = random.Random(150 + p)
        shapes = set()
        for _ in range(300):
            rows, cols = rng.randint(1, 9), rng.randint(1, 9)
            if rng.random() < 0.5:
                k = rng.randint(1, min(rows, cols))
                left = [[rng.randrange(p) for _ in range(k)] for _ in range(rows)]
                right = [[rng.randrange(p) for _ in range(cols)] for _ in range(k)]
                entries = [
                    [sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                    for row in left
                ]
            else:
                entries = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
            for i in rng.sample(range(rows), rng.randint(0, rows // 2)):
                entries[i] = [0] * cols
            for j in rng.sample(range(cols), rng.randint(0, cols // 2)):
                for row in entries:
                    row[j] = 0
            m = gl.GfMatrix(entries, p)
            assert gl.rank_gfp(m) == rref_rank(m)
            assert gl.nullspace_gfp(m) == rref_nullspace(m)
            shapes.add((rows > cols) - (rows < cols))
        assert shapes == {-1, 0, 1}


class TestParityCheck:
    def test_cycle_repetition_code(self):
        res = gl.parity_check_protocol(dg.cycle(3))
        assert res.dimension == 1
        assert res.basis == (7,)  # the all-ones word

    def test_paley_gives_a_7_4_distance_3_code(self):
        res = gl.parity_check_protocol(paley7())
        assert res.dimension == 4
        space = {0}
        for b in res.basis:
            space |= {x ^ b for x in space}
        assert len(space) == 16
        assert min(x.bit_count() for x in space if x) == 3

    def test_empty_digraph(self):
        res = gl.parity_check_protocol(dg.Digraph(4))
        assert res.dimension == 0

    def test_basis_vectors_are_fixed_points(self):
        rng = random.Random(40)
        for _ in range(20):
            d = random_digraph(rng, rng.randint(1, 6))
            res = gl.parity_check_protocol(d)
            for code in res.basis:
                bits = [(code >> v) & 1 for v in range(d.n)]
                for v in range(d.n):
                    assert bits[v] == sum(bits[u] for u in d.in_neighbours(v)) % 2


class TestLinearGuessingNumber:
    def test_clique_exhaustive(self):
        rank, witness = gl._min_rank_exhaustive(dg.clique(3), 2, gl.DEFAULT_LINEAR_BUDGET)
        assert rank == 1
        eye_plus = gl.GfMatrix.identity(3, 2).add(witness)
        assert gl.rank_gfp(eye_plus) == 1

    def test_paley(self):
        assert gl.linear_guessing_number(paley7(), 2).value == 4

    def test_product_of_triangles(self):
        d = dg.strong_product(dg.cycle(3), dg.cycle(3))
        assert gl.linear_guessing_number(d, 2).value == 5

    def test_acyclic_is_zero(self):
        for d in (dg.path(4), dg.Digraph(3), dg.from_edge_list(3, [(0, 1), (0, 2)])):
            res = gl.linear_guessing_number(d, 2)
            assert res.value == 0

    def test_witness_support_and_fixed_space(self):
        rng = random.Random(41)
        for _ in range(15):
            d = random_digraph(rng, rng.randint(1, 4))
            p = rng.choice([2, 3])
            res = gl.linear_guessing_number(d, p)
            support = res.witness.support()
            assert all(d.has_edge(u, v) for u, v in support)
            basis = gl.fixed_space_basis(d, p, res.witness)
            assert len(basis) >= res.lower

    def test_exhaustive_matches_pinched_on_small_digraphs(self):
        rng = random.Random(42)
        for _ in range(12):
            d = random_digraph(rng, rng.randint(1, 4))
            forced = d.n - gl._min_rank_exhaustive(d, 2, gl.DEFAULT_LINEAR_BUDGET)[0]
            auto = gl.linear_guessing_number(d, 2)
            assert auto.lower <= forced <= auto.upper
            if auto.exact:
                assert auto.value == forced

    def test_never_exceeds_guessing_number(self):
        rng = random.Random(43)
        for _ in range(12):
            d = random_digraph(rng, rng.randint(1, 4))
            lin = gl.linear_guessing_number(d, 2)
            g = solvers.guessing_number(d, 2)
            assert lin.value <= g.value + 1e-9

    def test_unidirectional_union_adds(self):
        rng = random.Random(44)
        for _ in range(8):
            d1 = random_digraph(rng, rng.randint(1, 3))
            d2 = random_digraph(rng, rng.randint(1, 3))
            g1 = gl.linear_guessing_number(d1, 2).value
            g2 = gl.linear_guessing_number(d2, 2).value
            u = dg.unidirectional_union(d1, d2)
            total = gl.linear_guessing_number(u, 2).value
            assert total == g1 + g2

    def test_bidirectional_union_min_law(self):
        rng = random.Random(45)
        for _ in range(6):
            d1 = random_digraph(rng, 2)
            d2 = random_digraph(rng, 2)
            g1 = gl.linear_guessing_number(d1, 2).value
            g2 = gl.linear_guessing_number(d2, 2).value
            u = dg.bidirectional_union(d1, d2)
            total = gl.linear_guessing_number(u, 2).value
            assert total == min(g1 + d2.n, g2 + d1.n)

    def test_acyclic_set_meets_every_strong_component(self):
        # so n - mas never exceeds n minus the number of strong
        # components, the upper bound the linear search leaves out
        rng = random.Random(46)
        digraphs = [d for n in range(5) for d in all_digraphs(n)]
        digraphs += [
            random_digraph(rng, rng.randint(5, 14), rng.uniform(0.1, 0.6))
            for _ in range(100)
        ]
        for d in digraphs:
            mas = dg.mas_exact(d)
            components = dg.strong_components(d).components
            assert mas.size >= len(components)
            assert all(set(c) & set(mas.witness) for c in components)

    def test_row_count_uppers_hold_on_families(self):
        for fam_kind, params in [("three_t", dict(t=5)), ("even_half", dict(p=5))]:
            fam = cyclic.family_unidirectional(fam_kind, **params)
            d = fam.digraph
            value = gl.linear_guessing_number(d, 2).lower
            for bound, _ in gl._sparse_linear_uppers(d, 2):
                assert value <= bound + 1e-9


class TestStoppedSearches:
    """The bound-stopped searches agree with the unstopped ones."""

    @staticmethod
    def digraphs(seed):
        rng = random.Random(seed)
        for _ in range(20):
            yield random_digraph(rng, rng.randint(1, 5)), rng

    @pytest.mark.parametrize("p", [2, 3])
    def test_bounded_lower_stop(self, p):
        for d, _ in self.digraphs(50 + p):
            full = gl._bounded_lower(d, p)
            exact = d.n - gl._min_rank_exhaustive(d, p, gl.DEFAULT_LINEAR_BUDGET)[0]
            for upper in (exact, d.n - dg.mas_exact(d).size):
                assert gl._bounded_lower(d, p, upper) == full

    @pytest.mark.parametrize("p", [2, 3])
    def test_exhaustive_floor(self, p):
        budget = gl.DEFAULT_LINEAR_BUDGET
        for d, _ in self.digraphs(60 + p):
            rank, witness = gl._min_rank_exhaustive(d, p, budget)
            for floor in (rank, dg.mas_exact(d).size):
                assert gl._min_rank_exhaustive(d, p, budget, floor=floor) == (rank, witness)

    @pytest.mark.parametrize("p", [2, 3])
    def test_exhaustive_ceiling(self, p):
        # starting from a reachable rank still finds the first optimal pattern
        budget = gl.DEFAULT_LINEAR_BUDGET
        for d, _ in self.digraphs(60 + p):
            rank, witness = gl._min_rank_exhaustive(d, p, budget)
            for ceiling in (rank, d.n - gl._bounded_lower(d, p)[0]):
                got = gl._min_rank_exhaustive(d, p, budget, ceiling=ceiling)
                assert got == (rank, witness)

    @pytest.mark.parametrize("p", [2, 3])
    def test_rank_of_support_matches_dense_rank(self, p):
        for d, rng in self.digraphs(70 + p):
            coeffs = {e: rng.randrange(p) for e in d.edges()}
            entries = [[int(i == j) for j in range(d.n)] for i in range(d.n)]
            for (u, v), val in coeffs.items():
                entries[u][v] = val
            dense = rref_rank(gl.GfMatrix(entries, p))
            assert gl._rank_of_support(d, p, coeffs) == dense

    @pytest.mark.parametrize("p", [2, 3])
    def test_bracket_and_witness_under_every_mode(self, p):
        for d, _ in self.digraphs(80 + p):
            for budget in (gl.DEFAULT_LINEAR_BUDGET, 0):
                res = gl.linear_guessing_number(d, p, budget=budget)
                assert res.lower <= res.upper
                assert len(gl.fixed_space_basis(d, p, res.witness)) >= res.lower


class TestDescent:
    """The descent against re-ranking the whole matrix for every trial."""

    @staticmethod
    def starts(d, p):
        # the five descent starts of _lower_candidates: all-ones, then
        # four samples from Random(0)
        edges = d.edges()
        yield {e: 1 for e in edges}
        rng = random.Random(0)
        for _ in range(4):
            yield {e: rng.randrange(p) for e in edges}

    def check(self, d, p):
        for start in self.starts(d, p):
            assert gl._descend(d, p, dict(start)) == rerank_descend(d, p, dict(start))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_seeded_digraphs(self, p):
        rng = random.Random(130 + p)
        for _ in range(20):
            self.check(random_digraph(rng, rng.randint(1, 10), rng.uniform(0.2, 0.7)), p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_circulants(self, p):
        # a divisor of x^n + 1 (its gcd with a random polynomial) and a
        # random generator for every n from 12 to 20; the random ones stay
        # sparse off GF(2), where each re-ranked trial costs a dense
        # elimination
        rng = random.Random(140 + p)
        for n in range(12, 21):
            xn1 = cyclic.x_power_plus_one(n)
            divisor = cyclic.Gf2Poly(1)
            while not 0 < divisor.degree < n:
                divisor = xn1.gcd(cyclic.Gf2Poly(rng.getrandbits(n)))
            weight = rng.randint(3, n // 2 if p == 2 else 4)
            exps = rng.sample(range(1, n), weight - 1)
            generator = cyclic.Gf2Poly(1 | sum(1 << e for e in exps))
            for g in (divisor, generator):
                self.check(cyclic.digraph_from_polynomial(g, n), p)


class TestAgainstOracles:
    """The one search and the one basis builder, against the references."""

    @staticmethod
    def digraphs(seed, p, limit):
        rng = random.Random(seed)
        for _ in range(40):
            d = random_digraph(rng, rng.randint(1, 5), rng.uniform(0.25, 0.7))
            if p ** d.edge_count() <= limit:
                yield d, rng

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_min_rank_matches_listing(self, p):
        # at p = 3 the search finds this digraph's first optimal pattern
        # only when it normalizes every pivot row
        pinned = dg.from_edge_list(
            4, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 3), (3, 1)]
        )
        cases = [d for d, _ in self.digraphs(90 + p, p, 5000)]
        if p ** pinned.edge_count() <= 5000:
            cases.append(pinned)
        checked = 0
        for d in cases:
            rank, witness = brute_min_rank(d, p)
            for floor in (0, dg.mas_exact(d).size):
                got = gl._min_rank_exhaustive(d, p, gl.DEFAULT_LINEAR_BUDGET, floor=floor)
                assert (got[0], got[1].entries) == (rank, witness)
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("p", [2, 3])
    def test_min_rank_matches_unpruned_search(self, p):
        # pattern spaces above the listing's 5 000 patterns, up to 2^16
        rng = random.Random(120 + p)
        checked = 0
        while checked < 10:
            d = random_digraph(rng, rng.randint(5, 7), rng.uniform(0.3, 0.5))
            if not 5000 < p ** d.edge_count() <= 1 << 16:
                continue
            rank, witness = unpruned_min_rank(d, p, gl.DEFAULT_LINEAR_BUDGET)
            for floor in (0, dg.mas_exact(d).size):
                got = gl._min_rank_exhaustive(d, p, gl.DEFAULT_LINEAR_BUDGET, floor=floor)
                assert (got[0], got[1].entries) == (rank, witness)
            checked += 1

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_all_ones_basis_matches_reference(self, p):
        for d, _ in self.digraphs(100 + p, p, float("inf")):
            reference = rref_nullspace(full_support_matrix(d, p))
            assert gl.full_support_fixed_basis(d, p) == reference
            assert gl.full_support_fixed_dimension(d, p) == len(reference)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_witness_basis_matches_reference(self, p):
        for d, rng in self.digraphs(110 + p, p, float("inf")):
            witnesses = (
                gl.linear_guessing_number(d, p).witness,
                gl._matrix_from_coeffs(d, p, {e: rng.randrange(p) for e in d.edges()}),
            )
            for witness in witnesses:
                reference = rref_nullspace(witness_fixed_matrix(d, p, witness))
                assert gl.fixed_space_basis(d, p, witness) == reference
        # a diagonal entry: row 0 of I + W is (2, -1), not (1, -1), so
        # the 2-cycle fixes only zero and the triangle the all-ones word
        d = dg.from_edge_list(5, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)])
        witness = gl.GfMatrix(
            [
                [1, -1, 0, 0, 0],
                [-1, 0, 0, 0, 0],
                [0, 0, 0, -1, 0],
                [0, 0, 0, 0, -1],
                [0, 0, -1, 0, 0],
            ],
            p,
        )
        reference = rref_nullspace(witness_fixed_matrix(d, p, witness))
        assert reference == [(0, 0, 1, 1, 1)]
        assert gl.fixed_space_basis(d, p, witness) == reference

    @pytest.mark.parametrize("p", [2, 3])
    def test_witness_off_the_edges_is_rejected(self, p):
        # x_0 = x_1 and x_1 = x_0 on a digraph without edges
        witness = gl.GfMatrix([[0, -1], [-1, 0]], p)
        with pytest.raises(AssertionError):
            gl.fixed_space_basis(dg.Digraph(2), p, witness)


class TestPruneBound:
    """Rows 0..v-1 chosen: every completion has rank at least the rank of
    the chosen rows plus the largest acyclic set among the vertices that
    no chosen row touches."""

    @staticmethod
    def check(d, p, ranks):
        n = d.n
        every = (1 << n) - 1
        acyclic = [
            m for m in range(1 << n) if induces_acyclic(d, [v for v in range(n) if m >> v & 1])
        ]
        mas = [max(m.bit_count() for m in acyclic if m & ~u == 0) for u in range(1 << n)]
        choices = []
        for v in range(n):
            outs = d.out_neighbours(v)
            rows = []
            for combo in itertools.product(range(p), repeat=len(outs)):
                row = [int(j == v) for j in range(n)]
                for j, c in zip(outs, combo):
                    row[j] = c
                rows.append((tuple(row), sum(1 << j for j in range(n) if row[j])))
            choices.append(rows)

        def rank(rows):
            if rows not in ranks:
                ranks[rows] = gl.rank_gfp(gl.GfMatrix(rows, p))
            return ranks[rows]

        def walk(v, rows, touched):
            # the least rank over every completion of ``rows``
            if v == n:
                return rank(rows)
            least = min(
                walk(v + 1, rows + (row,), touched | support) for row, support in choices[v]
            )
            assert least >= rank(rows) + mas[every & ~touched], (d.edges(), rows)
            return least

        walk(0, (), 0)

    def test_every_small_digraph_over_gf2(self):
        ranks = {}
        for n in range(5):
            for d in all_digraphs(n):
                self.check(d, 2, ranks)

    def test_seeded_four_vertex_digraphs_over_gf3(self):
        rng = random.Random(130)
        ranks = {}
        checked = 0
        while checked < 12:
            d = random_digraph(rng, 4, rng.uniform(0.3, 0.6))
            if d.edge_count() <= 8:
                self.check(d, 3, ranks)
                checked += 1


class TestSparseNonDivisor:
    """x^5 + x^2 + 1 on 12 vertices, the fixed sparse cyclic_sweep job."""

    # support of the lexicographically first optimal pattern
    WITNESS = (
        (0, 10), (1, 8), (2, 9), (3, 1), (4, 11), (5, 0),
        (6, 4), (7, 2), (8, 3), (9, 7), (10, 5), (11, 6),
    )

    @staticmethod
    def digraph():
        return cyclic.digraph_from_polynomial(cyclic.parse_poly("x5+x2+1"), 12)

    def test_exact_with_the_first_optimal_pattern(self):
        res = gl.linear_guessing_number(self.digraph(), 2)
        assert (res.lower, res.upper, res.exact) == (4, 4, True)
        assert res.provenance == ("exhaustive", "exhaustive")
        assert res.witness.entries == tuple(
            tuple(int((u, v) in self.WITNESS) for v in range(12)) for u in range(12)
        )

    def test_prune_cuts_the_search(self, monkeypatch):
        # one itertools.product call per expanded node; the search
        # without the rank + acyclic-set prune expands 59 428
        nodes = 0
        product = itertools.product

        def counted(*args, **kwargs):
            nonlocal nodes
            nodes += 1
            return product(*args, **kwargs)

        monkeypatch.setattr(gl, "itertools", SimpleNamespace(product=counted))
        rank, _ = gl._min_rank_exhaustive(
            self.digraph(), 2, gl.DEFAULT_LINEAR_BUDGET, floor=8
        )
        assert rank == 8
        assert nodes <= 3077


class TestProductLower:
    def test_triangle_square(self):
        bound, witness = gl.linear_product_lower(dg.cycle(3), dg.cycle(3), 2)
        assert bound == 5
        prod = dg.strong_product(dg.cycle(3), dg.cycle(3))
        assert all(prod.has_edge(u, v) for u, v in witness.support())

    def test_mixed_cycles(self):
        bound, witness = gl.linear_product_lower(dg.cycle(4), dg.cycle(3), 2)
        assert bound == 12 - 3 * 2
        eye_plus = gl.GfMatrix.identity(12, 2).add(witness)
        assert gl.rank_gfp(eye_plus) == 6

    def test_identity_factor(self):
        d = dg.cycle(4)
        bound, _ = gl.linear_product_lower(dg.clique(1), d, 2)
        assert bound == gl.linear_guessing_number(d, 2).value


class TestMatrixText:
    def test_round_trip(self):
        m = gl.GfMatrix([[0, 1, 2], [2, 0, 1]], 3)
        again = gl.matrix_from_text(gl.matrix_to_text(m))
        assert again == m

    @pytest.mark.parametrize(
        "text", ["", "# only a comment\n", "2 2 x\n", "2 2\n", "1 2 3\n0 y\n"]
    )
    def test_malformed_text_rejected(self, text):
        with pytest.raises(BadParams):
            gl.matrix_from_text(text)

    def test_coefficient_matrix_matches_the_public_constructor(self):
        rng = random.Random(532)
        for p in (2, 3, 5, 7):
            for n in range(5):
                d = random_digraph(rng, n, 0.5)
                coeffs = {e: rng.randrange(-2 * p, 2 * p) for e in d.edges()}
                entries = [[coeffs.get((u, v), 0) for v in range(n)] for u in range(n)]
                m = gl._matrix_from_coeffs(d, p, coeffs)
                public = gl.GfMatrix(entries, p)
                assert m == public
                assert (m.rows, m.cols, m.p, m.entries) == (
                    public.rows, public.cols, public.p, public.entries)
                assert gl.rank_gfp(m) == gl.rank_gfp(public)

    def test_kron(self):
        a = gl.GfMatrix([[1, 1], [0, 1]], 2)
        b = gl.GfMatrix([[1, 0], [1, 1]], 2)
        k = a.kron(b)
        assert k.rows == k.cols == 4
        assert gl.rank_gfp(k) == gl.rank_gfp(a) * gl.rank_gfp(b)
