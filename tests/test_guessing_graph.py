import itertools
import random

import pytest

from guessnum import digraph as dg
from guessnum import guessing_graph as gg
from guessnum import solvers
from guessnum.errors import AlphabetMismatch, SizeGuard

from oracles import (
    add_codes,
    all_digraphs,
    brute_adjacent,
    brute_degree,
    brute_neighbors,
    inclusion_exclusion_degree,
    is_circulant,
    random_digraph,
    weak_components,
)


def codes(*words, s=2):
    return [gg.encode(w, s) for w in words]


class TestCodec:
    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(100):
            n = rng.randint(1, 6)
            s = rng.randint(2, 5)
            word = tuple(rng.randrange(s) for _ in range(n))
            assert gg.decode(gg.encode(word, s), n, s) == word

    def test_coordinate_zero_least_significant(self):
        assert gg.encode((1, 0, 0), 2) == 1
        assert gg.encode((0, 0, 1), 2) == 4
        assert gg.encode((2, 1), 3) == 5

    def test_symbol_range_checked(self):
        with pytest.raises(AlphabetMismatch):
            gg.encode((2,), 2)

    def test_addition(self):
        assert add_codes(gg.encode((1, 2), 3), gg.encode((2, 2), 3), 2, 3) == gg.encode((0, 1), 3)


class TestCoordinateMasks:
    def test_every_code_against_decode(self):
        for s in range(2, 6):
            n = 0
            while s**n <= 256:
                masks = gg.coordinate_masks(n, s)
                assert len(masks) == n
                for j in range(n):
                    assert len(masks[j]) == s
                    for a in range(s):
                        assert masks[j][a] >> s**n == 0
                for x in range(s**n):
                    xs = gg.decode(x, n, s)
                    for j in range(n):
                        for a in range(s):
                            assert (masks[j][a] >> x & 1) == (xs[j] == a)
                n += 1


class TestOracle:
    def test_clique_hamming_rule(self):
        h = gg.GuessingGraph(dg.clique(3), 2)
        x, y = codes((0, 0, 0), (1, 0, 0))
        assert h.adjacent(x, y)

    def test_irreflexive(self):
        h = gg.GuessingGraph(dg.cycle(3), 2)
        assert not h.adjacent(5, 5)

    def test_cycle_all_coordinates_differ(self):
        h = gg.GuessingGraph(dg.cycle(3), 2)
        x, y = codes((0, 0, 0), (1, 1, 1))
        assert not h.adjacent(x, y)

    def test_against_brute_force(self):
        rng = random.Random(2)
        for _ in range(25):
            d = random_digraph(rng, rng.randint(1, 4))
            s = rng.choice([2, 3])
            h = gg.GuessingGraph(d, s)
            for _ in range(30):
                x = rng.randrange(h.n_configs)
                y = rng.randrange(h.n_configs)
                assert h.adjacent(x, y) == brute_adjacent(d, s, x, y)
                assert h.adjacent(x, y) == h.adjacent(y, x)

    def test_code_range_checked(self):
        h = gg.GuessingGraph(dg.cycle(3), 2)
        with pytest.raises(AlphabetMismatch):
            h.adjacent(0, 8)


class TestNeighbors:
    def test_clique_neighbors_are_weight_one(self):
        h = gg.GuessingGraph(dg.clique(3), 2)
        assert h.neighbors(0) == {1, 2, 4}

    def test_cycle_neighbors_match_brute_force(self):
        d = dg.cycle(3)
        h = gg.GuessingGraph(d, 2)
        expected = brute_neighbors(d, 2, 0)
        assert h.neighbors(0) == expected
        assert {gg.decode(c, 3, 2) for c in expected} == {
            w for w in itertools.product((0, 1), repeat=3) if 0 < sum(w) < 3
        }

    def test_neighbor_count_translation_invariant(self):
        rng = random.Random(3)
        d = random_digraph(rng, 4)
        h = gg.GuessingGraph(d, 3)
        base = len(h.neighbors(0))
        for _ in range(20):
            x = rng.randrange(h.n_configs)
            assert len(h.neighbors(x)) == base

    def test_random_digraphs_match_brute_force(self):
        rng = random.Random(4)
        for _ in range(15):
            d = random_digraph(rng, rng.randint(1, 4))
            s = rng.choice([2, 3])
            h = gg.GuessingGraph(d, s)
            x = rng.randrange(h.n_configs)
            assert h.neighbors(x) == brute_neighbors(d, s, x)

    def test_every_code_unmaterialized(self):
        rng = random.Random(5)
        for s in (2, 3, 4):
            for _ in range(4):
                d = random_digraph(rng, rng.randint(0, 3))
                h = gg.GuessingGraph(d, s)
                for x in range(h.n_configs):
                    assert h.neighbors(x) == brute_neighbors(d, s, x)
                assert not h.materialized


class TestHandleGuard:
    """The configuration guard is set once, when the handle is built."""

    def test_every_enumeration_checks_the_handle_guard(self):
        h = gg.GuessingGraph(dg.cycle(4), 3, guard=1 << 6)
        with pytest.raises(SizeGuard) as exc:
            h.materialize()
        assert (exc.value.needed, exc.value.guard) == (81, 64)
        assert str(exc.value) == "materialization needs 3^4 = 81 configurations (> guard 64)"
        for enumerate_ in (lambda: h.neighbors(0), h.zero_neighbors, h.degree):
            with pytest.raises(SizeGuard) as exc:
                enumerate_()
            assert (exc.value.needed, exc.value.guard) == (81, 64)
            assert str(exc.value) == "neighbour enumeration needs 3^4 configurations (> guard 64)"
        assert not h.materialized
        assert h.adjacent(0, 1)  # the oracle is not guarded

    def test_guard_at_the_size_admits_it(self):
        h = gg.GuessingGraph(dg.cycle(4), 3, guard=81)
        assert h.degree() == gg.degree_closed_form(dg.cycle(4), 3)
        assert h.materialize().materialized

    def test_rows_beyond_the_byte_limit_are_refused_before_allocation(self, monkeypatch):
        # s^n rows of s^n bits may take up to 2^29 bytes, that is s^n up
        # to 2^16, whatever the count guard admits; README's thm3 -l 3
        # -k 2 -m 2 ring has 2^18 configurations, and rows of 8 GiB
        def stub_rows(*args):
            return "rows"

        monkeypatch.setattr(gg, "_translated_rows", stub_rows)
        for s, n in ((2, 16), (3, 10)):
            assert gg.GuessingGraph(dg.cycle(n), s).materialize().rows == "rows"
        refused = ((dg.cycle(17), 2), (dg.cycle(11), 3), (dg.cycle_power_ring(3, 2, 2), 2))
        for d, s in refused:
            h = gg.GuessingGraph(d, s)
            needed = (s ** (2 * d.n) + 7) // 8
            with pytest.raises(SizeGuard) as exc:
                h.materialize()
            assert (exc.value.needed, exc.value.guard) == (needed, 1 << 29)
            assert str(exc.value) == (
                f"materialization needs {needed} bytes of rows (> limit {1 << 29})")
            assert not h.materialized


class TestDegree:
    def test_degree_matches_zero_row_and_closed_form(self):
        rng = random.Random(44)
        for s, top in ((2, 6), (3, 4), (4, 3)):
            for _ in range(8):
                d = random_digraph(rng, rng.randint(0, top), p=rng.choice([0.3, 0.6]))
                expected = gg.degree_closed_form(d, s)
                h = gg.GuessingGraph(d, s)
                zero = h.zero_neighbors()
                assert zero == tuple(sorted(brute_neighbors(d, s, 0)))
                assert h.degree() == len(zero) == expected
                assert not h.materialized
                h.materialize()
                assert h.zero_neighbors() == zero
                assert h.degree() == h.rows[0].bit_count() == expected


class TestDegreeClosedForm:
    def test_clique(self):
        assert gg.degree_closed_form(dg.clique(3), 2) == 3

    def test_cycle(self):
        assert gg.degree_closed_form(dg.cycle(3), 2) == 6

    def test_acyclic_is_complete(self):
        for n in (1, 2, 3, 4):
            d = dg.path(n)
            for s in (2, 3):
                assert gg.degree_closed_form(d, s) == s**n - 1

    def test_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(60):
            d = random_digraph(rng, rng.randint(1, 5))
            s = rng.choice([2, 3])
            assert gg.degree_closed_form(d, s) == brute_degree(d, s)

    def test_matches_single_walk_inclusion_exclusion(self):
        for n in range(5):
            for d in all_digraphs(n):
                for s in (2, 3):
                    assert gg.degree_closed_form(d, s) == inclusion_exclusion_degree(d, s)

    def test_union_multiplies_non_neighbours(self):
        rng = random.Random(7)
        for _ in range(40):
            d1 = random_digraph(rng, rng.randint(0, 6), rng.uniform(0.1, 0.6))
            d2 = random_digraph(rng, rng.randint(0, 6), rng.uniform(0.1, 0.6))
            s = rng.choice([2, 3, 4])
            union = dg.disjoint_union(d1, d2)
            assert s**union.n - gg.degree_closed_form(union, s) == (
                (s**d1.n - gg.degree_closed_form(d1, s))
                * (s**d2.n - gg.degree_closed_form(d2, s))
            )

    def test_cycle_closed_form(self):
        # the only closed sets of a directed cycle are the empty set and the cycle
        for s in (2, 3):
            for m in range(2, 81):
                assert gg.degree_closed_form(dg.cycle(m), s) == s**m - 1 - (s - 1) ** m

    def test_forty_leaves_on_a_triangle(self):
        # a directed 3-cycle with 40 leaves on vertex 0: the nonempty closed
        # sets are the cycle plus any set of leaves
        d = leafy_triangle()
        for s in (2, 3):
            assert gg.degree_closed_form(d, s) == s**43 - 1 - (s - 1) ** 3 * s**40

    def test_forty_leaves_on_a_triangle_lists_the_degree_bound(self):
        rep = solvers.bounds_report(leafy_triangle(), 2)
        assert "graph_degree" in {b.name for b in rep.bounds}
        assert "graph_degree" not in dict(rep.skipped)

    def test_in_degree_at_most_one_matches_inclusion_exclusion(self):
        # every digraph on 5 vertices whose in-degrees are at most 1 (each
        # vertex reads one other vertex or none), then seeded larger ones
        n = 5
        for parents in itertools.product(range(-1, n - 1), repeat=n):
            d = dg.Digraph(n, [
                (u + (u >= v), v) for v, u in enumerate(parents) if u >= 0])
            for s in (2, 3, 4):
                assert gg.degree_closed_form(d, s) == inclusion_exclusion_degree(d, s)
        rng = random.Random(28)
        for _ in range(30):
            n = rng.randint(6, 12)
            d = dg.Digraph(n, [
                (rng.choice([u for u in range(n) if u != v]), v)
                for v in range(n) if rng.random() < 0.9])
            s = rng.choice([2, 3, 4])
            assert gg.degree_closed_form(d, s) == inclusion_exclusion_degree(d, s)

    def test_cap_counts_one_node_per_walked_set(self, monkeypatch):
        # each weak component is counted once: with no node when every
        # in-degree is at most 1, with one per nonempty independent set
        # otherwise (on a circulant, per one containing the component's
        # lowest vertex), so the guard trips exactly when the cap is one
        # below their total
        rng = random.Random(6)
        cases = []
        for _ in range(12):
            n = rng.randint(3, 8)
            cases.append(dg.Digraph(n, [  # every in-degree at least 2
                (u, v) for v in range(n)
                for u in rng.sample([u for u in range(n) if u != v], rng.randint(2, n - 1))
            ]))
            n = rng.randint(2, 9)
            cases.append(dg.Digraph(n, [  # one in-neighbour each: cycles and out-trees
                (rng.choice([u for u in range(n) if u != v]), v) for v in range(n)
            ]))
            n = rng.randint(2, 8)
            cases.append(dg.Digraph(n, [(rng.randrange(v), v) for v in range(1, n)]))
            cases.append(dg.Digraph(n, [(v, rng.randrange(v)) for v in range(1, n)]))
            cases.append(dg.cycle(rng.randint(2, 9)))
            cases.append(random_digraph(rng, rng.randint(1, 9), rng.uniform(0.1, 0.5)))
        cases += [dg.disjoint_union(a, b) for a, b in zip(cases, cases[1:])]
        cases += [random_digraph(rng, rng.randint(3, 8), 0.4) for _ in range(12)]
        for n in range(3, 10):  # circulants, some with several weak components
            for shifts in ({1, 2}, {2, n - 2}, set(rng.sample(range(1, n), 2))):
                cases.append(dg.Digraph(n, [(v, (v + j) % n) for v in range(n) for j in shifts]))
        walked = rotating = 0
        for d in cases:
            nodes = sum(walked_sets(d, comp) for comp in weak_components(d))
            rotating += is_circulant(d) and any(
                d.in_degree(v) > 1 for v in range(d.n))
            monkeypatch.setattr(gg, "_DEGREE_NODE_CAP", nodes)
            expected = gg.degree_closed_form(d, 3)
            assert expected == inclusion_exclusion_degree(d, 3)
            if not nodes:
                continue
            walked += 1
            monkeypatch.setattr(gg, "_DEGREE_NODE_CAP", nodes - 1)
            with pytest.raises(SizeGuard) as exc:
                gg.degree_closed_form(d, 3)
            assert (exc.value.needed, exc.value.guard) == (nodes, nodes - 1)
        assert walked >= 100
        assert rotating >= 5


def walked_sets(d, comp):
    """Nonempty sets inclusion-exclusion walks in a weak component, counted
    by subset scan: none when every in-degree is at most 1, since that
    component's count is a closed form.  On a circulant only the sets
    that contain the component's lowest vertex are walked.
    """
    if all(d.in_degree(v) <= 1 for v in comp):
        return 0
    lowest = min(comp) if is_circulant(d) else None
    count = 0
    for k in range(1, len(comp) + 1):
        for vs in itertools.combinations(sorted(comp), k):
            if lowest is None or lowest in vs:
                count += not any(d.has_edge(u, v) for u in vs for v in vs)
    return count


def leafy_triangle():
    """A directed 3-cycle on 0, 1, 2 with 40 leaves hanging from vertex 0."""
    return dg.Digraph(43, [(0, 1), (1, 2), (2, 0)] + [(0, v) for v in range(3, 43)])


class TestMaterialize:
    def test_clique_is_the_cube(self):
        h = gg.materialize(dg.clique(3), 2)
        assert h.n_configs == 8
        assert sum(r.bit_count() for r in h.rows) // 2 == 12

    def test_cycle_is_regular_degree_six(self):
        h = gg.materialize(dg.cycle(3), 2)
        assert all(r.bit_count() == 6 for r in h.rows)

    def test_size_guard(self):
        with pytest.raises(SizeGuard) as exc:
            gg.materialize(dg.cycle(4), 3, guard=1 << 6)
        assert exc.value.needed == 81

    def test_rows_match_oracle(self):
        rng = random.Random(6)
        for _ in range(10):
            d = random_digraph(rng, rng.randint(1, 4))
            s = rng.choice([2, 3])
            h = gg.materialize(d, s)
            for _ in range(25):
                x = rng.randrange(h.n_configs)
                y = rng.randrange(h.n_configs)
                assert bool((h.rows[x] >> y) & 1) == brute_adjacent(d, s, x, y)
            # symmetric, irreflexive
            for x in range(h.n_configs):
                assert not (h.rows[x] >> x) & 1
                m = h.rows[x]
                while m:
                    low = m & -m
                    y = low.bit_length() - 1
                    assert (h.rows[y] >> x) & 1
                    m ^= low


def _materialize_cases():
    """Seeded digraphs at s = 2..5 with s^n <= 256, plus the edge cases."""
    rng = random.Random(12)
    cases = [(dg.Digraph(0, []), 2), (dg.Digraph(0, []), 5)]
    for s, top in ((2, 8), (3, 5), (4, 4), (5, 3)):
        cases.append((dg.Digraph(1, []), s))
        cases.append((dg.Digraph(top, []), s))  # edgeless: the complete graph
        for n in range(2, top + 1):
            cases.append((random_digraph(rng, n, p=rng.choice([0.3, 0.6])), s))
    return [
        pytest.param(d, s, id=f"s{s}-n{d.n}-e{len(d.edges())}") for d, s in cases
    ]


class TestMaterializeExhaustive:
    @pytest.mark.parametrize("d,s", _materialize_cases())
    def test_every_pair_matches_the_definition(self, d, s):
        h = gg.materialize(d, s)
        assert len(h.rows) == s**d.n
        for x in range(h.n_configs):
            expected = 0
            for y in range(h.n_configs):
                if brute_adjacent(d, s, x, y):
                    expected |= 1 << y
            assert h.rows[x] == expected

    @pytest.mark.parametrize("d,s", _materialize_cases())
    def test_every_row_is_the_zero_row_translated(self, d, s):
        h = gg.materialize(d, s)
        zero = [y for y in range(h.n_configs) if (h.rows[0] >> y) & 1]
        for x in range(h.n_configs):
            translated = 0
            for z in zero:
                translated |= 1 << add_codes(x, z, d.n, s)
            assert h.rows[x] == translated


class TestSymmetries:
    def test_translation(self):
        rng = random.Random(7)
        d = random_digraph(rng, 4)
        h = gg.GuessingGraph(d, 3)
        for _ in range(40):
            x, y, e = (rng.randrange(h.n_configs) for _ in range(3))
            shifted = (add_codes(x, e, 4, 3), add_codes(y, e, 4, 3))
            assert h.adjacent(x, y) == h.adjacent(*shifted)

    def test_rotation_automorphism_of_cycle(self):
        n, s = 4, 2
        d = dg.cycle(n)
        h = gg.GuessingGraph(d, s)
        rng = random.Random(8)

        def rotate(code):
            word = gg.decode(code, n, s)
            return gg.encode(word[-1:] + word[:-1], s)

        for _ in range(60):
            x = rng.randrange(h.n_configs)
            y = rng.randrange(h.n_configs)
            assert h.adjacent(x, y) == h.adjacent(rotate(x), rotate(y))

    def test_nonzero_scaling_prime_alphabet(self):
        n, s = 3, 3
        d = dg.cycle(3)
        h = gg.GuessingGraph(d, s)
        rng = random.Random(9)
        for _ in range(60):
            x = rng.randrange(h.n_configs)
            y = rng.randrange(h.n_configs)
            lam = [rng.randrange(1, s) for _ in range(n)]
            xs = gg.encode(tuple(l * a % s for l, a in zip(lam, gg.decode(x, n, s))), s)
            ys = gg.encode(tuple(l * a % s for l, a in zip(lam, gg.decode(y, n, s))), s)
            assert h.adjacent(x, y) == h.adjacent(xs, ys)

    def test_induced_restriction_matches_subgraph(self):
        # fixing the word outside an induced set of vertices leaves exactly
        # that set's own configuration graph
        rng = random.Random(10)
        for _ in range(15):
            n = rng.randint(2, 5)
            s = rng.choice([2, 3])
            d = random_digraph(rng, n)
            keep = sorted(rng.sample(range(n), rng.randint(1, n)))
            sub, _ = dg.induced_subdigraph(d, keep)
            outside = [v for v in range(n) if v not in keep]
            exterior = {v: rng.randrange(s) for v in outside}
            big = gg.GuessingGraph(d, s)
            small = gg.GuessingGraph(sub, s)

            def lift(code):
                word = gg.decode(code, len(keep), s)
                full = [0] * n
                for v, sym in zip(keep, word):
                    full[v] = sym
                for v, sym in exterior.items():
                    full[v] = sym
                return gg.encode(tuple(full), s)

            for _ in range(25):
                a = rng.randrange(small.n_configs)
                b = rng.randrange(small.n_configs)
                assert small.adjacent(a, b) == big.adjacent(lift(a), lift(b))

    def test_removing_digraph_edges_only_adds_conflicts(self):
        rng = random.Random(11)
        for _ in range(15):
            n = rng.randint(2, 4)
            s = rng.choice([2, 3])
            d = random_digraph(rng, n, p=0.6)
            edges = d.edges()
            if not edges:
                continue
            removed = rng.choice(edges)
            sparser = dg.Digraph(n, [e for e in edges if e != removed])
            full = gg.GuessingGraph(d, s)
            sparse = gg.GuessingGraph(sparser, s)
            for x in range(full.n_configs):
                for y in range(x + 1, full.n_configs):
                    if full.adjacent(x, y):
                        assert sparse.adjacent(x, y)


class TestExport:
    def test_edge_list_round_trips_the_cube(self, tmp_path):
        h = gg.materialize(dg.clique(3), 2)
        path = tmp_path / "cube.txt"
        text = gg.write_edge_list(h, path)
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert len(lines) == 12
        pairs = {tuple(map(int, ln.split())) for ln in lines}
        assert all(h.adjacent(x, y) for x, y in pairs)
        assert path.read_text() == text
