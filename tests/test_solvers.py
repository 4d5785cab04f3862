import itertools
import math
import random

import pytest

from guessnum import digraph as dg
from guessnum import gf_linear
from guessnum import guessing_graph as gg
from guessnum import solvers
from guessnum.errors import BadParams, NotIndependent, SizeGuard

from oracles import (
    add_codes,
    all_digraphs,
    brute_alpha,
    brute_chromatic,
    brute_code_size,
    brute_exterior_classes,
    brute_fixed,
    brute_is_subgroup,
    brute_proper,
    brute_span,
    candidate_loop_chromatic,
    cartesian_adjacent,
    co_normal_adjacent,
    digraphs_up_to_isomorphism,
    exhaustive_best_protocol,
    gf4_evaluation_code,
    lexicographic_adjacent,
    mask_members,
    protocol_fixes,
    random_digraph,
    scan_coset_coloring,
)


def handle(d, s):
    return gg.GuessingGraph(d, s)


def mask_of(codes):
    return sum(1 << c for c in set(codes))


class TestMaxIndependentSet:
    def test_clique_even_weight_words(self):
        res = solvers.max_independent_set(handle(dg.clique(3), 2))
        assert res.alpha == 4
        assert res.witness == (0, 3, 5, 6)  # the even-weight words

    def test_cycle_constant_words(self):
        for s in (2, 3):
            d = dg.cycle(4)
            res = solvers.max_independent_set(handle(d, s))
            assert res.alpha == s
            assert res.witness == tuple(
                gg.encode((v,) * 4, s) for v in range(s)
            )

    def test_acyclic_single_configuration(self):
        res = solvers.max_independent_set(handle(dg.path(3), 2))
        assert res.alpha == 1

    def test_matches_exhaustive_subset_scan(self):
        rng = random.Random(21)
        for _ in range(12):
            d = random_digraph(rng, rng.randint(1, 4))
            assert solvers.max_independent_set(handle(d, 2)).alpha == brute_alpha(d, 2)

    def test_witness_reverifies(self):
        rng = random.Random(22)
        for _ in range(10):
            d = random_digraph(rng, rng.randint(1, 4))
            s = rng.choice([2, 3])
            h = handle(d, s)
            res = solvers.max_independent_set(h)
            for a, b in itertools.combinations(res.witness, 2):
                assert not h.adjacent(a, b)

    def test_fold_bound_counts_the_classes_met(self):
        rng = random.Random(29)
        for s in (2, 3, 4, 5, 6):
            for _ in range(6):
                n = rng.randint(1, {2: 6, 3: 4, 4: 3, 5: 2, 6: 2}[s])
                d = random_digraph(rng, n)
                total = s**n
                mas = dg.mas_exact(d).witness
                # the Singleton cover's coordinates 0..d-2 need not be acyclic
                subsets = [mas, (), tuple(v for v in mas if rng.random() < 0.5),
                           tuple(range(rng.randint(1, n)))]
                sets = [0, (1 << total) - 1, 1, 1 << total - 1]
                sets += [rng.getrandbits(total) for _ in range(8)]
                sets += [rng.getrandbits(total) & rng.getrandbits(total)
                         & rng.getrandbits(total) for _ in range(8)]
                for acyclic in subsets:
                    shifts, keep = solvers._exterior_clique_cover(
                        gg.coordinate_masks(n, s), s, acyclic)
                    # span doubling: 1 shift per coordinate at s = 2, 2 at
                    # s = 3 or 4, 3 at s = 5 or 6
                    assert len(shifts) == len(acyclic) * (s - 1).bit_length()
                    for c in sets:
                        folded = c
                        for shift in shifts:
                            folded |= folded >> shift
                        assert (folded & keep).bit_count() == \
                            brute_exterior_classes(d, s, acyclic, c)


class TestGuessingNumber:
    def test_clique(self):
        res = solvers.guessing_number(dg.clique(3), 2)
        assert (res.alpha, res.value) == (4, 2.0)
        assert res.integral

    def test_disjoint_union_of_pair_and_path(self):
        d = dg.disjoint_union(dg.clique(2), dg.path(2))
        assert solvers.guessing_number(d, 2).value == 1.0

    def test_bidirectional_union_of_pair_and_path(self):
        d = dg.bidirectional_union(dg.clique(2), dg.path(2))
        assert solvers.guessing_number(d, 2).value == 2.0

    def test_interlinked_cycle_copies(self):
        d = dg.k_expand(dg.cycle(3), 2)
        assert solvers.guessing_number(d, 2).value == 2.0

    def test_protocol_fixes_witness_count(self):
        rng = random.Random(23)
        for _ in range(10):
            d = random_digraph(rng, rng.randint(1, 4))
            s = rng.choice([2, 3])
            res = solvers.guessing_number(d, s)
            fixed = solvers.fixed_configurations(d, s, res.protocol)
            assert len(fixed) >= res.alpha

    def test_component_decomposition_matches_direct_solve(self):
        rng = random.Random(24)
        for _ in range(8):
            d1 = random_digraph(rng, rng.randint(1, 3))
            d2 = random_digraph(rng, rng.randint(1, 3))
            d = dg.unidirectional_union(d1, d2)
            via_components = solvers.guessing_number(d, 2)
            direct = solvers.max_independent_set(handle(d, 2))
            assert via_components.alpha == direct.alpha

    def test_hub_table_reads_only_its_own_component(self):
        # vertex 22 is fed by all 22 vertices of two disjoint 11-cycles
        rings = dg.disjoint_union(dg.cycle(11), dg.cycle(11))
        d = dg.Digraph(23, rings.edges() + [(v, 22) for v in range(22)])
        res = solvers.guessing_number(d, 2)
        assert res.alpha == 4
        assert res.protocol.inputs[22] == ()
        assert len(res.protocol.tables[22]) == 1
        # each ring and the hub are listed on their own, not over 2^23 codes
        ring = 2**11 - 1
        assert solvers.fixed_configurations(d, 2, res.protocol) == (0, ring, ring << 11, 2**22 - 1)

    def test_component_protocols_match_the_whole_graph_search(self):
        cases = [(d, s) for s in (2, 3) for n in range(4) for d in all_digraphs(n)]
        rng = random.Random(31)
        non_strong = 0
        while non_strong < 300:
            d = random_digraph(rng, rng.randint(4, 6))
            if len(dg.strong_components(d).components) > 1:
                cases.append((d, 2))
                non_strong += 1
        for d, s in cases:
            res = solvers.guessing_number(d, s)
            assert res.alpha == solvers.max_independent_set(handle(d, s)).alpha
            assert len(solvers.fixed_configurations(d, s, res.protocol)) == res.alpha
            component_of = {
                v: i for i, comp in enumerate(dg.strong_components(d).components) for v in comp}
            for v, (ins, table) in enumerate(zip(res.protocol.inputs, res.protocol.tables)):
                assert all(component_of[u] == component_of[v] for u in ins)
                assert len(table) == s ** len(ins)


class TestColoring:
    def test_clique_needs_s_classes(self):
        for n in (2, 3):
            for s in (2, 3):
                res = solvers.chromatic_number(handle(dg.clique(n), s))
                assert res.chi == s
                assert res.exact

    def test_cycle_three(self):
        res = solvers.chromatic_number(handle(dg.cycle(3), 2))
        assert res.chi == 4

    def test_acyclic_needs_everything(self):
        res = solvers.chromatic_number(handle(dg.path(3), 2))
        assert res.chi == 8

    def test_defect_values(self):
        assert solvers.information_defect(dg.clique(3), 2).value == 1.0
        assert solvers.information_defect(dg.cycle(3), 2).value == 2.0

    def test_defect_partition_of_clique_is_parity(self):
        res = solvers.information_defect(dg.clique(3), 2)
        classes = {frozenset(c) for c in res.classes}
        even = frozenset([0, 3, 5, 6])
        odd = frozenset([1, 2, 4, 7])
        assert classes == {even, odd}

    def test_seed_cosets_win_a_tie_with_the_witness(self):
        # the all-ones seed {000, 111} and the MIS witness {000, 101} are
        # different subgroups whose cosets both meet the bound 4
        d = dg.from_edge_list(3, [(2, 0), (2, 1), (0, 2)])
        h = handle(d, 2)
        mis = solvers.max_independent_set(h)
        assert mis.witness == (0, 5)
        res = solvers.chromatic_number(h, mis_witness=mis.witness)
        assert (res.chi, res.exact) == (4, True)
        assert list(res.coloring) == scan_coset_coloring(3, 2, [0, 7])

    def test_bidirectional_union_takes_the_max(self):
        d = dg.bidirectional_union(dg.clique(2), dg.path(2))
        b1 = solvers.information_defect(dg.clique(2), 2).value
        b2 = solvers.information_defect(dg.path(2), 2).value
        res = solvers.information_defect(d, 2)
        assert res.value == max(b1, b2) == 2.0

    def test_chromatic_matches_subset_dp(self):
        from oracles import brute_chromatic

        rng = random.Random(35)
        for _ in range(20):
            d = random_digraph(rng, 3)
            h = handle(d, 2).materialize()
            res = solvers.chromatic_number(h)
            assert res.exact
            assert res.chi == brute_chromatic(h.rows, h.n_configs)

    def test_coset_colorings_skip_dsatur_on_cycles_and_cliques(self, monkeypatch):
        # the closed forms chi(C_n) = s^(n-1) and chi(K_n) = s are met by
        # the cosets of the all-ones fixed space or of the MIS witness
        def refuse(rows, n):
            raise AssertionError("greedy_dsatur ran although a coset coloring met the bound")

        monkeypatch.setattr(solvers._search, "greedy_dsatur", refuse)
        for s in (2, 3):
            for n in (2, 3, 4):
                for d, chi in ((dg.cycle(n), s ** (n - 1)), (dg.clique(n), s)):
                    h = handle(d, s)
                    mis = solvers.max_independent_set(h)
                    res = solvers.chromatic_number(h, mis_witness=mis.witness)
                    assert res.chi == chi
                    assert res.exact

    def test_dsatur_runs_when_cosets_leave_a_gap(self, monkeypatch):
        calls = []
        greedy = solvers._search.greedy_dsatur

        def counted(rows, n):
            calls.append(n)
            return greedy(rows, n)

        monkeypatch.setattr(solvers._search, "greedy_dsatur", counted)
        # K_3 over [3]: the all-ones fixed space is {0}, whose 27 singleton
        # cosets leave a gap above chi = 3
        res = solvers.chromatic_number(handle(dg.clique(3), 3))
        assert calls == [27]
        assert (res.chi, res.exact) == (3, True)
        rng = random.Random(36)
        gaps = 0
        for _ in range(20):
            d = random_digraph(rng, 3, p=0.6)
            h = handle(d, 2).materialize()
            before = len(calls)
            res = solvers.chromatic_number(h)
            gaps += len(calls) - before
            assert res.exact
            assert res.chi == brute_chromatic(h.rows, h.n_configs)
        assert gaps >= 3

    def test_acyclic_digraphs_colour_from_the_trivial_seed(self, monkeypatch):
        # on a DAG, chi = s^n = s^mas is met by the singleton cosets of the
        # all-ones fixed space {0}, so DSATUR never runs on the complete graph
        def refuse(rows, n):
            raise AssertionError("greedy_dsatur ran on an acyclic digraph")

        monkeypatch.setattr(solvers._search, "greedy_dsatur", refuse)
        for d, s in ((dg.path(8), 2), (dg.path(4), 3), (dg.from_edge_list(3, []), 4)):
            h = handle(d, s)
            assert solvers._linear_seed_codes(h) == 1
            mis = solvers.max_independent_set(h)
            for witness in (None, mis.witness):
                res = solvers.chromatic_number(h, mis_witness=witness)
                assert (res.chi, res.exact) == (s**d.n, True)
                assert res.coloring == tuple(range(s**d.n))

    def test_latin_square_witness_closes_k3_over_z6(self):
        # the MIS witness is not a subgroup, yet its coloring meets s^mas
        d = dg.clique(3)
        h = handle(d, 6)
        mis = solvers.max_independent_set(h)
        assert (mis.alpha, mis.exact) == (36, True)
        assert not brute_is_subgroup(mis.witness, 3, 6)
        res = solvers.chromatic_number(
            h, mis_witness=mis.witness, node_budget=500, alpha_upper=mis.alpha
        )
        assert (res.chi, res.exact) == (6, True)
        defect = solvers.information_defect(d, 6)
        assert (defect.chi, defect.exact) == (6, True)

    def test_non_subgroup_witness_of_k3_over_z4_colors_properly(self):
        d = dg.clique(3)
        h = handle(d, 4).materialize()
        mis = solvers.max_independent_set(h)
        assert len(mis.witness) == 16
        assert not brute_is_subgroup(mis.witness, 3, 4)
        colors = solvers._coset_coloring(h, mask_of(mis.witness))
        assert max(colors) + 1 == 4
        assert solvers._proper(h, colors) and brute_proper(d, 4, colors)

    def test_rejected_witness_colorings_leave_chi_exact(self):
        # every independent set of two or more codes, as the witness
        verdicts = set()
        for s, largest in ((2, 3), (3, 2)):
            for n in range(largest + 1):
                for d in all_digraphs(n):
                    h = handle(d, s).materialize()
                    chi = brute_chromatic(h.rows, h.n_configs)
                    for mask in range(3, 1 << h.n_configs):
                        codes = sorted(mask_members(mask))
                        if len(codes) < 2 or any(h.rows[x] & mask for x in codes):
                            continue
                        colors = solvers._coset_coloring(h, mask)
                        verdicts.add(brute_proper(d, s, colors))
                        res = solvers.chromatic_number(h, mis_witness=codes)
                        assert (res.chi, res.exact) == (chi, True)
        assert verdicts == {True, False}

    def test_rejected_maximum_witness_leaves_chi_exact(self):
        # the MIS witness is not a subgroup and its coloring is improper
        d = dg.from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 0), (1, 2),
                                  (1, 3), (2, 0), (2, 1), (2, 3), (3, 0)])
        h = handle(d, 3)
        mis = solvers.max_independent_set(h)
        colors = solvers._coset_coloring(h, mask_of(mis.witness))
        assert not solvers._proper(h, colors) and not brute_proper(d, 3, colors)
        res = solvers.chromatic_number(h, mis_witness=mis.witness)
        assert (res.chi, res.exact) == (3**h.mas.size, True) == (9, True)
        assert brute_proper(d, 3, res.coloring)

    def test_independence_bound_skips_refuted_counts(self, monkeypatch):
        # the undirected pentagon over [2]: mas 2 gives chi >= 4, while
        # alpha = 5 gives chi >= ceil(32 / 5) = 7
        pentagon = dg.from_edge_list(5, [(i, (i + j) % 5) for i in range(5) for j in (1, 4)])
        tried = []
        search = solvers._search.find_k_coloring

        def recorded(rows, n, k, node_budget=None):
            tried.append(k)
            return search(rows, n, k, node_budget=node_budget)

        monkeypatch.setattr(solvers._search, "find_k_coloring", recorded)
        h = handle(pentagon, 2)
        mis = solvers.max_independent_set(h)
        assert (mis.alpha, mis.exact) == (5, True)
        plain = solvers.chromatic_number(h, mis_witness=mis.witness)
        assert min(tried) == 4
        tried.clear()
        bounded = solvers.chromatic_number(h, mis_witness=mis.witness, alpha_upper=mis.alpha)
        assert min(tried) == 7
        assert bounded == plain
        assert bounded.chi == 8 and bounded.exact
        tried.clear()
        defect = solvers.information_defect(pentagon, 2)
        assert min(tried) == 7
        assert defect.chi == 8
        assert defect.classes == tuple(
            tuple(x for x, c in enumerate(plain.coloring) if c == color)
            for color in range(plain.chi)
        )

    def test_classes_are_conflict_free(self):
        rng = random.Random(25)
        for _ in range(8):
            d = random_digraph(rng, rng.randint(1, 4))
            s = rng.choice([2, 3])
            res = solvers.information_defect(d, s)
            h = handle(d, s)
            for cls in res.classes:
                for a, b in itertools.combinations(cls, 2):
                    assert not h.adjacent(a, b)


class TestOneColoring:
    """``chromatic_number`` reads the coset counts first, then builds and
    checks the cheapest proper coset colouring only."""

    @staticmethod
    def same(h, **kwargs):
        res = solvers.chromatic_number(h, **kwargs)
        assert res == candidate_loop_chromatic(h, **kwargs)
        return res

    def test_matches_the_candidate_loop_on_small_digraphs(self):
        # every digraph with n <= 3 at s = 2 and 3, and with n = 4 at s = 2
        for n in range(5):
            for d in all_digraphs(n):
                for s in (2, 3) if n <= 3 else (2,):
                    h = handle(d, s)
                    mis = solvers.max_independent_set(h)
                    self.same(h)
                    self.same(h, mis_witness=mis.witness)
                    self.same(h, mis_witness=mis.witness, alpha_upper=mis.alpha)

    def test_matches_the_candidate_loop_on_non_subgroup_witnesses(self):
        improper = dg.from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 0), (1, 2),
                                         (1, 3), (2, 0), (2, 1), (2, 3), (3, 0)])
        for d, s in ((improper, 3), (dg.clique(3), 4), (dg.clique(3), 6)):
            h = handle(d, s)
            mis = solvers.max_independent_set(h)
            assert not brute_is_subgroup(mis.witness, d.n, s)
            for alpha in (None, mis.alpha):
                self.same(h, mis_witness=mis.witness, node_budget=500, alpha_upper=alpha)

    def test_matches_the_candidate_loop_when_backtracking_improves(self, monkeypatch):
        # the seed's 8 cosets are proper, DSATUR needs 5 colours and the
        # backtracking finds chi = s^mas = 4
        found = []
        search = solvers._search.find_k_coloring

        def recorded(rows, n, k, node_budget=None):
            col, complete = search(rows, n, k, node_budget=node_budget)
            found.append(col is not None)
            return col, complete

        monkeypatch.setattr(solvers._search, "find_k_coloring", recorded)
        d = dg.from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0)])
        h = handle(d, 2).materialize()
        assert solvers._coset_count(h, solvers._seed(h)) == 8
        assert max(solvers._search.greedy_dsatur(h.rows, 16)) + 1 == 5
        res = self.same(h)
        assert (res.chi, res.exact) == (4, True)
        assert found == [True, True]  # k = 4 succeeds once per call

    def test_the_seed_coset_coloring_is_always_proper(self):
        # the seed is an independent subgroup, and in a Cayley graph each
        # coset of one is independent, so chromatic_number never runs out
        # of proper coset colourings
        checked = 0
        for s, largest in ((2, 4), (3, 4), (4, 3), (5, 3), (6, 3)):
            for n in range(largest + 1):
                for d in digraphs_up_to_isomorphism(n):
                    h = handle(d, s).materialize()
                    colors = solvers._coset_coloring(h, solvers._seed(h))
                    assert solvers._proper(h, colors), (d.edges(), s)
                    checked += 1
        assert checked == 541

    def test_a_dsatur_tie_keeps_the_coset_coloring(self, monkeypatch):
        # K_3 over [3] without a witness: the seed {0} gives 27 singleton
        # cosets; a DSATUR colouring with as many colours must not replace
        # them, and a budget of one node keeps the backtracking from
        # improving on either
        monkeypatch.setattr(solvers._search, "greedy_dsatur", lambda rows, n: list(range(n))[::-1])
        h = handle(dg.clique(3), 3)
        res = self.same(h, node_budget=1)
        assert (res.chi, res.coloring, res.exact) == (27, tuple(range(27)), False)

    def test_one_build_and_one_check(self, monkeypatch):
        checked = []
        built = []
        proper = solvers._proper
        coset = solvers._coset_coloring

        def recorded_proper(h, colors):
            checked.append(list(colors))
            return proper(h, colors)

        def recorded_coset(h, mask):
            built.append(mask)
            return coset(h, mask)

        monkeypatch.setattr(solvers, "_proper", recorded_proper)
        monkeypatch.setattr(solvers, "_coset_coloring", recorded_coset)
        for s in (2, 3):
            for n in (2, 3, 4):
                for d in (dg.cycle(n), dg.clique(n)):
                    h = handle(d, s)
                    mis = solvers.max_independent_set(h)
                    for witness in (None, mis.witness):
                        checked.clear()
                        built.clear()
                        res = solvers.chromatic_number(h, mis_witness=witness)
                        assert checked.count(list(res.coloring)) == 1
                        if witness:
                            assert len(checked) == len(built) == 1


class TestProper:
    """``_proper`` against a per-pair scan of the definition."""

    def test_matches_the_per_pair_scan(self):
        rng = random.Random(45)
        verdicts = set()
        for s, top in ((2, 6), (3, 3), (4, 3)):
            for _ in range(6):
                d = random_digraph(rng, rng.randint(1, top), p=rng.choice([0.3, 0.6]))
                h = handle(d, s).materialize()
                total = h.n_configs
                colorings = [
                    list(solvers.chromatic_number(h).coloring),
                    solvers._search.greedy_dsatur(h.rows, total),
                    list(range(total)),
                    [rng.randrange(3) for _ in range(total)],
                ]
                # one edge inside a class: recolour a neighbour of x like x
                for colors in colorings[:3]:
                    x = rng.randrange(total)
                    if h.rows[x]:
                        y = rng.choice(sorted(h.neighbors(x)))
                        bad = list(colors)
                        bad[y] = bad[x]
                        colorings.append(bad)
                for colors in colorings:
                    verdict = brute_proper(d, s, colors)
                    assert solvers._proper(h, colors) == verdict
                    verdicts.add(verdict)
        assert verdicts == {True, False}


class TestHandleFacts:
    """One handle per (digraph, alphabet) computes each fact once."""

    @staticmethod
    def counting(monkeypatch):
        # both bindings count: the handle builds its masks through
        # guessing_graph's, and solvers must read the handle's, not build more
        counts = {"mas": 0, "masks": 0}
        mas_exact, coordinate_masks = dg.mas_exact, gg.coordinate_masks

        def counted_mas(*args, **kwargs):
            counts["mas"] += 1
            return mas_exact(*args, **kwargs)

        def counted_masks(*args, **kwargs):
            counts["masks"] += 1
            return coordinate_masks(*args, **kwargs)

        monkeypatch.setattr(dg, "mas_exact", counted_mas)
        monkeypatch.setattr(gg, "coordinate_masks", counted_masks)
        monkeypatch.setattr(solvers, "coordinate_masks", counted_masks)
        return counts

    def cases(self):
        rng = random.Random(46)
        yield dg.cycle(4), 2
        yield dg.clique(3), 3
        for _ in range(4):
            yield random_digraph(rng, rng.randint(1, 5)), 2

    def test_mis_then_coloring_on_one_handle(self, monkeypatch):
        counts = self.counting(monkeypatch)
        for d, s in self.cases():
            counts.update(mas=0, masks=0)
            h = handle(d, s)
            mis = solvers.max_independent_set(h)
            solvers.chromatic_number(h, mis_witness=mis.witness)
            assert counts == {"mas": 1, "masks": 1}

    def test_information_defect(self, monkeypatch):
        counts = self.counting(monkeypatch)
        for d, s in self.cases():
            counts.update(mas=0, masks=0)
            solvers.information_defect(d, s)
            assert counts == {"mas": 1, "masks": 1}

    def test_guessing_number_once_per_component(self, monkeypatch):
        counts = self.counting(monkeypatch)
        for d, s in self.cases():
            counts.update(mas=0, masks=0)
            res = solvers.guessing_number(d, s)
            k = len(res.components)
            assert counts == {"mas": k, "masks": k}

    def test_solvers_raise_the_handle_guard_before_any_work(self, monkeypatch):
        counts = self.counting(monkeypatch)
        message = "materialization needs 3^4 = 81 configurations (> guard 64)"
        d = dg.cycle(4)
        calls = (
            lambda: solvers.max_independent_set(gg.GuessingGraph(d, 3, guard=64)),
            lambda: solvers.chromatic_number(gg.GuessingGraph(d, 3, guard=64)),
            lambda: solvers.information_defect(d, 3, guard=64),
            lambda: solvers.guessing_number(d, 3, guard=64),
        )
        for call in calls:
            with pytest.raises(SizeGuard) as exc:
                call()
            assert (exc.value.needed, exc.value.guard) == (81, 64)
            assert str(exc.value) == message
        assert counts == {"mas": 0, "masks": 0}

    def test_solvers_refuse_rows_beyond_the_byte_limit(self, monkeypatch):
        # the n = 18 ring passes the count guard (2^18 <= 2^22), but its
        # 2^18 rows of 2^18 bits would take 2^33 bytes: refused before
        # any row, mask or acyclic set is built
        def no_rows(*args):
            raise AssertionError("rows built")

        monkeypatch.setattr(gg, "_translated_rows", no_rows)
        counts = self.counting(monkeypatch)
        ring = dg.cycle_power_ring(3, 2, 2)
        assert ring.n == 18
        for call in (solvers.guessing_number, solvers.information_defect):
            with pytest.raises(SizeGuard) as exc:
                call(ring, 2)
            assert (exc.value.needed, exc.value.guard) == (1 << 33, 1 << 29)
        assert counts == {"mas": 0, "masks": 0}


def _span(gens, n, s):
    """Subgroup of Z_s^n generated by ``gens``, by closure under addition."""
    group = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = add_codes(x, g, n, s)
            if y not in group:
                group.add(y)
                frontier.append(y)
    return group


class TestCosetColoring:
    @staticmethod
    def check(n, s, codes):
        h = handle(dg.from_edge_list(n, []), s)
        assert solvers._coset_coloring(h, mask_of(codes)) == scan_coset_coloring(n, s, codes)

    def test_matches_the_ascending_scan_on_random_subgroups(self):
        # composite s gives leading digits strictly between 1 and s
        rng = random.Random(43)
        leads = set()
        for s in (2, 3, 4, 5, 6):
            for _ in range(60):
                n = rng.randint(1, 5 if s == 2 else 3)
                gens = [rng.randrange(s**n) for _ in range(rng.randint(0, 3))]
                group = _span(gens, n, s)
                self.check(n, s, group)
                for m in range(n):
                    top = [g // s**m for g in group if s**m <= g < s ** (m + 1)]
                    leads.add((s, min(top, default=s)))
        assert {(4, 2), (6, 2), (6, 3)} <= leads

    def test_small_and_composite_cases(self):
        even = [gg.encode(w, 4) for w in ((0, 0), (2, 0), (0, 2), (2, 2))]
        self.check(2, 4, even)  # 2Z_4 x 2Z_4: four cosets of four codes each
        self.check(2, 4, [0, gg.encode((2, 2), 4)])
        self.check(2, 6, _span([gg.encode((3, 2), 6)], 2, 6))
        for s in (2, 3, 4):
            self.check(0, s, [0])
            for g in range(s):
                self.check(1, s, _span([g], 1, s))

    def test_colors_are_the_coset_numbers(self):
        h = handle(dg.from_edge_list(2, []), 4)
        even = [gg.encode(w, 4) for w in ((0, 0), (2, 0), (0, 2), (2, 2))]
        colors = solvers._coset_coloring(h, mask_of(even))
        assert colors == [0, 1, 0, 1, 2, 3, 2, 3, 0, 1, 0, 1, 2, 3, 2, 3]

    def test_count_is_the_product_of_the_leading_digits(self):
        # random sparse masks, most not subgroups: empty windows, and
        # leading digits that do not divide s, such as 2 at s = 3
        rng = random.Random(46)
        leads = set()
        for s in (2, 3, 4, 6):
            for _ in range(80):
                n = rng.randint(0, 4 if s <= 3 else 3)
                h = handle(dg.from_edge_list(n, []), s)
                mask = mask_of(rng.sample(range(s**n), rng.randint(0, min(5, s**n))))
                colors = solvers._coset_coloring(h, mask)
                assert solvers._coset_count(h, mask) == max(colors) + 1
                leads.update((s, lead) for lead, _ in solvers._coset_leads(h, mask))
        assert {(2, 2), (3, 3), (3, 2), (4, 3), (6, 4), (6, 5)} <= leads


class TestLinearSeedCodes:
    def test_span_of_the_fixed_basis(self):
        rng = random.Random(44)
        for s in (2, 3, 5):
            for _ in range(25):
                d = random_digraph(rng, rng.randint(0, 6 if s == 2 else 4))
                basis = gf_linear.full_support_fixed_basis(d, s)
                assert solvers._linear_seed_codes(handle(d, s)) == mask_of(brute_span(basis, s))
            # several basis vectors, each zero on the other's coordinates
            for d in (dg.disjoint_union(dg.cycle(3), dg.cycle(3)),
                      dg.disjoint_union(dg.cycle(2), dg.cycle(4))):
                basis = gf_linear.full_support_fixed_basis(d, s)
                assert len(basis) >= 2
                assert solvers._linear_seed_codes(handle(d, s)) == mask_of(brute_span(basis, s))

    def test_residue_masks_match_the_digit_sum_tables(self):
        # the all-ones protocol written out as tables of digit sums mod s
        for s in (2, 3, 4, 6):
            masks = {n: gg.coordinate_masks(n, s) for n in range(4)}
            for n in range(4):
                for d in all_digraphs(n):
                    inputs = tuple(d.in_neighbours(v) for v in range(n))
                    tables = tuple(
                        tuple(sum(w) % s for w in itertools.product(range(s), repeat=len(ins)))
                        for ins in inputs
                    )
                    protocol = solvers.Protocol(n, s, inputs, tables)
                    expected = solvers._fixed_mask(protocol, masks[n])
                    assert solvers._linear_seed_codes(handle(d, s)) == expected

    def test_seed_is_a_subgroup_of_the_fixed_dimension(self):
        # chromatic_number colours by the seed's cosets without testing it;
        # the digit-sum strategy is Z_s-linear at composite s too
        rng = random.Random(45)
        for s in (2, 3, 4, 5, 6):
            for _ in range(25):
                d = random_digraph(rng, rng.randint(0, {2: 6, 3: 4, 5: 4}.get(s, 3)), p=0.5)
                h = handle(d, s).materialize()
                mask = solvers._linear_seed_codes(h)
                codes = sorted(mask_members(mask))
                assert brute_is_subgroup(codes, d.n, s)
                assert not any(h.rows[x] & mask for x in codes)
                if gf_linear._is_prime(s):
                    assert len(codes) == s ** gf_linear.full_support_fixed_dimension(d, s)


class TestProtocols:
    def test_clique_parity_tables(self):
        res = solvers.protocol_from_independent_set(dg.clique(3), 2, [0, 3, 5, 6])
        xor = (0, 1, 1, 0)
        assert res.tables == (xor, xor, xor)
        assert solvers.fixed_configurations(dg.clique(3), 2, res) == (0, 3, 5, 6)

    def test_singleton_always_accepted(self):
        rng = random.Random(26)
        for _ in range(10):
            d = random_digraph(rng, rng.randint(1, 4))
            s = rng.choice([2, 3])
            x = rng.randrange(s**d.n)
            proto = solvers.protocol_from_independent_set(d, s, [x])
            assert protocol_fixes(proto, x)

    def test_conflicting_pair_reported(self):
        d = dg.clique(3)
        with pytest.raises(NotIndependent) as exc:
            solvers.protocol_from_independent_set(d, 2, [0, 1])
        assert set(exc.value.pair) == {0, 1}

    def test_round_trip_over_random_independent_sets(self):
        rng = random.Random(27)
        done = 0
        while done < 100:
            d = random_digraph(rng, rng.randint(1, 4))
            s = rng.choice([2, 3])
            h = handle(d, s)
            picks = []
            for _ in range(rng.randint(1, 4)):
                c = rng.randrange(h.n_configs)
                if all(not h.adjacent(c, q) for q in picks) and c not in picks:
                    picks.append(c)
            proto = solvers.protocol_from_independent_set(d, s, picks)
            fixed = set(solvers.fixed_configurations(d, s, proto))
            assert fixed >= set(picks)
            # the fixed set itself never contains a conflicting pair
            for a, b in itertools.combinations(sorted(fixed), 2):
                assert not h.adjacent(a, b)
            done += 1

    def test_all_zero_protocol_fixes_only_zero(self):
        d = dg.cycle(4)
        inputs = tuple(d.in_neighbours(v) for v in range(4))
        proto = solvers.Protocol(4, 2, inputs, tuple((0, 0) for _ in range(4)))
        assert solvers.fixed_configurations(d, 2, proto) == (0,)

    def test_copy_predecessor_fixes_constants(self):
        d = dg.cycle(3)
        inputs = tuple(d.in_neighbours(v) for v in range(3))
        proto = solvers.Protocol(3, 2, inputs, tuple((0, 1) for _ in range(3)))
        assert solvers.fixed_configurations(d, 2, proto) == (0, 7)

    def test_random_tables_match_per_code_filter(self):
        rng = random.Random(30)
        for _ in range(60):
            s = rng.choice([2, 3, 4])
            d = random_digraph(rng, rng.randint(0, {2: 6, 3: 4, 4: 3}[s]))
            inputs = tuple(d.in_neighbours(v) for v in range(d.n))
            tables = tuple(
                tuple(rng.randrange(s) for _ in range(s ** len(ins))) for ins in inputs
            )
            proto = solvers.Protocol(d.n, s, inputs, tables)
            assert solvers.fixed_configurations(d, s, proto) == brute_fixed(d, s, proto)

    def test_malformed_protocols_rejected(self):
        k3 = dg.clique(3)
        inputs = ((1, 2), (0, 2), (0, 1))
        xor = (0, 1, 1, 0)
        cases = [
            (k3, inputs, ((0, 1), xor, xor)),  # 2 entries for 4 words
            (k3, inputs, ((0, 1, 1, 2), xor, xor)),  # symbol 2 at s = 2
            (k3, ((2, 1), (0, 2), (0, 1)), (xor, xor, xor)),  # unsorted
            (k3, ((1, 1), (0, 2), (0, 1)), (xor, xor, xor)),  # repeated
            (dg.cycle(3), ((1,), (0,), (1,)), ((0, 1),) * 3),  # 1 -> 0 is no edge
        ]
        for d, ins, tables in cases:
            with pytest.raises(BadParams):
                solvers.fixed_configurations(d, 2, solvers.Protocol(3, 2, ins, tables))

    def test_guard(self):
        d = dg.path(3)
        proto = solvers.protocol_from_independent_set(d, 2, [0])
        with pytest.raises(SizeGuard):
            solvers.fixed_configurations(d, 2, proto, guard=4)

    def test_each_reading_group_is_enumerated_on_its_own(self):
        # 17 disjoint 2-cycles: 2^34 configurations, 17 groups of 4
        d = dg.Digraph(34, [(u, u ^ 1) for u in range(34)])
        res = solvers.guessing_number(d, 2)
        fixed = solvers.fixed_configurations(d, 2, res.protocol)
        assert len(fixed) == res.alpha == 2**17
        assert fixed[:4] == (0, 3, 12, 15) and fixed[-1] == 2**34 - 1
        with pytest.raises(SizeGuard):  # the listing itself is guarded too
            solvers.fixed_configurations(d, 2, res.protocol, guard=2**16)
        # the guard caps each group, not the product: a path 0 -> 1 -> 2
        # next to a 2-cycle fits a guard of 8 but not one of 4
        d = dg.Digraph(5, [(0, 1), (1, 2), (3, 4), (4, 3)])
        inputs = tuple(d.in_neighbours(v) for v in range(5))
        proto = solvers.Protocol(5, 2, inputs, ((0,), (0, 1), (0, 1), (0, 1), (0, 1)))
        assert solvers._reading_groups(proto) == [0b00111, 0b11000]
        assert solvers.fixed_configurations(d, 2, proto, guard=8) == brute_fixed(d, 2, proto)
        with pytest.raises(SizeGuard):
            solvers.fixed_configurations(d, 2, proto, guard=4)
        # random tables on sparse digraphs, one guard below s^n so that
        # the groups are listed apart (or a group of all n is refused)
        rng = random.Random(32)
        split = 0
        for _ in range(120):
            s = rng.choice([2, 3])
            d = random_digraph(rng, rng.randint(2, 6 if s == 2 else 4), p=0.2)
            inputs = tuple(d.in_neighbours(v) for v in range(d.n))
            tables = tuple(
                tuple(rng.randrange(s) for _ in range(s ** len(ins))) for ins in inputs
            )
            proto = solvers.Protocol(d.n, s, inputs, tables)
            if len(solvers._reading_groups(proto)) == 1:
                with pytest.raises(SizeGuard):
                    solvers.fixed_configurations(d, s, proto, guard=s ** (d.n - 1))
                continue
            fixed = solvers.fixed_configurations(d, s, proto, guard=s ** (d.n - 1))
            assert fixed == brute_fixed(d, s, proto)
            split += 1
        assert split >= 60


class TestExhaustiveOracle:
    def test_clique_matches_solver(self):
        best, proto = exhaustive_best_protocol(dg.clique(3), 2)
        assert best == 4
        assert len(solvers.fixed_configurations(dg.clique(3), 2, proto)) == 4

    def test_sample_of_digraphs_matches_mis(self):
        rng = random.Random(28)
        for _ in range(10):
            d = random_digraph(rng, 3)
            best, _ = exhaustive_best_protocol(d, 2)
            assert best == solvers.max_independent_set(handle(d, 2)).alpha

    def test_sparse_four_vertex_digraphs_match_mis(self):
        rng = random.Random(34)
        checked = 0
        while checked < 6:
            d = random_digraph(rng, 4, p=0.25)
            space = 1
            for v in range(4):
                space *= 2 ** (2 ** d.in_degree(v))
            if space > 10**6:
                continue
            best, _ = exhaustive_best_protocol(d, 2)
            assert best == solvers.max_independent_set(handle(d, 2)).alpha
            checked += 1

    def test_protocol_fixes_exactly_best(self):
        rng = random.Random(31)
        for s, n in [(2, 1), (2, 2), (2, 3), (2, 3), (3, 2), (3, 2), (2, 4)]:
            d = random_digraph(rng, n, p=0.3)
            best, proto = exhaustive_best_protocol(d, s)
            assert len(brute_fixed(d, s, proto)) == best

    def test_guard(self):
        with pytest.raises(SizeGuard):
            exhaustive_best_protocol(dg.clique(4), 3, limit=1000)


class TestDifferentialSweep:
    """alpha, chi and the all-ones seed against the brute-force oracles."""

    @staticmethod
    def check(d, s):
        total = s**d.n
        h = handle(d, s).materialize()
        mis = solvers.max_independent_set(h)
        defect = solvers.information_defect(d, s)
        assert mis.exact and defect.exact
        assert mis.alpha == brute_alpha(d, s)
        space = 1
        for v in range(d.n):
            space *= s ** (s ** d.in_degree(v))
        if space <= 10**5:
            assert exhaustive_best_protocol(d, s)[0] == mis.alpha
        if total <= 12:
            assert defect.chi == brute_chromatic(h.rows, total)
        assert mis.alpha * defect.chi >= total
        seed = solvers._linear_seed_codes(h).bit_count()
        assert 1 <= seed <= mis.alpha
        assert defect.chi * seed <= total
        return space <= 10**5

    def test_every_small_digraph(self):
        for s, largest in ((2, 3), (3, 2), (4, 2)):
            for n in range(largest + 1):
                for d in all_digraphs(n):
                    assert self.check(d, s)

    def test_seeded_four_vertex_digraphs(self):
        rng = random.Random(46)
        exhaustive = 0
        for _ in range(8):
            exhaustive += self.check(random_digraph(rng, 4, p=rng.choice([0.25, 0.5])), 2)
        assert exhaustive >= 4

    def test_linear_value_bounds_alpha_and_chi(self):
        # the best linear strategy fixes s^g_lin configurations, and the
        # cosets of its fixed space colour the graph with s^(n - g_lin)
        for n in range(4):
            for d in all_digraphs(n):
                g_lin = gf_linear.linear_guessing_number(d, 2).value
                guess = solvers.guessing_number(d, 2)
                defect = solvers.information_defect(d, 2)
                assert guess.exact and defect.exact
                assert guess.alpha >= 2**g_lin
                assert defect.chi <= 2 ** (d.n - g_lin)


class TestCodeSizes:
    def test_small_binary_values(self):
        assert solvers.a_s_exact(3, 2, 2).value == 4 == brute_code_size(3, 2, 2)
        assert solvers.a_s_exact(3, 3, 2).value == 2 == brute_code_size(3, 3, 2)

    def test_distance_one_is_everything(self):
        assert solvers.a_s_exact(4, 1, 3).value == 81

    def test_distance_beyond_length(self):
        # length 0 included: the empty word alone
        for n, d, s in ((3, 4, 2), (0, 1, 2), (0, 2, 3)):
            res = solvers.a_s_exact(n, d, s)
            assert res.exact and res.value == 1 and res.lower_witness == (0,)

    def test_hamming_point(self):
        res = solvers.a_s_exact(7, 3, 2)
        assert res.value == 16
        assert res.exact

    def test_witness_is_a_code(self):
        from oracles import hamming

        res = solvers.a_s_exact(7, 5, 2)
        assert res.value == 2
        for a, b in itertools.combinations(res.lower_witness, 2):
            assert hamming(a, b, 7, 2) >= 5

    def test_search_agrees_with_subset_scan(self):
        from oracles import code_of_size_exists

        # values where greedy and the packing bounds do not pinch, so the
        # branch-and-bound search decides; cross-checked by scanning all
        # candidate codes of the next size up
        for n, d in [(4, 3), (5, 3), (5, 4)]:
            res = solvers.a_s_exact(n, d, 2)
            assert res.exact
            assert code_of_size_exists(n, d, 2, res.value)
            assert not code_of_size_exists(n, d, 2, res.value + 1)

    def test_bounds_only_beyond_guard(self):
        res = solvers.a_s_exact(14, 3, 2)
        assert not res.exact
        assert res.lower <= res.upper

    def test_repetition_witness_beyond_lexicode_cap(self):
        from oracles import pairwise_a_s_exact

        # s^n far beyond the cap: no s^n-bit mask may be built
        res = solvers.a_s_exact(40, 3, 2)
        assert res.lower_witness == (0, 2**40 - 1) and not res.exact
        assert solvers.a_s_exact(40, 3, 3).lower_witness == (0, (3**40 - 1) // 2, 3**40 - 1)
        for n, d, s in ((11, 3, 2), (12, 5, 2), (7, 3, 3), (64, 2, 2)):
            assert solvers.a_s_exact(n, d, s) == pairwise_a_s_exact(n, d, s), (n, d, s)

    def test_distance_rows_are_the_hamming_graph(self):
        from oracles import hamming

        for s, top in ((2, 4), (3, 3), (4, 2), (5, 2)):
            for n in range(1, top + 1):
                for d in range(1, n + 2):
                    _, rows = solvers._distance_rows(n, d, s)
                    assert len(rows) == s**n
                    for x, row in enumerate(rows):
                        assert row == sum(1 << y for y in range(s**n)
                                          if 0 < hamming(x, y, n, s) < d)

    def test_equals_the_pairwise_reference(self):
        from oracles import pairwise_a_s_exact

        # every (n, d, s) with s <= 5 and s^n <= 2^10, witnesses included
        for s in range(2, 6):
            n = 1
            while s**n <= 1 << 10:
                for d in range(1, n + 2):
                    assert solvers.a_s_exact(n, d, s) == pairwise_a_s_exact(n, d, s), \
                        (n, d, s)
                n += 1


class TestBoundsReport:
    def test_product_of_cycles_pinches(self):
        d = dg.strong_product(dg.cycle(3), dg.cycle(3))
        rep = solvers.bounds_report(d, 2)
        assert rep.mas.size == 4
        assert rep.g_upper == 5
        assert rep.g_linear_lower == 5

    def test_bottleneck_upper(self):
        d = dg.complete_bipartite(2, 3)
        rep = solvers.bounds_report(d, 2)
        g = solvers.guessing_number(d, 2)
        assert g.value == 2.0
        assert rep.g_lower - 1e-9 <= g.value <= rep.g_upper + 1e-9

    def test_acyclic_report_skips_cycle_bounds(self):
        rep = solvers.bounds_report(dg.path(3), 2)
        names = {b.name for b in rep.bounds}
        assert "code_girth" not in names
        skipped = dict(rep.skipped)
        assert "code_girth" in skipped

    def test_strong_components_run_once(self, monkeypatch):
        rng = random.Random(31)
        calls = []
        components = dg.strong_components
        monkeypatch.setattr(dg, "strong_components", lambda d: calls.append(d) or components(d))
        for _ in range(20):
            d = random_digraph(rng, rng.randint(0, 6), p=rng.uniform(0.1, 0.6))
            calls.clear()
            rep = solvers.bounds_report(d, 2)
            assert calls == [d]
            scc = components(d)
            assert rep.components == scc.components
            assert dg.structure_report(d, scc) == dg.structure_report(d)

    def test_long_cycle_lists_the_degree_bounds(self, monkeypatch):
        # every in-degree is 1, so the degree comes from the closed form
        # and inclusion-exclusion walks no node
        monkeypatch.setattr(gg, "_DEGREE_NODE_CAP", 0)
        rep = solvers.bounds_report(dg.cycle(40), 2)
        assert rep.skipped == ()
        bounds = {b.name: b.value for b in rep.bounds}
        assert bounds["graph_degree"] == pytest.approx(40 - math.log2(2**40 - 1))
        assert "transitive_connectivity" in bounds

    def test_empty_digraph_and_sparse_skip_reasons(self):
        for d, s, reason in ((dg.Digraph(0), 2, "digraph is empty"),
                             (dg.Digraph(0), 3, "digraph is empty"),
                             (dg.clique(3), 2, "bidirectional edges present")):
            rep = solvers.bounds_report(d, s)
            assert rep.g_lower <= rep.g_upper <= d.n
            skipped = dict(rep.skipped)
            assert skipped["no_bidirectional_sphere"] == reason
            assert skipped["row_count"] == reason

    def test_chain_sound_on_random_strong_digraphs(self):
        rng = random.Random(29)
        checked = 0
        while checked < 30:
            d = random_digraph(rng, rng.randint(2, 4), p=0.5)
            if not dg.structure_report(d).strong:
                continue
            rep = solvers.bounds_report(d, 2)
            g = solvers.guessing_number(d, 2)
            assert rep.g_lower - 1e-9 <= g.value <= rep.g_upper + 1e-9
            checked += 1

    def test_chain_sound_on_every_small_digraph(self):
        # every digraph up to isomorphism, against exact g, b and, at
        # prime s, exact g_lin
        for s, top in ((2, 4), (3, 4), (4, 3), (5, 3), (6, 3)):
            for n in range(top + 1):
                for d in digraphs_up_to_isomorphism(n):
                    rep = solvers.bounds_report(d, s)
                    g = solvers.guessing_number(d, s).value
                    b = solvers.information_defect(d, s)
                    assert b.exact, (d, s)
                    assert rep.g_lower - 1e-9 <= g <= rep.g_upper + 1e-9, (d, s)
                    assert b.value <= rep.b_upper + 1e-9, (d, s)
                    if s in (2, 3, 5):
                        lin = gf_linear.linear_guessing_number(d, s)
                        assert lin.exact, (d, s)
                        assert rep.g_linear_lower - 1e-9 <= lin.value \
                            <= rep.g_linear_upper + 1e-9, (d, s)
                        assert lin.value <= g + 1e-9, (d, s)


class TestAlphabetComposition:
    def test_cycle_interval(self):
        comp = solvers.alphabet_composition_bounds(1, 1, 3, 2, 3)
        assert comp.lower == pytest.approx(1.0)
        expected_upper = (math.log(3) + 3 * math.log(2)) / math.log(6)
        assert comp.upper == pytest.approx(expected_upper)
        true_g = solvers.guessing_number(dg.cycle(3), 6).value
        assert comp.lower - 1e-9 <= true_g <= comp.upper + 1e-9

    def test_full_value_collapses(self):
        comp = solvers.alphabet_composition_bounds(3, 3, 3, 2, 2)
        assert comp.lower == pytest.approx(3.0)
        assert comp.upper == pytest.approx(3.0)

    def test_clique_interval(self):
        comp = solvers.alphabet_composition_bounds(2, 2, 3, 2, 2)
        assert comp.lower == pytest.approx(2.0)
        assert comp.upper == pytest.approx(2.5)
        true_g = solvers.guessing_number(dg.clique(3), 4).value
        assert comp.lower - 1e-9 <= true_g <= comp.upper + 1e-9


class TestStructuralLaws:
    def test_defect_plus_guessing_at_least_n(self):
        rng = random.Random(30)
        for _ in range(10):
            d = random_digraph(rng, rng.randint(1, 4))
            s = rng.choice([2, 3])
            g = solvers.guessing_number(d, s).value
            b = solvers.information_defect(d, s).value
            assert b + g >= d.n - 1e-9

    def test_cover_bound_for_larger_alphabets(self):
        for d in (dg.cycle(4), dg.clique(3)):
            s = 3
            g = solvers.guessing_number(d, s)
            defect = solvers.information_defect(d, s)
            alpha = g.alpha
            bound = (1 + math.log(alpha)) * s**d.n / alpha
            assert defect.chi <= bound + 1e-9

    def test_code_distance_sandwich(self):
        rng = random.Random(31)
        for _ in range(10):
            d = random_digraph(rng, rng.randint(2, 4), p=0.5)
            rep = dg.structure_report(d)
            if rep.girth is None:
                continue
            s = 2
            alpha = solvers.guessing_number(d, s).alpha
            low = solvers.a_s_exact(d.n, d.n - rep.min_in_degree + 1, s)
            high = solvers.a_s_exact(d.n, rep.girth, s)
            assert low.best_lower <= alpha <= high.upper

    def test_distance_code_attains_min_degree(self):
        # circulant with in-neighbours {v-1, v-2}: min in-degree 2; the
        # 16-word evaluation code over the 4-symbol alphabet has pairwise
        # distance 3 > n - 2, so it is conflict-free and g >= 2
        d = dg.from_edge_list(4, [(i, (i + 1) % 4) for i in range(4)]
                              + [(i, (i + 2) % 4) for i in range(4)])
        assert min(d.in_degree(v) for v in range(4)) == 2
        h = handle(d, 4)
        code = gf4_evaluation_code()
        for a, b in itertools.combinations(code, 2):
            assert not h.adjacent(a, b)
        assert solvers.guessing_number(d, 4).value >= 2.0

    def test_disjoint_union_adds(self):
        rng = random.Random(32)
        for _ in range(6):
            d1 = random_digraph(rng, rng.randint(1, 3))
            d2 = random_digraph(rng, rng.randint(1, 3))
            g1 = solvers.guessing_number(d1, 2).value
            g2 = solvers.guessing_number(d2, 2).value
            both = solvers.guessing_number(dg.disjoint_union(d1, d2), 2).value
            assert both == pytest.approx(g1 + g2)

    def test_unidirectional_union_adds(self):
        rng = random.Random(33)
        for _ in range(6):
            d1 = random_digraph(rng, rng.randint(1, 3))
            d2 = random_digraph(rng, rng.randint(1, 3))
            g1 = solvers.guessing_number(d1, 2).value
            g2 = solvers.guessing_number(d2, 2).value
            both = solvers.guessing_number(dg.unidirectional_union(d1, d2), 2).value
            assert both == pytest.approx(g1 + g2)

    def test_union_graphs_are_the_products(self):
        # the configuration graph of each union kind is the matching
        # product of the factor graphs, checked pairwise via the oracles
        small = [dg.path(1), dg.path(2), dg.clique(2)]
        for d1 in small:
            for d2 in small:
                h1 = handle(d1, 2)
                h2 = handle(d2, 2)
                kinds = {
                    "disjoint": dg.disjoint_union(d1, d2),
                    "unidirectional": dg.unidirectional_union(d1, d2),
                    "bidirectional": dg.bidirectional_union(d1, d2),
                }
                handles = {k: handle(v, 2) for k, v in kinds.items()}
                n1 = d1.n
                for x1 in range(h1.n_configs):
                    for x2 in range(h2.n_configs):
                        for y1 in range(h1.n_configs):
                            for y2 in range(h2.n_configs):
                                if (x1, x2) == (y1, y2):
                                    continue
                                a1 = h1.adjacent(x1, y1)
                                a2 = h2.adjacent(x2, y2)
                                x = x1 + (2**n1) * x2
                                y = y1 + (2**n1) * y2
                                assert handles["disjoint"].adjacent(x, y) == co_normal_adjacent(a1, a2)
                                assert handles["unidirectional"].adjacent(x, y) == lexicographic_adjacent(a1, x1 == y1, a2)
                                assert handles["bidirectional"].adjacent(x, y) == cartesian_adjacent(a1, x1 == y1, a2, x2 == y2)

    def test_expansion_matches_alphabet_power(self):
        # k interlinked copies over [s] behave exactly like the original
        # digraph over [s^k], under the digit-block bijection
        cases = [(dg.cycle(3), 2, 2), (dg.clique(2), 2, 2), (dg.path(2), 3, 2)]
        for base, k, s in cases:
            expanded = dg.k_expand(base, k)
            h_small = handle(expanded, s)
            h_big = handle(base, s**k)
            n = base.n

            def to_big(code):
                word = gg.decode(code, n * k, s)
                digits = []
                for v in range(n):
                    val = 0
                    for i in reversed(range(k)):
                        val = val * s + word[v * k + i]
                    digits.append(val)
                return gg.encode(tuple(digits), s**k)

            total = s ** (n * k)
            for x in range(total):
                for y in range(x + 1, total):
                    assert h_small.adjacent(x, y) == h_big.adjacent(to_big(x), to_big(y))
