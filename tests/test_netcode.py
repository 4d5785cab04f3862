import dataclasses
import itertools
import random

import pytest

from guessnum import cyclic, gf_linear, netcode, solvers
from guessnum import digraph as dg
from guessnum import guessing_graph as gg
from guessnum.errors import (
    InvalidInstance,
    LoopEdge,
    NotAcyclic,
    SelfDemandLoop,
    SizeGuard,
)

from oracles import (
    all_digraphs,
    digraphs_up_to_isomorphism,
    name_reaches,
    random_digraph,
    simulate_instance,
)


def relabel(d, mapping):
    return dg.Digraph(d.n, [(mapping[u], mapping[v]) for u, v in d.edges()])


class TestConversion:
    def test_butterfly_merges_to_the_triangle(self):
        merged, provenance = netcode.to_guessing_digraph(netcode.butterfly())
        assert merged == dg.clique(3)
        assert provenance[0] == ("s1", "t1")
        assert provenance[2] == ("z",)

    def test_bottleneck_merges_to_bidirectional_bipartite(self):
        merged, _ = netcode.to_guessing_digraph(netcode.bottleneck(3, 2))
        # merged pairs 0..2, relay vertices 3..4: all cross edges both ways
        expected = {(i, j) for i in range(3) for j in (3, 4)}
        expected |= {(j, i) for i, j in expected}
        assert set(merged.edges()) == expected

    def test_small_bottleneck(self):
        merged, _ = netcode.to_guessing_digraph(netcode.bottleneck(2, 2))
        expected = {(i, j) for i in range(2) for j in (2, 3)}
        expected |= {(j, i) for i, j in expected}
        assert set(merged.edges()) == expected

    def test_direct_source_to_own_sink_rejected(self):
        inst = netcode.NetworkInstance(
            sources=("s0",), sinks=("t0",), intermediates=(),
            edges=(("s0", "t0"),),
        )
        with pytest.raises(SelfDemandLoop):
            netcode.to_guessing_digraph(inst)

    def test_cyclic_instance_rejected(self):
        inst = netcode.NetworkInstance(
            sources=("s0",), sinks=("t0",), intermediates=("a", "b"),
            edges=(("s0", "a"), ("a", "b"), ("b", "a"), ("a", "t0")),
        )
        with pytest.raises(InvalidInstance):
            netcode.to_guessing_digraph(inst)

    def test_acyclicity_check(self):
        inst = netcode.NetworkInstance(
            sources=("s0",), sinks=("t0",), intermediates=("a", "b", "c"),
            edges=(("s0", "a"), ("a", "b"), ("b", "c"), ("c", "a"), ("c", "t0")),
        )
        with pytest.raises(InvalidInstance, match="underlying digraph has a directed cycle"):
            inst.validate()
        looped = dataclasses.replace(inst, edges=(("s0", "a"), ("a", "a"), ("a", "t0")))
        with pytest.raises(LoopEdge, match="loop at node a rejected"):
            looped.validate()
        diamond = dataclasses.replace(inst, edges=(
            ("s0", "a"), ("s0", "b"), ("a", "c"), ("b", "c"), ("a", "c"), ("c", "t0")))
        assert diamond.validate() is None

    def test_source_with_inputs_rejected(self):
        inst = netcode.NetworkInstance(
            sources=("s0", "s1"), sinks=("t0", "t1"), intermediates=(),
            edges=(("s0", "s1"),),
        )
        with pytest.raises(InvalidInstance):
            netcode.to_guessing_digraph(inst)


class TestSplit:
    def test_triangle_splits_into_a_butterfly_shape(self):
        inst = netcode.from_digraph(dg.clique(3), [2])
        assert inst.n_pairs == 2
        assert len(inst.intermediates) == 1
        merged, _ = netcode.to_guessing_digraph(inst)
        assert merged == dg.clique(3)

    def test_not_acyclic_rejected(self):
        with pytest.raises(NotAcyclic):
            netcode.from_digraph(dg.clique(3), [0, 1])

    def test_round_trip_up_to_relabeling(self):
        rng = random.Random(60)
        for _ in range(15):
            d = random_digraph(rng, rng.randint(2, 6), p=0.5)
            witness = dg.mas_exact(d).witness
            if len(witness) == d.n:
                continue  # acyclic digraphs leave no pairs to split
            inst = netcode.from_digraph(d, witness)
            merged, _ = netcode.to_guessing_digraph(inst)
            outside = [v for v in range(d.n) if v not in set(witness)]
            mapping = {v: i for i, v in enumerate(outside)}
            mapping.update({v: len(outside) + j for j, v in enumerate(sorted(witness))})
            assert merged == relabel(d, mapping)

    def test_cycle_power_split_counts(self):
        block = dg.strong_product(dg.cycle(3), dg.cycle(3))
        witness = dg.mas_exact(block).witness
        inst = netcode.from_digraph(block, witness)
        assert len(inst.intermediates) == 4
        assert inst.n_pairs == 5


class TestSolvability:
    def test_butterfly_is_solvable_with_the_sum_strategy(self):
        res = netcode.solvable(netcode.butterfly(), 2)
        assert res.solvable
        assert res.alpha == 4
        functions = {name: (inputs, table) for name, inputs, table in res.certificate.functions}
        assert functions["z"] == (("s1", "s2"), (0, 1, 1, 0))
        assert res.defect_matches_intermediates

    def test_certificate_delivers_all_demands(self):
        inst = netcode.butterfly()
        res = netcode.solvable(inst, 2)
        functions = {name: (inputs, table) for name, inputs, table in res.certificate.functions}
        for word in itertools.product(range(2), repeat=2):
            assert simulate_instance(inst, functions, 2, word) == word

    def test_bottleneck_three_over_two_unsolvable(self):
        for s in (2, 3):
            res = netcode.solvable(netcode.bottleneck(3, 2), s)
            assert not res.solvable
            assert res.binding_bound is not None
            assert res.g_value == 2.0
            assert not res.defect_matches_intermediates

    def test_bottleneck_routing_suffices_without_contention(self):
        res = netcode.solvable(netcode.bottleneck(2, 2), 2)
        assert res.solvable

    def test_butterfly_stays_solvable_over_the_squared_alphabet(self):
        res = netcode.solvable(netcode.butterfly(), 4)
        assert res.solvable

    def test_a_relay_chain_is_simulated_in_order(self):
        # z1 feeds z2, but z2 is listed first: at s = 4 the configuration
        # graph decides, and the certificate is simulated with z1 first
        inst = netcode.NetworkInstance(
            sources=("s1",), sinks=("t1",), intermediates=("z2", "z1"),
            edges=(("s1", "z1"), ("z1", "z2"), ("z2", "t1")),
        )
        merged, _ = netcode.to_guessing_digraph(inst)
        assert netcode._relay_order(merged, 1) == [2, 1]
        protocol = solvers.guessing_number(merged, 4).protocol
        assert netcode._simulate(inst, merged, protocol, 4) is True
        assert netcode.solvable(inst, 4).solvable

    def test_unreachable_sink_reported(self):
        inst = netcode.NetworkInstance(
            sources=("s0", "s1"), sinks=("t0", "t1"), intermediates=("z",),
            edges=(("s0", "z"), ("z", "t1"), ("s1", "t0"), ("s1", "z")),
        )
        res = netcode.solvable(inst, 2)
        assert not res.solvable
        assert "unreachable" in res.reason

    def test_relays_beyond_two_to_the_sixteen_keep_their_certificate(self):
        # 17 pairs, each relayed through its own intermediate: s^n = 2^17
        pairs = range(17)
        inst = netcode.NetworkInstance(
            sources=tuple(f"s{i}" for i in pairs),
            sinks=tuple(f"t{i}" for i in pairs),
            intermediates=tuple(f"z{i}" for i in pairs),
            edges=tuple(e for i in pairs for e in ((f"s{i}", f"z{i}"), (f"z{i}", f"t{i}"))),
        )
        res = netcode.solvable(inst, 2)
        assert res.solvable
        assert res.certificate is not None
        assert res.binding_bound is None and res.reason is None
        functions = {name: (inputs, table) for name, inputs, table in res.certificate.functions}
        rng = random.Random(62)
        for _ in range(4):
            word = tuple(rng.randrange(2) for _ in pairs)
            assert simulate_instance(inst, functions, 2, word) == word
        # each pair and its relay form their own component: 2 words each
        merged, _ = netcode.to_guessing_digraph(inst)
        protocol = solvers.guessing_number(merged, 2).protocol
        assert netcode._simulate(inst, merged, protocol, 2) is True

    def test_simulation_rejects_a_wrong_table_in_any_component(self):
        inst = netcode.NetworkInstance(
            sources=("s0", "s1"), sinks=("t0", "t1"), intermediates=("z0", "z1"),
            edges=(("s0", "z0"), ("z0", "t0"), ("s1", "z1"), ("z1", "t1")),
        )
        merged, _ = netcode.to_guessing_digraph(inst)
        protocol = solvers.guessing_number(merged, 2).protocol
        assert netcode._simulate(inst, merged, protocol, 2) is True
        for v in range(merged.n):
            for w in range(len(protocol.tables[v])):
                tables = [list(table) for table in protocol.tables]
                tables[v][w] = 1 - tables[v][w]
                broken = dataclasses.replace(
                    protocol, tables=tuple(tuple(table) for table in tables)
                )
                assert netcode._simulate(inst, merged, broken, 2) is False

    def test_one_component_beyond_two_to_the_sixteen_is_unverified(self):
        # a 17-pair bottleneck (one component, 2^17 words) next to one
        # relayed pair, whose relay and sink copy their input or emit 0
        big = netcode.bottleneck(17, 17)
        inst = netcode.NetworkInstance(
            big.sources + ("sa",), big.sinks + ("ta",), big.intermediates + ("za",),
            big.edges + (("sa", "za"), ("za", "ta")),
        )
        merged, _ = netcode.to_guessing_digraph(inst)
        inputs = tuple(merged.in_neighbours(v) for v in range(merged.n))
        zero = tuple((0,) * 2 ** len(ins) for ins in inputs)
        copy = list(zero)
        copy[inst.n_pairs - 1] = copy[merged.n - 1] = (0, 1)
        for tables, verdict in ((zero, False), (tuple(copy), None)):
            protocol = solvers.Protocol(merged.n, 2, inputs, tables)
            assert netcode._simulate(inst, merged, protocol, 2) is verdict

    def test_paley_split_is_binary_solvable(self):
        from guessnum import cyclic

        d = cyclic.digraph_from_polynomial(cyclic.parse_poly("11101"), 7)
        witness = dg.mas_exact(d).witness
        inst = netcode.from_digraph(d, witness)
        assert inst.n_pairs == 4
        assert len(inst.intermediates) == 3
        res = netcode.solvable(inst, 2)
        assert res.solvable
        functions = {name: (inputs, table) for name, inputs, table in res.certificate.functions}
        rng = random.Random(61)
        for _ in range(12):
            word = tuple(rng.randrange(2) for _ in range(4))
            assert simulate_instance(inst, functions, 2, word) == word


class TestTextFormat:
    def test_round_trip(self):
        inst = netcode.butterfly()
        again = netcode.from_text(netcode.to_text(inst))
        assert again == inst

    def test_comments_and_grouped_intermediates(self):
        text = """
        # two relays on one line
        pairs
        a b
        intermediates
        z1 z2
        edges
        a z1
        z1 z2
        z2 b
        """
        inst = netcode.from_text(text)
        assert inst.intermediates == ("z1", "z2")

    def test_file_round_trip(self, tmp_path):
        inst = netcode.bottleneck(2, 1)
        path = tmp_path / "inst.nc"
        netcode.write_instance(inst, path)
        assert netcode.read_instance(path) == inst

    def test_malformed_sections_rejected(self):
        with pytest.raises(InvalidInstance):
            netcode.from_text("a b\npairs\n")
        with pytest.raises(InvalidInstance):
            netcode.from_text("pairs\na b c\n")


def random_splits(rng, s, count):
    """Seeded splits of random digraphs at their maximum acyclic sets,
    strongly connected or not."""
    n_max = 6 if s == 2 else 4
    for k in range(count):
        d = random_digraph(rng, rng.randint(1, n_max), p=0.3 if k % 2 else 0.6)
        yield netcode.from_digraph(d, dg.mas_exact(d).witness)


class TestOneConfigurationGraph:
    def test_solvable_agrees_with_the_standalone_solvers(self):
        rng = random.Random(71)
        strong = weak = 0
        for s in (2, 3):
            for inst in random_splits(rng, s, 40):
                merged, _ = netcode.to_guessing_digraph(inst)
                if len(dg.strong_components(merged).components) == 1:
                    strong += 1
                else:
                    weak += 1
                res = netcode.solvable(inst, s)
                assert res.alpha == solvers.guessing_number(merged, s).alpha
                defect = solvers.information_defect(merged, s)
                assert res.defect_value == defect.chi
                assert res.defect_matches_intermediates == (
                    defect.integral and round(defect.value) == len(inst.intermediates)
                )
        assert strong >= 10 and weak >= 10

    def test_strong_instance_builds_each_fact_once(self, monkeypatch):
        counts = {"rows": 0, "mas": 0, "seed": 0}

        def counting(key, function):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(gg, "_translated_rows", counting("rows", gg._translated_rows))
        monkeypatch.setattr(dg, "mas_exact", counting("mas", dg.mas_exact))
        monkeypatch.setattr(
            solvers, "_linear_seed_codes", counting("seed", solvers._linear_seed_codes)
        )
        inst = netcode.butterfly()
        merged, _ = netcode.to_guessing_digraph(inst)
        assert len(dg.strong_components(merged).components) == 1
        # a composite alphabet takes the configuration graph path
        res = netcode.solvable(inst, 4)
        assert res.solvable and res.defect_value == 4
        assert counts == {"rows": 1, "mas": 1, "seed": 1}
        # a prime one is decided by linear algebra, with no graph at all
        counts.update(rows=0, mas=0, seed=0)
        res = netcode.solvable(inst, 2)
        assert res.solvable and res.defect_value == 2
        assert counts == {"rows": 0, "mas": 1, "seed": 0}


def every_split(d):
    """Every instance ``from_digraph`` gives for d: one per acyclic set."""
    for size in range(d.n + 1):
        for inter in itertools.combinations(range(d.n), size):
            if dg.is_acyclic(dg.induced_subdigraph(d, inter)[0]):
                yield netcode.from_digraph(d, inter)


def graph_path(inst, s):
    """Verdict, alpha, g, defect and defect match from the configuration
    graph alone: the maximum independent sets and the colouring."""
    merged, _ = netcode.to_guessing_digraph(inst)
    result, parts = solvers._solve_components(merged, s, gg.DEFAULT_GUARD)
    if len(parts) == 1:
        chi = solvers._chromatic_from(parts[0][1], parts[0][2]).chi
    else:
        chi = solvers.information_defect(merged, s).chi
    solvable = result.alpha == s**inst.n_pairs
    return solvable, result.alpha, result.value, chi, chi == s ** len(inst.intermediates)


def reference_reason(inst, res):
    """The reason an unsolvable instance reports, from a name-level search
    of its edges: the first sink its source cannot reach, else the
    guessing number."""
    for sname, tname in zip(inst.sources, inst.sinks):
        if not name_reaches(inst.edges, sname, tname):
            return f"sink {tname} is unreachable from {sname}"
    return f"guessing number {res.g_value:.3f} < {inst.n_pairs}"


class TestUnreachableReason:
    def test_reason_matches_a_name_level_search_on_every_split(self):
        total = unsolvable = unreachable = 0
        for n in range(5):
            for d in digraphs_up_to_isomorphism(n):
                for inst in every_split(d):
                    res = netcode.solvable(inst, 2)
                    total += 1
                    if res.solvable:
                        assert res.reason is None
                        continue
                    unsolvable += 1
                    assert res.reason == reference_reason(inst, res), (d.edges(), inst)
                    unreachable += "unreachable" in res.reason
        assert (total, unsolvable) == (2546, 2090)
        assert 0 < unreachable < unsolvable


# the two seed-2 netcode_solve gap jobs, merged: pairs 0..2, relays 3 and 4
GAP_DIGRAPHS = (
    [(0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (2, 0), (2, 4), (3, 1), (3, 2),
     (3, 4), (4, 0), (4, 1), (4, 2)],
    [(0, 2), (0, 3), (1, 0), (1, 2), (1, 3), (1, 4), (2, 0), (2, 3), (2, 4),
     (3, 0), (3, 1), (4, 0), (4, 1), (4, 2)],
)


class TestLinearFirst:
    def test_linear_path_matches_the_configuration_graph(self, monkeypatch):
        fallbacks = []
        solve_components = solvers._solve_components

        def counting(*args):
            fallbacks.append(args[0])
            return solve_components(*args)

        monkeypatch.setattr(solvers, "_solve_components", counting)
        linear = total = 0
        for n in range(1, 5):
            for d in digraphs_up_to_isomorphism(n):
                for inst in every_split(d):
                    for s in (2, 3):
                        before = len(fallbacks)
                        res = netcode.solvable(inst, s)
                        linear += len(fallbacks) == before
                        total += 1
                        got = (res.solvable, res.alpha, res.g_value,
                               res.defect_value, res.defect_matches_intermediates)
                        assert got == graph_path(inst, s), (d.edges(), inst, s)
                        if res.solvable:
                            assert res.reason is None and res.binding_bound is None
        assert total > 5000
        assert linear > 500 and total - linear > 500

    def test_gap_jobs_stay_on_the_configuration_graph(self):
        for edges in GAP_DIGRAPHS:
            merged = dg.Digraph(5, edges)
            inst = netcode.from_digraph(merged, [3, 4])
            assert netcode.to_guessing_digraph(inst)[0] == merged
            lin = gf_linear.linear_guessing_number(merged, 2)
            assert (lin.lower, lin.upper, lin.exact) == (2, 2, True)
            assert dg.mas_exact(merged).size == 2  # n - mas is the pair count
            res = netcode.solvable(inst, 2)
            assert not res.solvable and res.alpha == 5  # 5 > 2^2: nonlinear wins
            got = (res.solvable, res.alpha, res.g_value,
                   res.defect_value, res.defect_matches_intermediates)
            assert got == graph_path(inst, 2)

    @pytest.mark.parametrize("s", [2, 3])
    def test_flipping_any_linear_table_entry_fails_the_check(self, s):
        instances = [netcode.butterfly(), netcode.bottleneck(2, 2)]
        instances += random_splits(random.Random(72), s, 12)
        checked = caught = 0
        for k, inst in enumerate(instances):
            merged, _ = netcode.to_guessing_digraph(inst)
            lin = gf_linear.linear_guessing_number(merged, s)
            if lin.lower < inst.n_pairs:
                continue
            protocol = netcode._linear_protocol(merged, lin.witness, gg.DEFAULT_GUARD)
            assert netcode._delivers_linearly(inst, merged, protocol)
            for v, table in enumerate(protocol.tables):
                for w, x in itertools.product(range(len(table)), range(s)):
                    if x == table[w]:
                        continue
                    tables = list(protocol.tables)
                    tables[v] = table[:w] + (x,) + table[w + 1:]
                    broken = dataclasses.replace(protocol, tables=tuple(tables))
                    checked += 1
                    if not netcode._delivers_linearly(inst, merged, broken):
                        caught += 1
                        continue
                    # a flip passes only where it leaves a linear table that
                    # no sink depends on: the certificate still delivers
                    assert k >= 2  # on the butterfly and the bottleneck all matter
                    certificate = netcode._certificate_from_protocol(inst, merged, broken)
                    functions = {name: (inputs, table)
                                 for name, inputs, table in certificate.functions}
                    for word in itertools.product(range(s), repeat=inst.n_pairs):
                        assert simulate_instance(inst, functions, s, word) == word
        assert checked > 100 and caught > 0.9 * checked


    def test_linear_tables_are_read_first_input_least_significant(self):
        # x_v = 2 x_a + x_b over GF(3), inputs (a, b): index a + 3 b
        assert netcode._linear_table([2, 1], 3) == (0, 2, 1, 1, 0, 2, 2, 1, 0)

    def test_linear_tables_keep_a_size_guard(self):
        merged, _ = netcode.to_guessing_digraph(netcode.bottleneck(2, 3))
        witness = gf_linear.linear_guessing_number(merged, 2).witness
        with pytest.raises(SizeGuard):
            netcode._linear_protocol(merged, witness, 4)  # in-degree 3: 8 entries
        with pytest.raises(SizeGuard):
            netcode.solvable(netcode.bottleneck(2, 3), 2, guard=4)


PAPER_CODES = (  # (generator, n): the paper's cyclic-code instances
    ("x^4+x+1", 15),
    ("x^11+x^9+x^7+x^6+x^5+x+1", 23),
    ("x^5+x^2+1", 31),
    ("x^6+x+1", 63),
    ("x^7+x+1", 127),
)


class TestPaperInstances:
    @pytest.mark.parametrize("text,n", PAPER_CODES)
    def test_solvable_beyond_the_configuration_guard(self, text, n):
        d = cyclic.digraph_from_polynomial(cyclic.parse_poly(text), n)
        inst = netcode.from_digraph(d, dg.mas_exact(d).witness)
        assert inst.n_pairs == cyclic.parse_poly(text).degree
        m = len(inst.intermediates)
        assert 2**n > gg.DEFAULT_GUARD or n == 15  # all but n = 15 are beyond it
        res = netcode.solvable(inst, 2)
        assert res.solvable and res.alpha == 2**inst.n_pairs
        assert res.g_value == inst.n_pairs
        assert res.defect_value == 2**m and res.defect_matches_intermediates
        functions = {name: (inputs, table) for name, inputs, table in res.certificate.functions}
        rng = random.Random(n)
        for _ in range(16):
            word = tuple(rng.randrange(2) for _ in range(inst.n_pairs))
            assert simulate_instance(inst, functions, 2, word) == word
