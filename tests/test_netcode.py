import dataclasses
import itertools
import random

import pytest

from guessnum import digraph as dg
from guessnum import guessing_graph as gg
from guessnum import netcode, solvers
from guessnum.errors import InvalidInstance, LoopEdge, NotAcyclic, SelfDemandLoop

from oracles import random_digraph, simulate_instance


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
        inputs = tuple(tuple(sorted(merged.in_adj[v])) for v in range(merged.n))
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
        res = netcode.solvable(inst, 2)
        assert res.solvable and res.defect_value == 2
        assert counts == {"rows": 1, "mas": 1, "seed": 1}
