"""The vertex-0 shortcuts on vertex-transitive graphs against the general path.

A rotation-invariant digraph (a circulant) and a Cayley graph on Z_s^n
move vertex 0 onto every vertex, so ``mas_exact``, ``girth``,
``strong_components``, ``degree_closed_form`` and the independent-set
searches of ``solvers`` start from vertex 0 only.  Each test runs the
shortcut and the general path on the same input, the latter reached by
patching ``digraph.rotation_invariant`` to False or by passing
``transitive=False`` to the search, and checks small cases against
brute force and circulants against a relabelled copy.
"""

import contextlib
import itertools
import random

from guessnum import _search
from guessnum import digraph as dg
from guessnum import guessing_graph as gg
from guessnum import solvers

from oracles import (
    all_digraphs,
    branch_alpha,
    brute_code_size,
    brute_degree,
    brute_girth,
    brute_mas_witness,
    is_circulant,
    lex_first_independent_set,
    mutual_reach_classes,
)


def circulant(n, shifts):
    return dg.Digraph(n, [(v, (v + j) % n) for v in range(n) for j in shifts])


def every_circulant(top):
    for n in range(1, top + 1):
        for k in range(n):
            for shifts in itertools.combinations(range(1, n), k):
                yield circulant(n, shifts)


def small_digraphs():
    """Every digraph with n <= 4 at s = 2 and with n <= 3 at s = 3."""
    for n in range(5):
        for d in all_digraphs(n):
            yield d, 2
            if n <= 3:
                yield d, 3


@contextlib.contextmanager
def general(monkeypatch):
    """No digraph counts as rotation-invariant inside the block."""
    with monkeypatch.context() as patch:
        patch.setattr(dg, "rotation_invariant", lambda out_rows: False)
        yield


@contextlib.contextmanager
def full_search(monkeypatch):
    """Every independent-set search keeps both root branches inside the block."""
    search = _search.max_independent_set
    with monkeypatch.context() as patch:
        patch.setattr(
            _search, "max_independent_set",
            lambda *args, **kwargs: search(*args, **dict(kwargs, transitive=False)),
        )
        yield


def digraph_facts(d):
    return (dg.mas_exact(d), dg.girth(d), dg.strong_components(d),
            gg.degree_closed_form(d, 2), gg.degree_closed_form(d, 3))


class TestRotationInvariant:
    def test_matches_the_edge_scan(self):
        for n in range(5):
            for d in all_digraphs(n):
                assert dg.rotation_invariant(d.out_rows()) == is_circulant(d)

    def test_families(self):
        for n in range(2, 9):
            assert dg.rotation_invariant(dg.cycle(n).out_rows())
            assert dg.rotation_invariant(dg.clique(n).out_rows())
            assert not dg.rotation_invariant(dg.path(n).out_rows())
        assert dg.rotation_invariant([])
        assert dg.rotation_invariant([0])

    def test_mismatch_reads_only_vertices_zero_and_one(self):
        read = []

        class Rows(list):
            def __getitem__(self, v):
                read.append(v)
                return list.__getitem__(self, v)

        d = dg.unidirectional_union(dg.cycle(3), dg.clique(30))
        assert not dg.rotation_invariant(Rows(d.out_rows()))
        assert set(read) == {0, 1}


class TestSmallDigraphs:
    def test_digraph_facts(self, monkeypatch):
        for n in range(5):
            for d in all_digraphs(n):
                facts = digraph_facts(d)
                with general(monkeypatch):
                    assert digraph_facts(d) == facts
                mas, girth, scc, degree2, degree3 = facts
                assert mas.witness == brute_mas_witness(d)
                assert girth == brute_girth(d)
                assert set(map(frozenset, scc.components)) == mutual_reach_classes(d)
                assert degree2 == brute_degree(d, 2)
                if n <= 3:
                    assert degree3 == brute_degree(d, 3)

    def test_max_independent_set(self, monkeypatch):
        for d, s in small_digraphs():
            handle = gg.GuessingGraph(d, s)
            mis = solvers.max_independent_set(handle)
            with full_search(monkeypatch):
                assert solvers.max_independent_set(handle) == mis
            assert mis.witness[0] == 0 and mis.exact
            assert mis.alpha == branch_alpha(d, s)
            if s**d.n <= 9:
                assert mis.witness == lex_first_independent_set(handle.rows, mis.alpha)

    def test_code_search(self, monkeypatch):
        searched = 0
        for s in (2, 3, 4, 5):
            for n in itertools.count(1):
                if s**n > solvers.DEFAULT_CODE_SEARCH_GUARD:
                    break
                for d in range(2, n + 1):
                    code = solvers.a_s_exact.__wrapped__(n, d, s)
                    with full_search(monkeypatch):
                        assert solvers.a_s_exact.__wrapped__(n, d, s) == code
                    assert code.exact and code.lower_witness[0] == 0
                    lexicode = solvers._lexicode(solvers._distance_rows(n, d, s)[1])
                    searched += lexicode.bit_count() < min(code.singleton, code.sphere)
                    if s**n <= 16:
                        assert code.value == brute_code_size(n, d, s)
        assert searched


class TestCirculants:
    def test_against_the_general_path(self, monkeypatch):
        for d in every_circulant(12):
            facts = digraph_facts(d)
            with general(monkeypatch):
                assert digraph_facts(d) == facts
            mas, girth, scc, *_ = facts
            assert not scc.condensation.edge_count()

    def test_each_function_asks_once(self, monkeypatch):
        answers = []
        check = dg.rotation_invariant
        monkeypatch.setattr(dg, "rotation_invariant",
                            lambda out_rows: answers.append(check(out_rows)) or answers[-1])
        digraph_facts(circulant(9, (1, 3)))
        assert answers == [True] * 5

    def test_against_a_relabelled_copy(self):
        rng = random.Random(19)
        relabelled = 0
        for d in every_circulant(12):
            perm = list(range(d.n))
            rng.shuffle(perm)
            copy = dg.Digraph(d.n, [(perm[u], perm[v]) for u, v in d.edges()])
            relabelled += not dg.rotation_invariant(copy.out_rows())
            mas, girth, scc, degree2, degree3 = digraph_facts(d)
            other = digraph_facts(copy)
            assert mas.size == other[0].size
            assert girth == other[1]
            assert {frozenset(perm[v] for v in c) for c in scc.components} == set(
                map(frozenset, other[2].components))
            assert (degree2, degree3) == other[3:]
        assert relabelled >= 3000
