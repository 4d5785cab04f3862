"""Independent brute-force reference implementations for the tests.

Everything here recomputes results from first principles (definition
scans, exhaustive enumeration) and never calls the solver paths it is
used to check.
"""

from __future__ import annotations

import itertools
import math

from guessnum import _search
from guessnum import digraph as dg
from guessnum.digraph import Digraph, MasResult, SccResult, gf2_rank
from guessnum.errors import BadParams, SizeGuard
from guessnum.gf_linear import GfMatrix
from guessnum.guessing_graph import _mask_to_set, coordinate_masks, decode, encode
from guessnum.solvers import (
    DEFAULT_CODE_SEARCH_GUARD,
    _LEXICODE_CAP,
    ChromaticResult,
    CodeSizeResult,
    Protocol,
    _coset_coloring,
    _proper,
    _protocol_inputs,
    _seed,
    _table_fixes,
    _word_masks,
)


def brute_adjacent(d, s, x, y):
    """Definition scan: some vertex agrees on its in-view but not itself."""
    if x == y:
        return False
    xs, ys = decode(x, d.n, s), decode(y, d.n, s)
    for i in range(d.n):
        if xs[i] != ys[i] and all(xs[j] == ys[j] for j in d.in_neighbours(i)):
            return True
    return False


def brute_neighbors(d, s, x):
    return {y for y in range(s**d.n) if brute_adjacent(d, s, x, y)}


def brute_degree(d, s):
    return len(brute_neighbors(d, s, 0))


def inclusion_exclusion_degree(d, s):
    """Degree by inclusion-exclusion over every independent set of the whole
    digraph: each nonempty set I contributes
    (-1)^(|I|-1) * (s-1)^|I| * s^(n - |in_nbhd(I)| - |I|)."""
    total = 0
    for k in range(1, d.n + 1):
        for vs in itertools.combinations(range(d.n), k):
            if any(d.has_edge(u, v) for u in vs for v in vs):
                continue
            in_nbhd = set().union(*(d.in_neighbours(v) for v in vs))
            total += (-1) ** (k - 1) * (s - 1) ** k * s ** (d.n - len(in_nbhd) - k)
    return total


def weak_components(d):
    """Vertex sets joined by edges in either direction, by repeated scans."""
    comps = []
    for v in range(d.n):
        joined = [c for c in comps if any(d.has_edge(u, v) or d.has_edge(v, u) for u in c)]
        merged = {v}.union(*joined)
        comps = [c for c in comps if c not in joined] + [merged]
    return comps


def union_find_roots(n, inputs):
    """Each vertex's group root under the relation "v reads u" (u among
    ``inputs[v]``), by union-find with path halving."""
    group = list(range(n))

    def root(v):
        while group[v] != v:
            group[v] = group[group[v]]
            v = group[v]
        return v

    for v, ins in enumerate(inputs):
        for u in ins:
            group[root(u)] = root(v)
    return [root(v) for v in range(n)]


def bfs_reachable(rows, frontier, within):
    """Set-based breadth-first search over bit rows: the frontier's
    vertices plus every vertex of ``within`` reached through ``within``."""
    within = _mask_to_set(within)
    seen = _mask_to_set(frontier)
    queue = list(seen)
    while queue:
        u = queue.pop(0)
        for w in _mask_to_set(rows[u]):
            if w in within and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def name_reaches(edges, source, target):
    """Depth-first search over an instance's (name, name) edges."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
    frontier = [source]
    seen = {source}
    while frontier:
        u = frontier.pop()
        if u == target:
            return True
        for w in adj.get(u, ()):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return False


def is_circulant(d):
    """Edge scan: every edge u -> v comes with u + 1 -> v + 1 mod n."""
    return all(d.has_edge((u + 1) % d.n, (v + 1) % d.n) for u, v in d.edges())


def brute_girth(d):
    """Shortest directed cycle by listing vertex sequences; None if acyclic."""
    for k in range(2, d.n + 1):
        for vs in itertools.permutations(range(d.n), k):
            if all(d.has_edge(vs[i], vs[(i + 1) % k]) for i in range(k)):
                return k
    return None


def tarjan_components(d):
    """Tarjan's search with index, lowlink and on-stack arrays, the
    reference for ``strong_components``; circulants, unless
    ``digraph.rotation_invariant`` is patched, are read off vertex 0."""
    n = d.n
    alike = n < 2 or (
        len(d.out_neighbours(0)) == len(d.out_neighbours(1)) == len(d.in_neighbours(0)))
    if alike and dg.rotation_invariant(d.out_rows()):
        g = math.gcd(n, *d.out_neighbours(0)) if n else 0
        return SccResult(
            tuple([tuple(range(i, n, g)) for i in range(g)]),
            Digraph(g),
            tuple([v % g for v in range(n)]),
        )
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(d.out_neighbours(root)))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(d.out_neighbours(w))))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(tuple(sorted(comp)))
    comp_of = [0] * n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    cond_edges = set()
    for u in range(n):
        for v in d.out_neighbours(u):
            if comp_of[u] != comp_of[v]:
                cond_edges.add((comp_of[u], comp_of[v]))
    return SccResult(tuple(comps), Digraph(len(comps), cond_edges), tuple(comp_of))


def bfs_girth(d):
    """Shortest directed cycle by a breadth-first search with a distance
    dict from every vertex; None if acyclic."""
    if d.bidirectional_pairs():
        return 2
    best = None
    for v in range(d.n):
        dist = {v: 0}
        frontier = [v]
        while frontier:
            nxt = []
            for u in frontier:
                for w in d.out_neighbours(u):
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        for u in d.in_neighbours(v):
            if u in dist:
                cand = dist[u] + 1
                if best is None or cand < best:
                    best = cand
    return best


def pair_clique_partition(d):
    """``clique_partition_number`` with its bidirectional rows built from
    ``bidirectional_pairs()``."""
    n = d.n
    if n == 0:
        return dg.CliquePartitionResult(0, (), True)
    full = (1 << n) - 1
    bidir_rows = [0] * n
    for u, v in d.bidirectional_pairs():
        bidir_rows[u] |= 1 << v
        bidir_rows[v] |= 1 << u
    comp_rows = [full & ~bidir_rows[v] & ~(1 << v) for v in range(n)]
    greedy = _search.greedy_dsatur(comp_rows, n)
    lower = _search.max_clique_size_lower(comp_rows, n)
    count, coloring, exact = _search.exact_chromatic(
        comp_rows, n, lower, greedy, node_budget=dg.DEFAULT_PARTITION_BUDGET
    )
    parts = [[] for _ in range(count)]
    for v, c in enumerate(coloring):
        parts[c].append(v)
    parts = tuple([tuple(p) for p in sorted(parts)])
    return dg.CliquePartitionResult(count, parts, exact)


def mutual_reach_classes(d):
    """Strong components as a set of frozensets: vertices that reach each other."""
    reach = []
    for v in range(d.n):
        seen, todo = {v}, [v]
        while todo:
            for w in d.out_neighbours(todo.pop()):
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach.append(seen)
    return {frozenset(u for u in reach[v] if v in reach[u]) for v in range(d.n)}


def lex_first_independent_set(rows, size):
    """First independent ``size``-subset of a bitmask graph in
    ``itertools.combinations`` order, as a sorted tuple."""
    return next(
        vs for vs in itertools.combinations(range(len(rows)), size)
        if not any(rows[u] >> v & 1 for u, v in itertools.combinations(vs, 2))
    )


def brute_proper(d, s, colors):
    """Per-pair scan: no two adjacent configurations share a colour."""
    return not any(
        colors[x] == colors[y] and brute_adjacent(d, s, x, y)
        for x, y in itertools.combinations(range(s**d.n), 2)
    )


def add_codes(a, b, n, s):
    """Coordinatewise sum mod s of two configuration codes."""
    if s == 2:
        return a ^ b
    xa, xb = decode(a, n, s), decode(b, n, s)
    return encode(tuple((u + v) % s for u, v in zip(xa, xb)), s)


def protocol_evaluate(protocol, code):
    """The configuration every vertex's table guesses from ``code``."""
    symbols = decode(code, protocol.n, protocol.s)
    out = tuple(
        protocol.tables[v][protocol.word_index(symbols, v)] for v in range(protocol.n)
    )
    return encode(out, protocol.s)


def protocol_fixes(protocol, code):
    return protocol_evaluate(protocol, code) == code


def brute_fixed(d, s, protocol):
    """Codes the protocol maps to themselves, one ``protocol_fixes`` call each."""
    return tuple(x for x in range(s**d.n) if protocol_fixes(protocol, x))


def exhaustive_best_protocol(d, s, limit=10_000_000):
    """Maximum fixed-configuration count over every protocol.

    Brute force over protocol space: per-vertex acceptance bitmasks over
    all configurations, one per candidate local table, combined by AND.
    Guarded by the product of per-vertex table-space sizes.
    """
    n = d.n
    total = 1
    for v in range(n):
        total *= s ** (s ** d.in_degree(v))
        if total > limit:
            raise SizeGuard(
                "protocol space exceeds the exhaustive-search limit",
                needed=total,
                guard=limit,
            )
    inputs = _protocol_inputs(d)
    masks = coordinate_masks(n, s)
    every_bit = (1 << s**n) - 1
    per_vertex = []
    for v in range(n):
        words = _word_masks(masks, inputs[v], every_bit)
        per_vertex.append([
            (_table_fixes(words, masks[v], table), table)
            for table in itertools.product(range(s), repeat=len(words))
        ])

    best = [0, None]

    def dfs(v, acc, chosen):
        if acc.bit_count() <= best[0]:
            return
        if v == n:
            best[0] = acc.bit_count()
            best[1] = tuple(chosen)
            return
        for mask, table in per_vertex[v]:
            chosen.append(table)
            dfs(v + 1, acc & mask, chosen)
            chosen.pop()

    dfs(0, every_bit, [])
    protocol = Protocol(n, s, inputs, best[1]) if best[1] is not None else None
    return best[0], protocol


def brute_exterior_classes(d, s, vertices, candidates):
    """Bucket scan: how many words outside ``vertices`` the candidate codes show."""
    inside = set(vertices)
    outside = [v for v in range(d.n) if v not in inside]
    words = set()
    for x in range(s**d.n):
        if candidates >> x & 1:
            xs = decode(x, d.n, s)
            words.add(tuple(xs[v] for v in outside))
    return len(words)


def induces_acyclic(d, vertices):
    """Kahn's algorithm on the induced subgraph."""
    inside = set(vertices)
    indeg = {v: sum(1 for u in d.in_neighbours(v) if u in inside) for v in inside}
    ready = [v for v in inside if indeg[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for w in d.out_neighbours(v):
            if w in inside:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
    return seen == len(inside)


def brute_mas(d):
    """Exhaustive subset scan; n <= 16 only."""
    assert d.n <= 16
    best = 0
    for mask in range(1 << d.n):
        vs = [v for v in range(d.n) if (mask >> v) & 1]
        if len(vs) > best and induces_acyclic(d, vs):
            best = len(vs)
    return best


def brute_mas_witness(d):
    """Lexicographically smallest maximum acyclic set; n <= 16 only."""
    size = brute_mas(d)
    return next(
        vs for vs in itertools.combinations(range(d.n), size) if induces_acyclic(d, vs)
    )


def brute_rank_gf2(rows):
    """GF(2) rank of int bit rows as log2 of the size of their span."""
    span = {0}
    for row in rows:
        span |= {x ^ row for x in span}
    return len(span).bit_length() - 1


def rref(matrix):
    """Reduced row echelon form over GF(p): (rows, pivot columns).

    Gauss-Jordan elimination on lists, at every prime.  Row i has a 1 in
    the i-th pivot column and 0 in the other ones.
    """
    p = matrix.p
    work = [list(row) for row in matrix.entries]
    pivot_cols = []
    for c in range(matrix.cols):
        r = len(pivot_cols)
        if r == matrix.rows:
            break
        pivot = next((i for i in range(r, matrix.rows) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = pow(work[r][c], p - 2, p)
        work[r] = [(e * inv) % p for e in work[r]]
        for i in range(matrix.rows):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[r])]
        pivot_cols.append(c)
    return work, pivot_cols


def rref_rank(matrix):
    """Rank over GF(p): the number of pivot columns of :func:`rref`."""
    return len(rref(matrix)[1])


def rref_nullspace(matrix):
    """Right nullspace basis over GF(p) read off :func:`rref`.

    One coordinate tuple per free column, in ascending order: 1 there,
    0 on the other free columns, and minus that column's entries on the
    pivot columns.
    """
    p, cols = matrix.p, matrix.cols
    work, pivot_cols = rref(matrix)
    basis = []
    for fc in (c for c in range(cols) if c not in pivot_cols):
        vec = [0] * cols
        vec[fc] = 1
        for i, pc in enumerate(pivot_cols):
            vec[pc] = (-work[i][fc]) % p
        basis.append(tuple(vec))
    return basis


def brute_min_rank(d, p):
    """Minimum rank(I + A) over every A supported on the edges, by listing.

    Patterns run over ``d.edges()`` in order with coefficients ascending,
    the last edge changing fastest.  Returns the minimum rank and the
    entries of the first A that reaches it.
    """
    n, edges = d.n, d.edges()
    best = None
    for values in itertools.product(range(p), repeat=len(edges)):
        a = [[0] * n for _ in range(n)]
        for (u, v), c in zip(edges, values):
            a[u][v] = c
        eye_plus = [[int(i == j) + a[i][j] for j in range(n)] for i in range(n)]
        rank = rref_rank(GfMatrix(eye_plus, p))
        if best is None or rank < best[0]:
            best = (rank, tuple(map(tuple, a)))
    return best


def unpruned_min_rank(d, p, budget, floor=0):
    """Minimum rank(I + A) by the pattern search without a lower bound.

    The depth-first search as it stood before its rank + acyclic-set
    prune: vertices ascending, each row's coefficients ascending from
    zero, pruned only by ``rank >= best`` and by ``floor``.  Returns the
    minimum rank and the entries of the lexicographically first optimal
    A, like :func:`brute_min_rank`, at sizes the listing cannot reach.
    """
    n = d.n
    outs = [d.out_neighbours(v) for v in range(n)]
    if p ** d.edge_count() > budget:
        raise BadParams("pattern space exceeds budget")
    best = [n + 1, None]
    pivots = []

    if p == 2:

        def push(v, combo):
            vec = 1 << v
            for j, bit in zip(outs[v], combo):
                if bit:
                    vec |= 1 << j
            for prow in pivots:
                low = prow & -prow
                if vec & low:
                    vec ^= prow
            if vec:
                pivots.append(vec)
            return vec

    else:

        def push(v, combo):
            vec = [0] * n
            vec[v] = 1
            for j, val in zip(outs[v], combo):
                vec[j] = val
            for col, row in pivots:
                f = vec[col]
                if f:
                    vec = [(a - f * b) % p for a, b in zip(vec, row)]
            lead = next((c for c in range(n) if vec[c]), None)
            if lead is None:
                return False
            inv = pow(vec[lead], p - 2, p)
            pivots.append((lead, tuple((e * inv) % p for e in vec)))
            return True

    def dfs(v, rank, chosen):
        if rank >= best[0] or best[0] <= floor:
            return
        if v == n:
            best[0] = rank
            best[1] = dict(chosen)
            return
        for combo in itertools.product(range(p), repeat=len(outs[v])):
            for j, val in zip(outs[v], combo):
                chosen[(v, j)] = val
            if push(v, combo):
                dfs(v + 1, rank + 1, chosen)
                pivots.pop()
            else:
                dfs(v + 1, rank, chosen)
        for j in outs[v]:
            chosen.pop((v, j), None)

    dfs(0, 0, {})
    coeffs = best[1] if best[1] is not None else {}
    a = [[0] * n for _ in range(n)]
    for (u, v), val in coeffs.items():
        a[u][v] = val % p
    return best[0], tuple(map(tuple, a))


def rerank_rank_of_support(d, p, coeffs):
    """rank(I + A) for the coefficients ``{(u, v): value}``, rebuilt from scratch."""
    n = d.n
    entries = [[int(i == j) for j in range(n)] for i in range(n)]
    for (u, v), val in coeffs.items():
        entries[u][v] = val % p
    return rref_rank(GfMatrix(entries, p))


def rerank_descend(d, p, coeffs):
    """Greedy coordinate descent on rank(I + A), re-ranking every trial.

    The descent as it stood before its trials were ranked incrementally:
    each zeroing rebuilds the whole matrix and ranks it afresh.
    """
    best_rank = rerank_rank_of_support(d, p, coeffs)
    improved = True
    while improved:
        improved = False
        for edge in sorted(coeffs):
            if coeffs[edge] == 0:
                continue
            saved = coeffs[edge]
            coeffs[edge] = 0
            r = rerank_rank_of_support(d, p, coeffs)
            if r < best_rank:
                best_rank = r
                improved = True
            else:
                coeffs[edge] = saved
    return best_rank, dict(coeffs)


def scan_greedy_acyclic_set(out_rows, mask):
    """The greedy acyclic set, each in-neighbourhood found by a scan of ``out_rows``."""
    chosen = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        chosen.append(v)
        mask &= ~(1 << v)
        mask &= ~sum(1 << u for u, row in enumerate(out_rows) if row >> v & 1)
    return tuple(chosen)


def bfs_mas_search(out_rows, mask, budget):
    """Largest acyclic set in ``mask``, each inclusion checked by a BFS.

    The branch and bound as it stood before it carried reachability rows
    and a candidate mask: one index per node, a breadth-first search for
    a cycle through every vertex it includes, the bound count plus the
    vertices not yet decided, and the GF(2)-rank ``cap`` stop.
    """
    vs = [v for v in range(len(out_rows)) if mask >> v & 1]
    k = len(vs)
    cap = gf2_rank([(out_rows[v] | (1 << v)) & mask for v in vs])
    best_size = 0
    best = ()
    members = []
    nodes = 0
    exhausted = False

    def closes_cycle(chosen, v):
        # v rejoins itself through the already-chosen vertices?
        new_mask = chosen | (1 << v)
        seen = 0
        frontier = out_rows[v] & new_mask
        while frontier:
            if (frontier >> v) & 1:
                return True
            seen |= frontier
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= out_rows[low.bit_length() - 1]
                m ^= low
            frontier = nxt & new_mask & ~seen
        return False

    def dfs(idx, chosen, count):
        nonlocal best_size, best, nodes, exhausted
        if best_size == cap:
            return
        nodes += 1
        if nodes > budget:
            exhausted = True
            return
        if count + (k - idx) <= best_size:
            return
        if idx == k:
            return
        v = vs[idx]
        if not closes_cycle(chosen, v):
            members.append(v)
            if count + 1 > best_size:
                best_size = count + 1
                best = tuple(members)
            dfs(idx + 1, chosen | (1 << v), count + 1)
            members.pop()
        if exhausted:
            return
        dfs(idx + 1, chosen, count)

    dfs(0, 0, 0)
    if exhausted:
        fallback = scan_greedy_acyclic_set(out_rows, mask)
        if len(fallback) > best_size:
            best_size, best = len(fallback), fallback
        return MasResult(best_size, best, False)
    return MasResult(best_size, best, True)


def full_support_matrix(d, p):
    """I - A^T over GF(p): row v encodes x_v minus v's in-neighbours' sum."""
    return GfMatrix(
        [
            [
                ((1 if i == j else 0) - (1 if i in d.in_neighbours(j) else 0)) % p
                for i in range(d.n)
            ]
            for j in range(d.n)
        ],
        p,
    )


def identity_plus(d, p=2):
    """I + A over GF(p) for the adjacency matrix A of d."""
    return GfMatrix(
        [
            [(1 if i == j else 0) + (1 if j in d.out_neighbours(i) else 0) for j in range(d.n)]
            for i in range(d.n)
        ],
        p,
    )


def witness_fixed_matrix(d, p, witness):
    """(I + W)^T, whose nullspace the strategy with coefficients -W fixes."""
    return GfMatrix.identity(d.n, p).add(witness).transpose()


def brute_alpha(d, s):
    """Exhaustive maximum independent set of the configuration graph."""
    total = s**d.n
    assert total <= 20
    best = 0
    for mask in range(1 << total):
        codes = [c for c in range(total) if (mask >> c) & 1]
        if len(codes) <= best:
            continue
        if all(
            not brute_adjacent(d, s, a, b)
            for a, b in itertools.combinations(codes, 2)
        ):
            best = len(codes)
    return best


def branch_alpha(d, s):
    """Maximum independent set of the configuration graph by plain
    include/exclude branching over :func:`brute_adjacent`, pruned only
    when the candidates left cannot beat the best set found."""
    total = s**d.n
    later_neighbors = [
        {y for y in range(x + 1, total) if brute_adjacent(d, s, x, y)} for x in range(total)
    ]
    best = 0

    def branch(size, candidates):
        nonlocal best
        if size + len(candidates) <= best:
            return
        if not candidates:
            best = size
            return
        x, rest = candidates[0], candidates[1:]
        branch(size + 1, [y for y in rest if y not in later_neighbors[x]])
        branch(size, rest)

    branch(0, list(range(total)))
    return best


def hamming(x, y, n, s):
    xs, ys = decode(x, n, s), decode(y, n, s)
    return sum(1 for a, b in zip(xs, ys) if a != b)


def brute_code_size(n, d, s):
    """Exhaustive maximum code; s^n <= 16 only."""
    total = s**n
    assert total <= 16
    best = 0
    for mask in range(1 << total):
        words = [w for w in range(total) if (mask >> w) & 1]
        if len(words) <= best:
            continue
        if all(hamming(a, b, n, s) >= d for a, b in itertools.combinations(words, 2)):
            best = len(words)
    return best


def code_of_size_exists(n, d, s, size):
    """Scan every size-subset containing 0 for pairwise distance >= d.

    Translation invariance lets the first codeword be pinned to 0, which
    keeps the scan exhaustive while shrinking it.
    """
    total = s**n
    far = [w for w in range(1, total) if hamming(0, w, n, s) >= d]
    for combo in itertools.combinations(far, size - 1):
        if all(
            hamming(a, b, n, s) >= d for a, b in itertools.combinations(combo, 2)
        ):
            return True
    return False


def greedy_clique_cover_bound(rows, candidates):
    """Greedy partition of the candidates into cliques, rebuilt per call;
    an independent set meets each clique at most once."""
    cliques = 0
    remaining = candidates
    while remaining:
        cliques += 1
        low = remaining & -remaining
        v = low.bit_length() - 1
        remaining ^= low
        grow = remaining & rows[v]
        while grow:
            low = grow & -grow
            u = low.bit_length() - 1
            remaining ^= low
            grow = (grow ^ low) & rows[u]
    return cliques


def reference_max_independent_set(rows, n, bound, seed_mask=0, node_budget=None,
                                  transitive=False):
    """``_search.max_independent_set`` as a plain stack of nodes, under a
    callable ``bound`` from a candidate mask to an upper bound.

    The visit order stated directly: pop a node, count it against the
    budget, record a leaf, prune when ``size + bound(candidates)`` cannot
    beat the best size, else push the exclude branch (not at the root of
    a transitive graph) and then the include branch on the lowest
    candidate, so the include branch is popped first.
    """
    if n == 0:
        return 0, 0, True
    best_size = seed_mask.bit_count() - 1 if seed_mask else 0
    best_mask = seed_mask
    nodes = 0
    exhausted = False
    every = (1 << n) - 1
    root = every if transitive else -1
    stack = [(0, 0, every)]
    while stack:
        size, mask, candidates = stack.pop()
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            exhausted = True
            break
        if not candidates:
            if size > best_size:
                best_size, best_mask = size, mask
            continue
        if size + bound(candidates) <= best_size:
            continue
        low = candidates & -candidates
        if candidates != root:
            stack.append((size, mask, candidates ^ low))
        v = low.bit_length() - 1
        stack.append((size + 1, mask | low, candidates & ~rows[v] & ~low))
    if best_mask == seed_mask and seed_mask:
        best_size = seed_mask.bit_count()
    return best_size, best_mask, not exhausted


def pairwise_lexicode(n, d, s):
    """Greedy lexicographic code, each candidate compared with every
    chosen word; the repetition code beyond s^n = 2^10."""
    total = s**n
    if total > _LEXICODE_CAP:
        # repetition code: s words, pairwise distance n >= d
        return tuple(encode((v,) * n, s) for v in range(s)) if d <= n else (0,)
    chosen = []
    for x in range(total):
        if all(hamming(x, y, n, s) >= d for y in chosen):
            chosen.append(x)
    return tuple(chosen)


def pairwise_a_s_exact(n, d, s):
    """``solvers.a_s_exact`` before its distance graph was translated:
    the graph is built pair by pair over the codes far from 0 (one
    codeword fixed to 0 by translation invariance) and searched under a
    greedy clique cover rebuilt per node, by
    :func:`reference_max_independent_set`."""
    if n < 1 or s < 2:
        raise BadParams("need n >= 1 and s >= 2")
    if d < 1:
        raise BadParams("distance must be >= 1")
    total = s**n
    if d > n:
        return CodeSizeResult(n, d, s, True, 1, 1, (0,), 1, 1)
    singleton = s ** (n - d + 1)
    radius = (d - 1) // 2
    ball = sum(math.comb(n, i) * (s - 1) ** i for i in range(radius + 1))
    sphere = total // ball
    if d == 1:
        return CodeSizeResult(n, d, s, True, total, total, (), singleton, sphere)
    witness = pairwise_lexicode(n, d, s)
    lower = len(witness)
    upper = min(singleton, sphere)
    if lower == upper:
        return CodeSizeResult(n, d, s, True, lower, lower, witness, singleton, sphere)
    if total > DEFAULT_CODE_SEARCH_GUARD:
        return CodeSizeResult(n, d, s, False, None, lower, witness, singleton, sphere)
    allowed = [x for x in range(1, total) if hamming(0, x, n, s) >= d]
    index = {x: i for i, x in enumerate(allowed)}
    rows = [0] * len(allowed)
    for i, x in enumerate(allowed):
        for j in range(i + 1, len(allowed)):
            if hamming(x, allowed[j], n, s) < d:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    seed_mask = 0
    for c in witness:
        if c in index:
            seed_mask |= 1 << index[c]
    size, mask, _ = reference_max_independent_set(
        rows, len(allowed), lambda c: greedy_clique_cover_bound(rows, c),
        seed_mask=seed_mask,
    )
    codewords = [0] + [allowed[i] for i in _mask_to_set(mask)]
    value = size + 1
    return CodeSizeResult(
        n, d, s, True, value, value, tuple(sorted(codewords)), singleton, sphere
    )


def brute_chromatic(rows, n):
    """Exact chromatic number by subset dynamic programming (n <= 12).

    chi(S) = 1 + min over independent subsets I of S containing S's
    lowest vertex of chi(S - I); classic 3^n recurrence.
    """
    assert n <= 12
    full = (1 << n) - 1
    memo = {0: 0}

    def independent_subsets_with_lowest(s_mask):
        low = s_mask & -s_mask
        v = low.bit_length() - 1
        rest = s_mask & ~low & ~rows[v]
        members = []
        m = rest
        while m:
            b = m & -m
            members.append(b)
            m ^= b
        for pick_mask in range(1 << len(members)):
            subset = low
            ok = True
            chosen = [members[i] for i in range(len(members)) if (pick_mask >> i) & 1]
            for i, b in enumerate(chosen):
                u = b.bit_length() - 1
                if rows[u] & subset:
                    ok = False
                    break
                subset |= b
            if ok:
                yield subset

    def chi(s_mask):
        if s_mask in memo:
            return memo[s_mask]
        best = None
        for ind in independent_subsets_with_lowest(s_mask):
            val = 1 + chi(s_mask & ~ind)
            if best is None or val < best:
                best = val
        memo[s_mask] = best
        return best

    return chi(full)


def dsatur_backtrack(rows, n, k, node_budget=None):
    """Backtracking k-colouring in DSATUR order, one set per vertex.

    The plain statement of the visit order ``_search.find_k_coloring``
    keeps: the next vertex has the most distinct neighbour colours, then
    the highest degree, then the lowest index, found by scanning every
    vertex; colours ascend, a new one only after every colour in use.
    Every call to the inner search counts one node against the budget.
    Returns (colouring_or_None, complete).
    """
    colors = [-1] * n
    neighbor_colors = [set() for _ in range(n)]
    degrees = [rows[v].bit_count() for v in range(n)]
    nodes = 0
    exhausted = False

    def search(colored, used):
        nonlocal nodes, exhausted
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            exhausted = True
            return False
        if colored == n:
            return True
        v = max(
            (u for u in range(n) if colors[u] < 0),
            key=lambda u: (len(neighbor_colors[u]), degrees[u], -u),
        )
        for c in range(min(used + 1, k)):
            if c in neighbor_colors[v]:
                continue
            colors[v] = c
            touched = [
                w for w in range(n)
                if rows[v] >> w & 1 and colors[w] < 0 and c not in neighbor_colors[w]
            ]
            for w in touched:
                neighbor_colors[w].add(c)
            if search(colored + 1, max(used, c + 1)):
                return True
            colors[v] = -1
            for w in touched:
                neighbor_colors[w].discard(c)
            if exhausted:
                return False
        return False

    if search(0, 0):
        return list(colors), True
    return None, not exhausted


def set_dsatur(rows, n):
    """Greedy DSATUR with one colour set per vertex and a scan per step.

    The plain statement of ``_search.greedy_dsatur``: each step colours
    the uncoloured vertex with the most distinct neighbour colours, then
    the highest degree, then the lowest index, with the lowest colour
    none of its neighbours has.
    """
    colors = [-1] * n
    neighbor_colors = [set() for _ in range(n)]
    degrees = [rows[v].bit_count() for v in range(n)]
    uncolored = set(range(n))
    while uncolored:
        v = max(uncolored, key=lambda u: (len(neighbor_colors[u]), degrees[u], -u))
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        colors[v] = c
        uncolored.discard(v)
        for w in range(n):
            if rows[v] >> w & 1 and colors[w] < 0:
                neighbor_colors[w].add(c)
    return colors


def scan_coset_coloring(n, s, subgroup_codes):
    """Coset colouring by an ascending scan of Z_s^n.

    The first configuration without a colour gives its whole coset the
    next colour, so the cosets are numbered in the order of their
    smallest codes.
    """
    words = [decode(g, n, s) for g in subgroup_codes]
    colors = [-1] * s**n
    nxt = 0
    for x in range(s**n):
        if colors[x] != -1:
            continue
        xs = decode(x, n, s)
        for g in words:
            colors[encode(tuple((u + v) % s for u, v in zip(xs, g)), s)] = nxt
        nxt += 1
    return colors


def candidate_loop_chromatic(handle, mis_witness=None, node_budget=None,
                             alpha_upper=None):
    """``solvers.chromatic_number`` with its starting colouring chosen by
    the candidate loop.

    The coset colourings of the all-ones seed, then of the witness, are
    each built and checked; a proper one is kept, and the first proper
    one that meets the lower bound ends the list.  When none does,
    greedy DSATUR joins the candidates.  The first candidate with the
    fewest colours seeds ``exact_chromatic``, and the result is checked
    again.
    """
    handle.materialize()
    s, total = handle.s, handle.n_configs
    lower = s**handle.mas.size
    if alpha_upper:
        lower = max(lower, -(-total // alpha_upper))
    independent = [_seed(handle)]
    if mis_witness:
        independent.append(sum(1 << x for x in mis_witness))
    candidates = []
    for mask in independent:
        colors = _coset_coloring(handle, mask)
        if _proper(handle, colors):
            candidates.append(colors)
            if max(colors) + 1 <= lower:
                break
    else:
        candidates.append(_search.greedy_dsatur(handle.rows, total))
    initial = min(candidates, key=lambda c: max(c) + 1)
    chi, coloring, exact = _search.exact_chromatic(
        handle.rows, total, lower, initial, node_budget=node_budget
    )
    if not _proper(handle, coloring):
        raise AssertionError("coloring fails re-verification")
    return ChromaticResult(chi, tuple(coloring), exact)


def brute_span(basis, s):
    """Sorted codes of every combination of the basis vectors mod s."""
    n = len(basis[0]) if basis else 0
    codes = set()
    for combo in itertools.product(range(s), repeat=len(basis)):
        word = [0] * n
        for coeff, vec in zip(combo, basis):
            word = [(w + coeff * e) % s for w, e in zip(word, vec)]
        codes.add(encode(tuple(word), s))
    return tuple(sorted(codes))


def brute_is_subgroup(codes, n, s):
    """Closure check: 0 is a member and every pairwise sum mod s is too.

    In a finite group a nonempty subset closed under addition is a
    subgroup, so this decides subgroup membership without a size cap.
    """
    members = set(codes)
    if 0 not in members:
        return False
    words = [decode(c, n, s) for c in members]
    return all(
        encode(tuple((u + v) % s for u, v in zip(a, b)), s) in members
        for a in words
        for b in words
    )


def random_digraph(rng, n, p=0.4):
    edges = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < p
    ]
    return Digraph(n, edges)


def all_digraphs(n):
    """Every digraph on n vertices (2^(n(n-1)) of them)."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for mask in range(1 << len(pairs)):
        yield Digraph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])


def digraphs_up_to_isomorphism(n):
    """One digraph on n vertices from each isomorphism class, the first
    of :func:`all_digraphs` in its class."""
    perms = list(itertools.permutations(range(n)))
    seen = set()
    for d in all_digraphs(n):
        forms = [tuple(sorted((p[u], p[v]) for u, v in d.edges())) for p in perms]
        if min(forms) not in seen:
            seen.update(forms)
            yield d


# Product adjacency rules for configuration graphs, straight from the
# definitions of the three graph products.


def co_normal_adjacent(a1, a2):
    return a1 or a2


def lexicographic_adjacent(a1, eq1, a2):
    return a1 or (eq1 and a2)


def cartesian_adjacent(a1, eq1, a2, eq2):
    return (eq1 and a2) or (eq2 and a1)


# GF(4) arithmetic for the distance-3 evaluation-code fixture.

GF4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)


def gf4_evaluation_code():
    """All (a + b*z) evaluated at the four field points: 16 words, distance 3."""
    words = []
    for a in range(4):
        for b in range(4):
            word = tuple(a ^ GF4_MUL[b][point] for point in range(4))
            words.append(encode(word, 4))
    return words


def simulate_instance(instance, functions, s, source_word):
    """Run a certificate's coding functions over one input assignment.

    ``functions`` maps node name -> (input names, table); sources carry
    their own symbol.  Returns the tuple of sink outputs.
    """
    values = dict(zip(instance.sources, source_word))
    order = list(instance.intermediates) + list(instance.sinks)
    resolved = set(instance.sources)
    pending = [n for n in order]
    while pending:
        progressed = False
        for name in list(pending):
            inputs, table = functions[name]
            if all(i in values or i in resolved for i in inputs):
                idx = 0
                for sym in reversed([values[i] for i in inputs]):
                    idx = idx * s + sym
                values[name] = table[idx]
                pending.remove(name)
                progressed = True
        if not progressed:
            raise AssertionError("certificate functions are not evaluable")
    return tuple(values[t] for t in instance.sinks)
