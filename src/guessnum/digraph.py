"""Simple directed graphs and the combinators used throughout the toolkit.

Vertices are dense integers ``0..n-1``.  A digraph is its out- and
in-bit rows, one int per vertex, and is immutable once constructed; every
combinator returns a fresh object.  Bidirectional edges are allowed, loops
are not, and repeated edges collapse.

Index conventions used by the combinators (cross-module tests rely on
them):

* ``union``: the first operand keeps ids ``0..n1-1``, the second is
  shifted by ``n1``.
* ``strong_product``: vertex ``(u1, u2)`` has id ``u1*n2 + u2``.
* ``k_expand``: copy ``i`` of vertex ``v`` has id ``v*k + i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import _search
from .errors import BadParams, LoopEdge, VertexOutOfRange

DEFAULT_MAS_BUDGET = 1 << 25
DEFAULT_PARTITION_BUDGET = 1 << 22


class Digraph:
    """Immutable simple digraph stored as its out- and in-bit rows: bit v
    of ``out_rows()[u]`` and bit u of ``in_rows()[v]`` are set exactly
    when u -> v is an edge."""

    __slots__ = ("n", "_out_rows", "_in_rows")

    def __init__(self, n, edges=()):
        if n < 0:
            raise BadParams("vertex count must be non-negative")
        out_rows = [0] * n
        in_rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise LoopEdge(f"loop at vertex {u} rejected")
            out_rows[u] |= 1 << v
            in_rows[v] |= 1 << u
        self.n = n
        self._out_rows = tuple(out_rows)
        self._in_rows = tuple(in_rows)

    # -- basic queries -------------------------------------------------

    def edges(self):
        """Sorted list of all edges as (u, v) pairs."""
        return [(u, v) for u, row in enumerate(self._out_rows) for v in _bits(row)]

    def edge_count(self):
        return sum(row.bit_count() for row in self._out_rows)

    def has_edge(self, u, v):
        return self._out_rows[u] >> v & 1 == 1

    def in_degree(self, v):
        return self._in_rows[v].bit_count()

    def out_degree(self, v):
        return self._out_rows[v].bit_count()

    def out_rows(self):
        """Out-adjacency as one bitmask int per vertex (a shared tuple)."""
        return self._out_rows

    def in_rows(self):
        return self._in_rows

    def out_neighbours(self, v):
        """The out-neighbours of ``v``, ascending."""
        return _bits(self._out_rows[v])

    def in_neighbours(self, v):
        """The in-neighbours of ``v``, ascending."""
        return _bits(self._in_rows[v])

    def bidirectional_pairs(self):
        """Unordered pairs joined by edges in both directions."""
        return [
            (u, v)
            for u, (row, back) in enumerate(zip(self._out_rows, self._in_rows))
            for v in _bits(row & back)
            if u < v
        ]

    def __eq__(self, other):
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self._out_rows == other._out_rows
        )

    def __hash__(self):
        return hash((self.n, self._out_rows))

    def __repr__(self):
        return f"Digraph(n={self.n}, edges={self.edge_count()})"


def _bits(mask):
    """The set bits of ``mask`` as an ascending tuple of positions."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def from_edge_list(n, edges):
    """Build a digraph from an explicit edge list, collapsing duplicates."""
    return Digraph(n, edges)


# -- standard families ------------------------------------------------


def clique(n):
    """Complete digraph K_n: every pair joined in both directions."""
    if n < 1:
        raise BadParams("clique needs n >= 1")
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def cycle(n):
    """Directed cycle C_n with edges v_i -> v_{i+1 mod n}."""
    if n < 2:
        raise BadParams("cycle needs n >= 2")
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    """Directed path P_n with edges v_i -> v_{i+1}."""
    if n < 1:
        raise BadParams("path needs n >= 1")
    return Digraph(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(m, n):
    """All edges in both directions between the two parts, none within."""
    if m < 1 or n < 1:
        raise BadParams("complete_bipartite needs both part sizes >= 1")
    edges = []
    for u in range(m):
        for v in range(m, m + n):
            edges.append((u, v))
            edges.append((v, u))
    return Digraph(m + n, edges)


def standard(kind, *sizes):
    """Dispatch to a standard family by name."""
    builders = {
        "clique": clique,
        "cycle": cycle,
        "path": path,
        "complete_bipartite": complete_bipartite,
    }
    if kind not in builders:
        raise BadParams(f"unknown standard family {kind!r}")
    return builders[kind](*sizes)


# -- structure --------------------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    min_in_degree: int
    max_in_degree: int
    regular_in_out: bool
    bidirectional_edge_count: int
    is_tournament: bool
    girth: int | None  # None means acyclic
    strong: bool
    component_count: int

    @property
    def acyclic(self):
        return self.girth is None


@dataclass(frozen=True)
class SccResult:
    components: tuple  # tuples of vertex ids, reverse topological order
    condensation: "Digraph"
    component_of: tuple  # vertex id -> component index


def rotation_invariant(out_rows):
    """True when v -> v + 1 mod n maps the digraph onto itself.

    ``out_rows`` holds each vertex's out-neighbours as a bit row.  The
    rotation maps the edge u -> w onto u + 1 -> w + 1, so the digraph is
    invariant exactly when every row is the one before it rotated up by
    one bit (n rotations are the identity, so the last row needs no
    check against the first).  The scan stops at the first mismatch,
    which on most digraphs that are not circulants is vertex 1.
    """
    n = len(out_rows)
    every = (1 << n) - 1
    for v in range(1, n):
        row = out_rows[v - 1]
        if out_rows[v] != (row << 1) & every | row >> (n - 1):
            return False
    return True


def _row_union(rows, mask):
    """The OR of the bit rows of the vertices in the bit mask ``mask``."""
    union = 0
    while mask:
        low = mask & -mask
        mask ^= low
        union |= rows[low.bit_length() - 1]
    return union


def strong_components(d):
    """Strongly connected components plus the (acyclic) condensation.

    Components come out in reverse topological order of the condensation:
    every condensation edge points from a higher component index to a
    lower one.

    Tarjan's search on bit rows.  The depth-first walk enters the lowest
    out-neighbour not yet visited.  Each frame keeps its vertex, the mask
    of vertices opened (entered and in no component yet) before it, and
    the OR of the out-rows of its subtree, less the subtrees that rooted
    components of their own.  A finished vertex roots a component
    exactly when that OR misses every vertex opened before it (Tarjan's
    lowlink equals its index); the component is then every vertex opened
    since.  Otherwise its parent ORs it into its own.

    On a :func:`rotation_invariant` digraph (a circulant) the result is
    read off vertex 0.  Its edges are v -> v + j for the shifts j of
    vertex 0, so the vertices reachable from 0 are the subgroup of Z_n
    those shifts generate, the multiples of g = gcd(n, shifts), and the
    other weak components are its rotations, the residue classes mod g.
    Every vertex has in-degree equal to out-degree, so each weak
    component is strong and the condensation has no edge.  Tarjan's
    search meets the classes in the order of their lowest vertices,
    0..g-1, which is the order given here.
    """
    n = d.n
    out_rows = d.out_rows()
    if rotation_invariant(out_rows):
        g = gcd(n, *_bits(out_rows[0])) if n else 0
        return SccResult(
            tuple([tuple(range(i, n, g)) for i in range(g)]),
            Digraph(g),
            tuple([v % g for v in range(n)]),
        )
    every = (1 << n) - 1
    visited = opened = 0
    work = []  # frames [vertex, opened before it, OR of its subtree's out-rows]
    comps = []
    comp_of = [0] * n
    cond_edges = set()
    while work or visited != every:
        fresh = (out_rows[work[-1][0]] if work else every) & ~visited
        if fresh:
            low = fresh & -fresh
            v = low.bit_length() - 1
            work.append([v, opened, out_rows[v]])
            visited |= low
            opened |= low
            continue
        _, before, reach = work.pop()
        if reach & before:
            work[-1][2] |= reach
            continue
        comp = opened ^ before
        opened = before
        members = _bits(comp)
        for w in members:
            comp_of[w] = len(comps)
        # the rest of the reach lies in components already emitted
        for w in _bits(reach & ~comp):
            cond_edges.add((len(comps), comp_of[w]))
        comps.append(members)
    return SccResult(tuple(comps), Digraph(len(comps), cond_edges), tuple(comp_of))


def girth(d):
    """Length of a shortest directed cycle, or None if acyclic.

    From each start v a walk over layers of bit rows: layer k holds the
    vertices at distance k from v, and the shortest cycle through v has
    length k + 1 for the first k whose layer has an edge back to v.  A
    walk stops once no cycle shorter than the best so far can close, and
    the whole search stops at 2.  On a :func:`rotation_invariant` digraph
    every vertex is a rotation of vertex 0, so its walk alone suffices.
    """
    out_rows = d.out_rows()
    starts = range(d.n)
    if rotation_invariant(out_rows):
        starts = starts[:1]
    best = d.n + 1  # longer than any cycle
    for v in starts:
        seen = frontier = 1 << v
        length = 1  # the cycles this layer's rows can close
        while frontier and length < best:
            grow = _row_union(out_rows, frontier)
            if grow >> v & 1:
                best = length
                break
            frontier = grow & ~seen
            seen |= grow
            length += 1
        if best == 2:
            break
    return best if best <= d.n else None


def is_acyclic(d):
    return topological_order(d.out_rows(), (1 << d.n) - 1) is not None


def topological_order(out_rows, mask):
    """The vertices of the bit mask ``mask``, each after its in-neighbours
    among them, or None when they induce a directed cycle.

    ``out_rows`` holds each vertex's out-neighbours as a bit row.  Kahn's
    algorithm in rounds: each round emits, in ascending order, every
    vertex left in ``mask`` that no vertex left points to, and drops
    them; a round that finds none has met a cycle.  A round costs one OR
    per vertex left, so the whole costs O(n) per level of the order.
    """
    order = []
    while mask:
        ready = mask & ~_row_union(out_rows, mask)
        if not ready:
            return None
        mask ^= ready
        order += _bits(ready)
    return order


def reachable(rows, frontier, within=-1):
    """The bit mask ``frontier`` and every vertex of ``within`` that a
    path along the bit rows ``rows`` reaches from it through vertices of
    ``within`` only.

    A frontier walk: every vertex of the frontier is expanded at once,
    and the new vertices of ``within`` among those rows form the next
    frontier.
    """
    seen = frontier
    while frontier:
        frontier = _row_union(rows, frontier) & within & ~seen
        seen |= frontier
    return seen


def weak_components(linked):
    """Components of the symmetric relation whose bit rows are ``linked``
    (each vertex's in- and out-neighbours for a digraph's weak
    components), as vertex masks, lowest vertex first."""
    comps = []
    rest = (1 << len(linked)) - 1
    while rest:
        comp = reachable(linked, rest & -rest)
        comps.append(comp)
        rest ^= comp
    return comps


def structure_report(d, scc=None):
    """Degree, cycle and component facts of ``d``; ``scc``, when given, is
    its :func:`strong_components`, which is then not recomputed."""
    n = d.n
    in_degs = [d.in_degree(v) for v in range(n)]
    out_degs = [d.out_degree(v) for v in range(n)]
    bidir = sum((o & i).bit_count() for o, i in zip(d.out_rows(), d.in_rows())) // 2
    m = d.edge_count()
    tournament = n >= 1 and bidir == 0 and m == n * (n - 1) // 2
    if scc is None:
        scc = strong_components(d)
    comp_count = len(scc.components)
    regular = (
        n > 0
        and len(set(in_degs)) == 1
        and len(set(out_degs)) == 1
        and in_degs[0] == out_degs[0]
    )
    return StructureReport(
        min_in_degree=min(in_degs, default=0),
        max_in_degree=max(in_degs, default=0),
        regular_in_out=regular,
        bidirectional_edge_count=bidir,
        is_tournament=tournament,
        girth=girth(d),
        strong=(comp_count == 1 and n >= 1),
        component_count=comp_count,
    )


def induced_subdigraph(d, vertices):
    """Subgraph induced by ``vertices``; returns (digraph, sorted ids)."""
    vs = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(vs)}
    edges = [
        (pos[u], pos[v]) for u in vs for v in d.out_neighbours(u) if v in pos
    ]
    return Digraph(len(vs), edges), tuple(vs)


# -- maximum induced acyclic subgraph ---------------------------------


@dataclass(frozen=True)
class MasResult:
    size: int
    witness: tuple
    exact: bool


def gf2_rank(rows):
    """Rank over GF(2) of a matrix given as one int bit row per row."""
    pivots = []
    for row in rows:
        for prow in pivots:
            if row & prow & -prow:
                row ^= prow
        if row:
            pivots.append(row)
    return len(pivots)


def _greedy_acyclic_set(in_rows, mask):
    # Pick ascending ids, discarding each pick's in-neighbourhood; edges
    # inside the result then all point forward, so it induces an acyclic
    # subgraph of size >= |mask|/(max in-degree + 1).
    chosen = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        chosen.append(v)
        mask &= ~(in_rows[v] | 1 << v)
    return tuple(chosen)


def mas_exact(d, budget=DEFAULT_MAS_BUDGET):
    """Largest vertex set inducing an acyclic subgraph.

    The search of :func:`_mas_search` on the mask of every vertex:
    within budget the result is exact and the witness is the
    lexicographically smallest optimum; once the budget is exhausted the
    best set found so far is returned with ``exact=False`` (still a
    valid acyclic witness).  On a :func:`rotation_invariant` digraph
    the search skips the sets without vertex 0.
    """
    out_rows = d.out_rows()
    transitive = rotation_invariant(out_rows)
    return _mas_search(out_rows, (1 << d.n) - 1, budget, transitive)


def _mas_search(out_rows, mask, budget, transitive=False):
    """Largest acyclic set among the vertices in the bit mask ``mask``.

    ``out_rows`` holds each vertex's out-neighbours as a bit row.  Branch
    and bound over subsets of ``mask`` in ascending vertex order,
    including a vertex before excluding it, so the result equals
    :func:`mas_exact` on the induced subdigraph with its witness mapped
    back to the original ids.

    Each node carries a candidate mask: the later vertices that can join
    the chosen set without closing a directed cycle.  A vertex that
    closes a cycle with the chosen set closes one with every superset,
    so it leaves the candidates of the whole subtree, and a node is cut
    once count + |candidates| cannot beat the best set so far.  Every
    chosen vertex keeps a reachability row: the out-neighbours of the
    chosen vertices it reaches (itself included), that is, every vertex
    it reaches through chosen ones.  Adding v, its row joins its out-row
    to the rows of its chosen out-neighbours, and every chosen vertex
    whose row holds v joins v's row.  A candidate then closes a cycle
    exactly when v reaches it and it has an out-neighbour among v and
    the chosen vertices that reach v.  The rows are copied on the way
    down, so backtracking restores them.

    The search stops as soon as it reaches the GF(2) rank of the
    principal block of I + A on ``mask``: the rows of that block indexed
    by an acyclic set are independent (their principal block is
    unitriangular in topological order), so no acyclic set is larger.
    The first set of that size in search order is still the
    lexicographically smallest optimum.  ``budget`` caps the nodes, one
    per inclusion; once it runs out the greedy set is returned if it is
    larger.

    ``transitive`` states that ``mask`` holds every vertex and that the
    automorphisms of the digraph move vertex 0 onto each of them.  Then
    moving any optimum so that one of its members lands on 0 gives an
    optimum that contains 0, so the lexicographically smallest optimum
    contains 0: once the subtree that includes vertex 0 is done, the
    root's other branches are skipped.
    """
    n = len(out_rows)
    in_rows = [0] * n
    for u, row in enumerate(out_rows):
        while row:
            low = row & -row
            in_rows[low.bit_length() - 1] |= 1 << u
            row ^= low
    cap = gf2_rank(
        [(out_rows[v] | (1 << v)) & mask for v in range(n) if mask >> v & 1]
    )
    best_size = 0
    best = ()
    members = []
    nodes = 0
    exhausted = False
    # the root, then one frame per member: [candidates left, chosen mask,
    # reach rows]; a frame includes each candidate in turn, ascending,
    # and excluding it is the frame's next turn
    frames = [[mask, 0, [0] * n]]
    while frames:
        frame = frames[-1]
        candidates, chosen, beyond = frame
        count = len(members)
        if not count + candidates.bit_count() > best_size < cap:
            frames.pop()
            if count:
                members.pop()
            if transitive and count == 1:
                break  # the root gets no second turn
            continue
        nodes += 1
        if nodes > budget:
            exhausted = True
            break
        low = candidates & -candidates
        candidates ^= low
        frame[0] = candidates
        v = low.bit_length() - 1
        ahead = out_rows[v]  # one edge past every chosen vertex v reaches
        m = ahead & chosen
        while m:
            b = m & -m
            ahead |= beyond[b.bit_length() - 1]
            m ^= b
        grown = list(beyond)
        grown[v] = ahead
        behind = in_rows[v]  # one edge before every chosen vertex reaching v
        if behind & chosen:
            for u in members:
                if beyond[u] & low:
                    grown[u] = beyond[u] | ahead
                    behind |= in_rows[u]
        members.append(v)
        if count + 1 > best_size:
            best_size = count + 1
            best = tuple(members)
        frames.append([candidates & ~(ahead & behind), chosen | low, grown])

    if exhausted:
        fallback = _greedy_acyclic_set(in_rows, mask)
        if len(fallback) > best_size:
            best_size, best = len(fallback), fallback
        return MasResult(best_size, best, False)
    return MasResult(best_size, best, True)


# -- clique partition -------------------------------------------------


@dataclass(frozen=True)
class CliquePartitionResult:
    count: int
    parts: tuple
    exact: bool


def clique_partition_number(d):
    """Minimum number of bidirectionally-complete classes covering V.

    Equals the chromatic number of the complement of the bidirectional
    graph.  Budget exhaustion degrades to an upper bound (flagged).
    """
    n = d.n
    if n == 0:
        return CliquePartitionResult(0, (), True)
    full = (1 << n) - 1
    comp_rows = [
        full & ~(out_row & in_row) & ~(1 << v)
        for v, (out_row, in_row) in enumerate(zip(d.out_rows(), d.in_rows()))
    ]
    greedy = _search.greedy_dsatur(comp_rows, n)
    lower = _search.max_clique_size_lower(comp_rows, n)
    count, coloring, exact = _search.exact_chromatic(
        comp_rows, n, lower, greedy, node_budget=DEFAULT_PARTITION_BUDGET
    )
    parts = [[] for _ in range(count)]
    for v, c in enumerate(coloring):
        parts[c].append(v)
    parts = tuple([tuple(p) for p in sorted(parts)])
    return CliquePartitionResult(count, parts, exact)


# -- unions, products, expansions -------------------------------------


def disjoint_union(d1, d2):
    """Place the two digraphs next to each other without new edges."""
    n1 = d1.n
    edges = d1.edges() + [(u + n1, v + n1) for u, v in d2.edges()]
    return Digraph(n1 + d2.n, edges)


def unidirectional_union(d1, d2):
    """Disjoint union plus every edge from the first part to the second."""
    n1, n2 = d1.n, d2.n
    out = disjoint_union(d1, d2)
    edges = out.edges()
    edges += [(u, v + n1) for u in range(n1) for v in range(n2)]
    return Digraph(n1 + n2, edges)


def bidirectional_union(d1, d2):
    """Disjoint union plus all cross edges in both directions."""
    n1, n2 = d1.n, d2.n
    edges = disjoint_union(d1, d2).edges()
    for u in range(n1):
        for v in range(n2):
            edges.append((u, v + n1))
            edges.append((v + n1, u))
    return Digraph(n1 + n2, edges)


def union(kind, d1, d2):
    builders = {
        "disjoint": disjoint_union,
        "unidirectional": unidirectional_union,
        "bidirectional": bidirectional_union,
    }
    if kind not in builders:
        raise BadParams(f"unknown union kind {kind!r}")
    return builders[kind](d1, d2)


def strong_product(d1, d2):
    """Product where a coordinate may either stay put or follow an edge.

    Vertex (u1, u2) has id u1*n2 + u2.  Construction is cross-checked
    against the equivalent reflexive-adjacency product rule.
    """
    n1, n2 = d1.n, d2.n
    edges = []
    for u1 in range(n1):
        for u2 in range(n2):
            src = u1 * n2 + u2
            for v2 in d2.out_neighbours(u2):
                edges.append((src, u1 * n2 + v2))
            for v1 in d1.out_neighbours(u1):
                edges.append((src, v1 * n2 + u2))
                for v2 in d2.out_neighbours(u2):
                    edges.append((src, v1 * n2 + v2))
    prod = Digraph(n1 * n2, edges)
    if n1 * n2 <= 128:
        for u1 in range(n1):
            for u2 in range(n2):
                for v1 in range(n1):
                    for v2 in range(n2):
                        expect = (
                            (v1 == u1 or d1.has_edge(u1, v1))
                            and (v2 == u2 or d2.has_edge(u2, v2))
                            and not (v1 == u1 and v2 == u2)
                        )
                        got = prod.has_edge(u1 * n2 + u2, v1 * n2 + v2)
                        if got != expect:
                            raise AssertionError("strong product rule violated")
    return prod


def k_expand(d, k):
    """k interlinked copies: ((u,i),(v,j)) is an edge iff (u,v) is one."""
    if k < 1:
        raise BadParams("k_expand needs k >= 1")
    edges = []
    for u, v in d.edges():
        for i in range(k):
            for j in range(k):
                edges.append((u * k + i, v * k + j))
    return Digraph(d.n * k, edges)


def cycle_power_ring(cycle_len, power, copies):
    """Disjoint copies of a strong power of a cycle, tied into a ring.

    Builds ``copies`` copies of cycle(cycle_len) raised to ``power`` under
    the strong product, then adds one edge per copy from its numerically
    last vertex to the numerically first vertex of the next copy (wrapping
    around).  Successive vertices inside a copy are already joined by the
    power construction, so the added edges close a single ring through all
    vertices and the result is strong.

    CLI alias: ``thm3``.
    """
    if cycle_len < 3 or power < 1 or copies < 1:
        raise BadParams("cycle_power_ring needs cycle_len >= 3, power >= 1, copies >= 1")
    block = cycle(cycle_len)
    for _ in range(power - 1):
        block = strong_product(block, cycle(cycle_len))
    size = block.n
    for i in range(size):
        if not block.has_edge(i, (i + 1) % size):
            raise AssertionError("cycle power lost its successor edges")
    edges = []
    for a in range(copies):
        base = a * size
        edges += [(base + u, base + v) for u, v in block.edges()]
        edges.append((base + size - 1, ((a + 1) % copies) * size))
    return Digraph(copies * size, edges)


# -- text and DOT formats ---------------------------------------------


def to_text(d):
    lines = [str(d.n)]
    lines += [f"{u} {v}" for u, v in d.edges()]
    return "\n".join(lines) + "\n"


def from_text(text):
    """Parse the digraph text format: first line n, then 'u v' lines.

    Lines starting with '#' are comments; duplicate edges collapse.
    """
    n = None
    edges = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != (1 if n is None else 2):
            raise BadParams(f"malformed line {raw!r}")
        try:
            numbers = [int(p) for p in parts]
        except ValueError:
            raise BadParams(f"malformed number in line {raw!r}") from None
        if n is None:
            n = numbers[0]
        else:
            edges.append(tuple(numbers))
    if n is None:
        raise BadParams("empty digraph file")
    return Digraph(n, edges)


def write_digraph(d, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_text(d))


def read_digraph(path):
    with open(path, "r", encoding="utf-8") as fh:
        return from_text(fh.read())


def to_dot(d, name="D"):
    """DOT export; a bidirectional pair becomes one edge with dir=both."""
    lines = [f"digraph {name} {{"]
    for u, v in d.edges():
        if not d.has_edge(v, u):
            lines.append(f"  {u} -> {v};")
        elif u < v:
            lines.append(f"  {u} -> {v} [dir=both];")
    lines.append("}")
    return "\n".join(lines) + "\n"
