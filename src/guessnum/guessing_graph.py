"""The configuration graph of a digraph over a finite alphabet.

A configuration assigns one symbol from ``[s] = {0..s-1}`` to every
vertex and travels across module boundaries as a mixed-radix integer
code ``sum(x_i * s**i)`` (coordinate 0 least significant).  Two
configurations are adjacent when some vertex sees identical
in-neighbourhood values in both but holds different symbols, i.e. no
single strategy of local guessing functions can fix both.

The graph is available lazily through an adjacency oracle and eagerly
through :func:`materialize`, which stores one neighbour bitmask per
configuration.
"""

from __future__ import annotations

from functools import cached_property

from . import digraph as dg
from .errors import AlphabetMismatch, BadParams, SizeGuard

DEFAULT_GUARD = 1 << 22
_DEGREE_NODE_CAP = 1 << 22  # walk nodes of degree_closed_form, over all components


def encode(symbols, s):
    """Mixed-radix code of a symbol word (coordinate 0 least significant)."""
    code = 0
    for x in reversed(symbols):
        if not 0 <= x < s:
            raise AlphabetMismatch(f"symbol {x} outside alphabet of size {s}")
        code = code * s + x
    return code


def decode(code, n, s):
    """Inverse of :func:`encode` for words of length n."""
    if not 0 <= code < s**n:
        raise AlphabetMismatch(f"code {code} outside [0, {s}^{n})")
    out = []
    for _ in range(n):
        code, r = divmod(code, s)
        out.append(r)
    return tuple(out)


def coordinate_masks(n, s):
    """``E[j][a]``: the bitmask of the codes whose coordinate j equals a.

    Coordinate j is constant on runs of s^j consecutive codes and
    cycles through [s] with period s^(j+1), so ``E[j][a]`` is one run
    of s^j ones at offset a * s^j, tiled with that period.
    """
    every_bit = (1 << s**n) - 1
    masks = []
    for j in range(n):
        block = s**j
        zero = ((1 << block) - 1) * (every_bit // ((1 << block * s) - 1))
        masks.append([zero << a * block for a in range(s)])
    return masks


def _translated_rows(zero_row, n, s, masks):
    """Rows of a Cayley graph on Z_s^n: row x is ``zero_row`` translated by x.

    Translating a row by the unit vector e_i, with block = s^i, rotates
    the bit blocks inside each period s^(i+1): the lower s-1 blocks
    move up by one block and the top block wraps round to the bottom,
    read through the :func:`coordinate_masks` ``masks`` of n and s.
    Rows are filled coordinate by coordinate from ``rows[x + block] =
    rows[x] + e_i`` for every x whose coordinate i is below s-1, one
    code path for every alphabet.
    """
    total = s**n
    rows = [0] * total
    rows[0] = zero_row
    every_bit = (1 << total) - 1
    for i in range(n):
        block = s**i
        wrap = (s - 1) * block
        high = masks[i][s - 1]
        low = every_bit ^ high
        for x in range(wrap):
            r = rows[x]
            rows[x + block] = ((r & low) << block) | ((r & high) >> wrap)
    return rows


class GuessingGraph:
    """Handle on the configuration graph of ``digraph`` over ``[s]``.

    It holds the facts the solvers read, each computed on first use: the
    coordinate masks, a maximum acyclic set, the adjacency rows and the
    all-ones strategy's fixed space (``seed``, filled in by the solvers).
    ``guard`` caps the configuration count of neighbour sets, the degree
    and materialization; the ``adjacent`` oracle works at any size.
    """

    def __init__(self, digraph, s, guard=DEFAULT_GUARD):
        if s < 2:
            raise BadParams("alphabet size must be at least 2")
        self.digraph = digraph
        self.s = s
        self.n = digraph.n
        self.n_configs = s**digraph.n
        self.guard = guard
        self.rows = None
        self.seed = None

    @cached_property
    def masks(self):
        """:func:`coordinate_masks` of the handle's n and s."""
        return coordinate_masks(self.n, self.s)

    @cached_property
    def mas(self):
        """:func:`digraph.mas_exact` of the handle's digraph."""
        return dg.mas_exact(self.digraph)

    def _within_guard(self, needs):
        if self.n_configs > self.guard:
            raise SizeGuard(f"{needs} configurations (> guard {self.guard})",
                            needed=self.n_configs, guard=self.guard)

    # -- oracle --------------------------------------------------------

    def _check(self, code):
        if not 0 <= code < self.n_configs:
            raise AlphabetMismatch(
                f"code {code} outside [0, {self.s}^{self.n})"
            )

    def adjacent(self, x, y):
        """True iff some vertex agrees on its in-neighbourhood but not itself."""
        self._check(x)
        self._check(y)
        if x == y:
            return False
        xs = decode(x, self.n, self.s)
        ys = decode(y, self.n, self.s)
        for i in range(self.n):
            if xs[i] == ys[i]:
                continue
            if all(xs[j] == ys[j] for j in self.digraph.in_neighbours(i)):
                return True
        return False

    def _row(self, x):
        """Neighbour bitmask of a configuration code (guarded)."""
        self._check(x)
        self._within_guard(f"neighbour enumeration needs {self.s}^{self.n}")
        if self.rows is not None:
            return self.rows[x]
        # y is a neighbour when, for some vertex i, y agrees with x on
        # every in-neighbour of i but differs from x at i itself
        xs = decode(x, self.n, self.s)
        masks = self.masks
        every_bit = (1 << self.n_configs) - 1
        row = 0
        for i in range(self.n):
            agree = every_bit
            for j in self.digraph.in_neighbours(i):
                agree &= masks[j][xs[j]]
            row |= agree & ~masks[i][xs[i]]
        return row

    def neighbors(self, x):
        """Exact neighbour set of a configuration code."""
        return _mask_to_set(self._row(x))

    def zero_neighbors(self):
        """Neighbours of the zero configuration, in ascending order."""
        return tuple(sorted(self.neighbors(0)))

    def degree(self):
        """Common degree (the graph is regular by translation)."""
        return self._row(0).bit_count()

    # -- materialization ----------------------------------------------

    def materialize(self):
        """Build explicit adjacency rows: :func:`_translated_rows` of the
        zero row (guarded)."""
        if self.rows is not None:
            return self
        self._within_guard(f"materialization needs {self.s}^{self.n} = {self.n_configs}")
        self.rows = _translated_rows(self._row(0), self.n, self.s, self.masks)
        return self

    @property
    def materialized(self):
        return self.rows is not None


def _mask_to_set(mask):
    return set(dg._bits(mask))


def materialize(digraph, s, guard=DEFAULT_GUARD):
    return GuessingGraph(digraph, s, guard).materialize()


def degree_closed_form(digraph, s):
    """Degree of the configuration graph without touching configurations.

    A configuration is 0 or a non-neighbour of 0 exactly when its support
    T is closed: every member of T has an in-neighbour in T.  So there
    are sum over closed T of (s-1)^|T| of them.  Closedness splits over
    the weak components (:func:`digraph.weak_components`), so the degree
    is s^n minus the product of the components' counts N_c.  Each N_c
    comes from the cheaper side: the closed sets themselves
    (:func:`_closed_count`) when every vertex of the component has at
    most one in-neighbour, inclusion-exclusion over its independent sets
    (:func:`_independent_count`) otherwise.  Both walks count their
    nodes against the one ``_DEGREE_NODE_CAP``.  On a
    :func:`digraph.rotation_invariant` digraph the rotations act
    transitively on each weak component, so inclusion-exclusion walks
    only the sets that contain the component's lowest vertex.
    """
    n = digraph.n
    in_rows = digraph.in_rows()
    out_rows = digraph.out_rows()
    transitive = dg.rotation_invariant(out_rows)
    linked = [in_rows[v] | out_rows[v] for v in range(n)]
    non_neighbours = 1
    visited = 0
    for comp in dg.weak_components(linked):
        if all(in_rows[v] & (in_rows[v] - 1) == 0 for v in _mask_to_set(comp)):
            count, visited = _closed_count(comp, in_rows, out_rows, s, visited)
        else:
            count, visited = _independent_count(
                comp, in_rows, linked, s, visited, transitive)
        non_neighbours *= count
    return s**n - non_neighbours


def _count_node(visited):
    visited += 1
    if visited > _DEGREE_NODE_CAP:
        raise SizeGuard("degree walk exceeded its node cap",
                        needed=visited, guard=_DEGREE_NODE_CAP)
    return visited


def _closed_count(comp, in_rows, out_rows, s, visited):
    """N_c of a weak component whose vertices have at most one in-neighbour.

    With a vertex of in-degree 0 the component is an out-tree, and only
    the empty set is closed.  Otherwise it is one directed cycle C with
    out-trees hanging from it.  Every nonempty closed set holds C and the
    in-neighbour of each of its members.  The walk grows those sets from
    C, one node per set: a vertex becomes allowed when its in-neighbour
    joins, and leaves ``allowed`` for good once it has been tried, so no
    set is reached twice.
    """
    vertices = _mask_to_set(comp)
    if any(in_rows[v] == 0 for v in vertices):
        return 1, visited
    v = min(vertices)
    for _ in vertices:  # step back onto the cycle
        v = in_rows[v].bit_length() - 1
    cycle = 0
    while not cycle >> v & 1:
        cycle |= 1 << v
        v = in_rows[v].bit_length() - 1
    hanging = 0
    for v in _mask_to_set(cycle):
        hanging |= out_rows[v]
    hanging &= ~cycle
    power = [1]
    for _ in vertices:
        power.append(power[-1] * (s - 1))
    size = cycle.bit_count()
    visited = _count_node(visited)
    count = 1 + power[size]
    stack = [(hanging, size + 1)] if hanging else []
    while stack:
        allowed, size = stack.pop()
        term = power[size]
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            v = low.bit_length() - 1
            visited = _count_node(visited)
            count += term
            if allowed | out_rows[v]:
                stack.append((allowed | out_rows[v], size + 1))
    return count, visited


def _independent_count(comp, in_rows, linked, s, visited, transitive=False):
    """N_c of a weak component by inclusion-exclusion over its independent sets.

    Each independent set I (no edge between members in either direction)
    contributes (-1)^(|I|-1) * (s-1)^|I| * s^(n_c - |in_nbhd(I)| - |I|)
    to the component's degree s^n_c - N_c.  Each set is built in
    ascending order and extended by the vertices of an ``allowed`` bit
    mask: those above its last member and outside every member's closed
    neighbourhood.  The terms depend only on |I| and |in_nbhd(I)|, so
    the walk tallies the sets per (|I|, |in_nbhd(I)|) class.

    ``transitive`` states that automorphisms move the component's
    lowest vertex onto each of its n_c vertices.  Then every vertex
    lies in equally many sets of a class, so the c-sets of a class
    number n_c / c times those that contain the lowest vertex, and only
    those are walked.
    """
    size = comp.bit_count()
    # tally[card][|in_nbhd|]; an independent set and its in-neighbourhood are disjoint
    tally = [[0] * (size - card + 1) for card in range(size + 1)]
    stack = [(comp, 1, 0)]
    while stack:
        allowed, card, in_union = stack.pop()
        row = tally[card]
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            v = low.bit_length() - 1
            visited = _count_node(visited)
            union = in_union | in_rows[v]
            row[union.bit_count()] += 1
            if allowed & ~linked[v]:
                stack.append((allowed & ~linked[v], card + 1, union))
            if transitive and card == 1:
                break
    powers = [1]
    for _ in range(size):
        powers.append(powers[-1] * s)
    degree = 0
    lead = -1  # -(1 - s)^card = (-1)^(card-1) * (s-1)^card
    for card in range(1, size + 1):
        lead *= 1 - s
        for k, sets in enumerate(tally[card]):
            if transitive:
                sets, rest = divmod(sets * size, card)
                if rest:
                    raise AssertionError("independent sets do not split into orbits")
            degree += sets * lead * powers[size - card - k]
    return powers[size] - degree, visited


def write_edge_list(handle, path=None):
    """Plain edge list of the materialized graph (vertices = codes)."""
    if not handle.materialized:
        raise BadParams("materialize the handle before exporting")
    lines = [f"# configs={handle.n_configs} n={handle.n} s={handle.s}"]
    for x in range(handle.n_configs):
        mask = handle.rows[x] & ~((1 << (x + 1)) - 1)
        lines += [f"{x} {y}" for y in dg._bits(mask)]
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
