"""Exact solvers on configuration graphs: independent sets, colorings,
guessing numbers, information defects, protocols and bound chains.

All solvers are pure given immutable inputs and deterministic: searches
branch on the lowest configuration code first, so witnesses are the
lexicographically smallest optima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from . import _search
from . import digraph as dg
from . import gf_linear
from .errors import BadParams, NotIndependent, SizeGuard
from .guessing_graph import (
    DEFAULT_GUARD,
    GuessingGraph,
    _translated_rows,
    coordinate_masks,
    decode,
    degree_closed_form,
    encode,
)

DEFAULT_CODE_SEARCH_GUARD = 1 << 7
_LEXICODE_CAP = 1 << 10


# -- protocols ----------------------------------------------------------


@dataclass(frozen=True)
class Protocol:
    """One local lookup table per vertex.

    ``inputs[v]`` lists some of v's in-neighbours in ascending order (all
    of them from :func:`protocol_from_independent_set`); ``tables[v]``
    has s^len(inputs[v]) entries indexed by the mixed-radix code of the
    observed word (first listed neighbour least significant).
    """

    n: int
    s: int
    inputs: tuple
    tables: tuple

    def word_index(self, symbols, v):
        idx = 0
        for j in reversed(self.inputs[v]):
            idx = idx * self.s + symbols[j]
        return idx


def _protocol_inputs(d):
    return tuple([d.in_neighbours(v) for v in range(d.n)])


def protocol_to_text(protocol):
    """Per-vertex truth tables: ``v: inputs | table`` lines."""
    lines = [f"n {protocol.n} s {protocol.s}"]
    for v in range(protocol.n):
        ins = ",".join(str(u) for u in protocol.inputs[v]) or "-"
        table = "".join(str(e) for e in protocol.tables[v])
        lines.append(f"{v}: {ins} | {table}")
    return "\n".join(lines) + "\n"


def protocol_from_independent_set(d, s, configs):
    """Protocol fixing every configuration of a non-conflicting set.

    Conflicts (two configurations agreeing on some vertex's
    in-neighbourhood but not on the vertex) are exactly the adjacent
    pairs, so table filling doubles as the independence check; unset
    entries default to symbol 0.
    """
    n = d.n
    inputs = _protocol_inputs(d)
    tables = [[None] * (s ** len(inputs[v])) for v in range(n)]
    writers = [dict() for _ in range(n)]
    proto = Protocol(n, s, inputs, ())  # word_index helper only
    for code in configs:
        symbols = decode(code, n, s)
        for v in range(n):
            idx = proto.word_index(symbols, v)
            cur = tables[v][idx]
            if cur is None:
                tables[v][idx] = symbols[v]
                writers[v][idx] = code
            elif cur != symbols[v]:
                raise NotIndependent(
                    f"configurations {writers[v][idx]} and {code} conflict at vertex {v}",
                    pair=(writers[v][idx], code),
                )
    tables = tuple([tuple([0 if e is None else e for e in row]) for row in tables])
    return Protocol(n, s, inputs, tables)


def _word_masks(masks, inputs, every_bit):
    """``W[w]``: the codes on which ``inputs`` read the word of index w
    (first input least significant, as in :meth:`Protocol.word_index`)."""
    words = [every_bit]
    for u in inputs:
        words = [m & w for m in masks[u] for w in words]
    return words


def _table_fixes(words, own, table):
    """Codes on which vertex v's table returns x_v: OR of W[w] & E[v][table[w]]."""
    mask = 0
    for word, symbol in zip(words, table):
        mask |= word & own[symbol]
    return mask


def _fixed_mask(protocol, masks):
    """Bitmask of the codes the protocol maps to themselves: the AND
    over vertices of the codes each table fixes (:func:`_table_fixes`),
    read through the :func:`coordinate_masks` ``masks`` of its n and s."""
    every_bit = (1 << protocol.s**protocol.n) - 1
    fixed = every_bit
    for v in range(protocol.n):
        words = _word_masks(masks, protocol.inputs[v], every_bit)
        fixed &= _table_fixes(words, masks[v], protocol.tables[v])
    return fixed


def _reading_groups(protocol):
    """The components of the relation "v reads u" (u among
    ``protocol.inputs[v]``) as vertex masks, lowest vertex first
    (:func:`digraph.weak_components`).  A vertex's value under the
    protocol depends only on the vertices of its group.
    """
    linked = [0] * protocol.n
    for v, inputs in enumerate(protocol.inputs):
        for u in inputs:
            linked[v] |= 1 << u
            linked[u] |= 1 << v
    return dg.weak_components(linked)


def _fixed_codes(protocol, guard):
    """The codes the protocol fixes (:func:`_fixed_mask`), ascending,
    over all s^n configurations (guarded)."""
    total = protocol.s**protocol.n
    if total > guard:
        raise SizeGuard(
            f"fixed-point enumeration needs {total} configurations",
            needed=total,
            guard=guard,
        )
    return dg._bits(_fixed_mask(protocol, coordinate_masks(protocol.n, protocol.s)))


def fixed_configurations(d, s, protocol, guard=DEFAULT_GUARD):
    """All configuration codes mapped to themselves by the protocol, in
    ascending order; BadParams unless each vertex reads a sorted subset
    of its in-neighbours through a table of s^len(inputs) symbols in
    [0, s).

    Within ``guard``, every configuration is checked at once
    (:func:`_fixed_codes`).  Beyond it, the fixed set is the product of
    the fixed sets of the protocol's :func:`_reading_groups`, so each
    group is guarded and enumerated on its own configurations and
    placed back at the group's coordinates; the guard also caps the
    product's size.
    """
    if protocol.n != d.n or protocol.s != s:
        raise BadParams("protocol shape does not match digraph/alphabet")
    if len(protocol.inputs) != d.n or len(protocol.tables) != d.n:
        raise BadParams("protocol needs one input list and one table per vertex")
    for v, (ins, table) in enumerate(zip(protocol.inputs, protocol.tables)):
        if list(ins) != [u for u in d.in_neighbours(v) if u in ins]:
            raise BadParams(f"vertex {v} must read a sorted subset of its in-neighbours")
        if len(table) != s ** len(ins) or min(table) < 0 or max(table) >= s:
            raise BadParams(f"table of vertex {v} needs s^{len(ins)} symbols in [0, {s})")
    if s**d.n <= guard:
        return _fixed_codes(protocol, guard)
    parts = []
    for group in _reading_groups(protocol):
        members = dg._bits(group)
        position = {v: j for j, v in enumerate(members)}
        part = Protocol(
            len(members), s,
            tuple([tuple([position[u] for u in protocol.inputs[v]]) for v in members]),
            tuple([protocol.tables[v] for v in members]),
        )
        parts.append([
            sum(x * s**v for x, v in zip(decode(code, len(members), s), members))
            for code in _fixed_codes(part, guard)
        ])
    count = math.prod(map(len, parts))
    if count > guard:
        raise SizeGuard(f"listing {count} fixed configurations (> guard {guard})",
                        needed=count, guard=guard)
    fixed = [0]
    for placed in parts:
        fixed = [a + b for a in fixed for b in placed]
    return tuple(sorted(fixed))


# -- maximum independent set -------------------------------------------


@dataclass(frozen=True)
class MisResult:
    alpha: int
    witness: tuple
    exact: bool
    upper: int | None = None


def _exterior_clique_cover(masks, s, coords):
    """Clique cover as a fold: ``(shifts, keep)`` for the MIS search.

    The classes are the codes that agree outside ``coords``; each is a
    clique when those coordinates form an acyclic induced set of the
    digraph, or, in the code-distance graph, when they are fewer than
    the distance.  A candidate mask ORed with itself shifted down by
    each of ``shifts`` in turn holds, at every code whose coordinates in
    ``coords`` are all 0, whether the candidates meet its class, and
    ``keep`` holds those codes (read from the :func:`coordinate_masks`
    ``masks``), so the count of classes met is one popcount.

    Coordinate i's shifts double the span folded so far: from span 1,
    while the span is below s, fold by step = min(span, s - span) times
    s^i and add step to the span (1 shift at s = 2, 2 at s = 3 or 4, 3
    at s = 5 or 6).  A kept code x reads x + t * s^i only for t < s, so
    coordinate i never carries into the next one and the other
    coordinates of ``coords`` stay 0; what a code outside ``keep``
    reads across a carry is never counted.
    """
    shifts = []
    keep = -1  # every code, when ``coords`` is empty
    for i in coords:
        span = 1
        while span < s:
            step = min(span, s - span)
            shifts.append(step * s**i)
            span += step
        keep &= masks[i][0]
    return shifts, keep


def _linear_seed_codes(handle):
    """Fixed space of the all-ones strategy over Z_s, as a bitmask.

    Each vertex guesses the sum of its in-neighbours' symbols mod s, so
    at every s the fixed configurations are the kernel of a Z_s-linear
    map: a subgroup of Z_s^n, and, as a protocol's fixed set, an
    independent set.  Read through the handle's coordinate masks as a
    running residue mask per vertex: ``R[r]`` holds the codes whose
    in-neighbour sum so far is r, each input u folds in as
    ``R'[(r + a) % s] |= R[r] & E[u][a]``, and the vertex's guess is
    right on the OR of ``R[a] & E[v][a]``; O(k s^2) mask operations for
    in-degree k.
    """
    d, s, masks = handle.digraph, handle.s, handle.masks
    every_bit = (1 << handle.n_configs) - 1
    fixed = every_bit
    for v in range(d.n):
        residues = [every_bit] + [0] * (s - 1)
        for u in d.in_neighbours(v):
            folded = [0] * s
            for r, part in enumerate(residues):
                if part:
                    for a, coord in enumerate(masks[u]):
                        folded[(r + a) % s] |= part & coord
            residues = folded
        guessed = 0
        for part, own in zip(residues, masks[v]):
            guessed |= part & own
        fixed &= guessed
    return fixed


def _seed(handle):
    """The handle's :func:`_linear_seed_codes`, computed on first use."""
    if handle.seed is None:
        handle.seed = _linear_seed_codes(handle)
    return handle.seed


def max_independent_set(handle, node_budget=None):
    """Largest set of mutually fixable configurations.

    Materializes the graph (guarded) and runs branch and bound, bounded
    by the classes of the clique cover from a maximum acyclic set that a
    branch's candidates meet, and seeded by the all-ones linear
    strategy's fixed space (:func:`_linear_seed_codes`).  The graph is a
    Cayley graph on Z_s^n, so the search skips the sets without
    configuration 0.  The witness is the lexicographically smallest
    optimum, re-verified; ``exact`` is False when ``node_budget`` ran
    out.
    """
    handle.materialize()
    cover = _exterior_clique_cover(handle.masks, handle.s, handle.mas.witness)
    size, mask, exact = _search.max_independent_set(
        handle.rows, handle.n_configs, cover,
        seed_mask=_seed(handle), node_budget=node_budget, transitive=True,
    )
    witness = dg._bits(mask)
    for x in witness:
        if handle.rows[x] & mask:
            raise AssertionError("independent-set witness fails re-verification")
    return MisResult(size, witness, exact)


# -- guessing number -----------------------------------------------------


@dataclass(frozen=True)
class GuessingNumberResult:
    alpha: int
    value: float
    integral: bool
    protocol: Protocol  # tables read only in-neighbours in the same component
    components: tuple  # ((vertices, alpha_i), ...)
    exact: bool

    @property
    def g(self):
        return self.value


def _log_value(alpha, s):
    if alpha < 1:
        raise BadParams("alpha must be positive")
    k = round(math.log(alpha, s))
    if s**k == alpha:
        return float(k), True
    return math.log(alpha, s), False


def guessing_number(d, s, guard=DEFAULT_GUARD):
    """log_s of the maximum number of simultaneously fixable configurations.

    Solved per strongly connected component (the quantity is additive
    across them) and recombined.  Each vertex keeps its table from its
    component's witness protocol, whose fixed set is that component's
    maximum independent set, so the protocol fixes exactly their product.
    """
    return _solve_components(d, s, guard)[0]


def _solve_components(d, s, guard):
    """:func:`guessing_number` with each strong component's
    ``(vertices, handle, MisResult)``."""
    if s < 2:
        raise BadParams("alphabet size must be at least 2")
    scc = dg.strong_components(d)
    alpha = 1
    components = []
    parts = []
    exact = True
    inputs = [()] * d.n
    tables = [()] * d.n
    for comp in scc.components:
        sub, vertices = dg.induced_subdigraph(d, comp)
        handle = GuessingGraph(sub, s, guard)
        mis = max_independent_set(handle)
        parts.append((vertices, handle, mis))
        exact = exact and mis.exact
        alpha *= mis.alpha
        components.append((vertices, mis.alpha))
        part = protocol_from_independent_set(sub, s, mis.witness)
        for i, v in enumerate(vertices):
            inputs[v] = tuple([vertices[u] for u in part.inputs[i]])
            tables[v] = part.tables[i]
    value, integral = _log_value(alpha, s)
    protocol = Protocol(d.n, s, tuple(inputs), tuple(tables))
    result = GuessingNumberResult(alpha, value, integral, protocol, tuple(components), exact)
    return result, tuple(parts)


# -- coloring and information defect -------------------------------------


@dataclass(frozen=True)
class ChromaticResult:
    chi: int
    coloring: tuple
    exact: bool


def _translation(shift, s):
    """Index permutation of Z_s^len(shift): y -> y + shift, as codes."""
    index = [0]
    for j, t in enumerate(shift):
        block = s**j
        index = [(a + t) % s * block + i for a in range(s) for i in index]
    return index


def _coset_leads(handle, subgroup_mask):
    """Per coordinate m, ``(d_m, low)``: the leading digit of the lowest
    set bit of ``subgroup_mask`` in the window [s^m, s^(m+1)), and that
    code's lower coordinates as a code; ``(s, 0)`` when the window is
    empty.  Reads O(n) masks."""
    s = handle.s
    leads = []
    for m in range(handle.n):
        unit = s**m
        window = subgroup_mask & ((1 << unit * s) - (1 << unit))
        if window:
            leads.append(divmod((window & -window).bit_length() - 1, unit))
        else:
            leads.append((s, 0))
    return leads


def _coset_count(handle, subgroup_mask):
    """The colour count of :func:`_coset_coloring`, the product of the
    leading digits d_m, without building the colouring."""
    return math.prod(lead for lead, _ in _coset_leads(handle, subgroup_mask))


def _coset_coloring(handle, subgroup_mask):
    """Colour each configuration by its coset of the subgroup H of Z_s^n
    whose codes ``subgroup_mask`` holds.

    Any mask gives a colouring, since only the lowest set bit in each
    window [s^m, s^(m+1)) is read (:func:`_coset_leads`); when the mask
    is not an independent subgroup, :func:`_proper` decides whether the
    colouring is proper.

    The cosets are numbered in the order of their smallest codes, as an
    ascending scan would meet them.  The leading digits of the elements
    of H whose highest non-zero coordinate is m form, with 0, the group
    d_m Z_s for a divisor d_m of s (d_m = s when there are none); the
    smallest such element h_m, the lowest set bit of the mask in
    [s^m, s^(m+1)), has leading digit d_m.  A coset's
    smallest code has digit m in [0, d_m), and the coset's number is
    that code read in the radices d_m, so the colours are 0 to
    prod d_m - 1 (:func:`_coset_count`).  They are built one
    coordinate at a time, O(s) list elements per configuration: over
    the first m + 1 coordinates, top digit a = q d_m + r gives r times
    the number of colours below, plus the previous colours read through
    the translation by -q h_m on the lower coordinates.
    """
    s = handle.s
    colors = [0]
    count = 1
    for m, (lead, low) in enumerate(_coset_leads(handle, subgroup_mask)):
        below = decode(low, m, s)
        previous = colors
        colors = previous[:]  # top digit 0
        for a in range(1, s):
            q, r = divmod(a, lead)
            base = r * count
            if q:
                shift = [(-q * t) % s for t in below]
                colors += [base + previous[y] for y in _translation(shift, s)]
            else:
                colors += [base + c for c in previous]
        count *= lead
    return colors


def _proper(handle, colors):
    """True iff no colour class meets the OR of its members' rows (both
    masks built in one pass)."""
    members = [0] * (max(colors) + 1)
    reach = members[:]
    for x, (c, row) in enumerate(zip(colors, handle.rows, strict=True)):
        members[c] |= 1 << x
        reach[c] |= row
    return not any(m & r for m, r in zip(members, reach))


def chromatic_number(handle, mis_witness=None, node_budget=None, alpha_upper=None):
    """Minimum number of fixable classes covering every configuration.

    Lower bounds: the clique of configurations agreeing outside a maximum
    acyclic set, and, given ``alpha_upper`` (any upper bound on the
    largest independent set), s^n / alpha_upper rounded up, since every
    class is independent.  Upper candidates: coset colorings
    (:func:`_coset_coloring`) from the all-ones linear strategy's fixed
    space and from the supplied witness, as bitmasks.  Their colour
    counts are read first (:func:`_coset_count`), and they are built
    and checked by :func:`_proper` fewest colours first, the seed first
    on a tie, until one is proper: the proper coset coloring with the
    fewest colours.  The seed's always is: its fixed space is a kernel,
    hence a subgroup, and independent, and in a Cayley graph every coset
    of an independent subgroup is independent.  On an acyclic digraph
    the seed is {0}, whose s^n singleton cosets meet the bound s^n.
    Greedy DSATUR on bitmask state runs only when that coloring misses
    the lower bound, and replaces it only with strictly fewer colours.  The
    result seeds iterative-deepening backtracking, which closes any gap
    left; a coloring from DSATUR or from the backtracking passes
    :func:`_proper` before it is returned, so every returned coloring
    is checked exactly once.
    """
    handle.materialize()
    s, total = handle.s, handle.n_configs
    lower = s**handle.mas.size
    if alpha_upper:
        lower = max(lower, -(-total // alpha_upper))
    independent = [_seed(handle)]
    if mis_witness:
        independent.append(sum(1 << x for x in mis_witness))
    order = sorted((_coset_count(handle, m), i, m) for i, m in enumerate(independent))
    for k, _, mask in order:
        proper = _coset_coloring(handle, mask)
        if _proper(handle, proper):
            break
    else:
        raise AssertionError("the seed's coset coloring is not proper")
    initial = proper
    if k > lower:
        greedy = _search.greedy_dsatur(handle.rows, total)
        if max(greedy) + 1 < k:
            initial, k = greedy, max(greedy) + 1
    chi, coloring, exact = _search.exact_chromatic(
        handle.rows, total, lower, initial, node_budget=node_budget
    )
    if (chi < k or initial is not proper) and not _proper(handle, coloring):
        raise AssertionError("coloring fails re-verification")
    return ChromaticResult(chi, tuple(coloring), exact)


@dataclass(frozen=True)
class DefectResult:
    chi: int
    value: float
    integral: bool
    classes: tuple
    exact: bool

    @property
    def b(self):
        return self.value


def _chromatic_from(handle, mis):
    """:func:`chromatic_number` of ``handle``, seeded by its
    :class:`MisResult`; alpha bounds the colour count only when exact."""
    return chromatic_number(
        handle, mis_witness=mis.witness,
        alpha_upper=mis.alpha if mis.exact else None,
    )


def information_defect(d, s, guard=DEFAULT_GUARD):
    """log_s of the chromatic number, with the class partition.

    Every color class is a valid simultaneously-fixable set, so the
    partition doubles as a public-message assignment.
    """
    handle = GuessingGraph(d, s, guard)
    chrom = _chromatic_from(handle, max_independent_set(handle))
    classes = {}
    for x, c in enumerate(chrom.coloring):
        classes.setdefault(c, []).append(x)
    partition = tuple([tuple(v) for _, v in sorted(classes.items())])
    value, integral = _log_value(chrom.chi, s)
    return DefectResult(chrom.chi, value, integral, partition, chrom.exact)


# -- code sizes ----------------------------------------------------------


@dataclass(frozen=True)
class CodeSizeResult:
    n: int
    d: int
    s: int
    exact: bool
    value: int | None
    lower: int
    lower_witness: tuple
    singleton: int
    sphere: int

    @property
    def upper(self):
        return self.value if self.exact else min(self.singleton, self.sphere)

    @property
    def best_lower(self):
        return self.value if self.exact else self.lower


def _distance_rows(n, d, s):
    """Rows of the code-distance graph on Z_s^n: x ~ y when 0 < d(x, y) < d.

    It is a Cayley graph, so its zero row, the words of weight 1..d-1,
    is translated by :func:`_translated_rows`.  ``weight[k]`` holds the
    codes with k nonzero coordinates, counted one coordinate at a time
    over the coordinate masks; the classes are disjoint, so their sum
    is their union.  Returns (masks, rows).
    """
    masks = coordinate_masks(n, s)
    weight = [(1 << s**n) - 1]
    for zero, *_ in masks:
        weight = [(w & zero) | (fewer & ~zero)
                  for w, fewer in zip(weight + [0], [0] + weight)]
    return masks, _translated_rows(sum(weight[1:d]), n, s, masks)


@lru_cache(maxsize=None)
def a_s_exact(n, d, s):
    """Maximum size of a length-n code over [s] with minimum distance d.

    Pinches the lexicode against the Singleton and sphere-packing
    bounds; if a gap remains and s^n fits the guard, an exact
    independent-set search over the code-distance graph settles it,
    bounded by the Singleton cover (codes that agree outside
    coordinates 0..d-2 are pairwise within distance d - 1).  A
    translation moves any optimum onto one that contains 0, so the
    lexicographically smallest optimum, the witness, contains 0, and
    the search skips the codes without 0.
    Beyond s^n = 2^10 the lower witness is the repetition code.
    """
    if n < 0 or s < 2:
        raise BadParams("need n >= 0 and s >= 2")
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
    if total > _LEXICODE_CAP:
        # repetition code: s words, pairwise distance n >= d; no rows
        # are built, since s^n-bit masks would not fit in memory
        witness = tuple([encode((v,) * n, s) for v in range(s)])
    else:
        masks, rows = _distance_rows(n, d, s)
        code_mask = _search.ascending_greedy(rows, (1 << total) - 1)
        witness = dg._bits(code_mask)
    lower = len(witness)
    if lower == min(singleton, sphere):
        return CodeSizeResult(n, d, s, True, lower, lower, witness, singleton, sphere)
    if total > DEFAULT_CODE_SEARCH_GUARD:
        return CodeSizeResult(n, d, s, False, None, lower, witness, singleton, sphere)
    # the search guard lies below _LEXICODE_CAP, so the rows are built
    value, mask, _ = _search.max_independent_set(
        rows, total, _exterior_clique_cover(masks, s, range(d - 1)),
        seed_mask=code_mask, transitive=True,
    )
    return CodeSizeResult(
        n, d, s, True, value, value, dg._bits(mask), singleton, sphere,
    )


# -- bound chains --------------------------------------------------------


@dataclass(frozen=True)
class Bound:
    name: str
    target: str  # "g", "g_linear" or "b"
    kind: str  # "lower" or "upper"
    value: float
    method: str


@dataclass(frozen=True)
class BoundsReport:
    n: int
    s: int
    mas: dg.MasResult
    girth: int | None
    bidirectional_edge_count: int
    min_in_degree: int
    max_in_degree: int
    components: tuple
    bounds: tuple
    skipped: tuple = field(default_factory=tuple)

    def _values(self, kinds, targets):
        return [
            b.value for b in self.bounds if b.kind in kinds and b.target in targets
        ]

    @property
    def g_lower(self):
        # a linear lower bound also bounds the general quantity
        vals = self._values({"lower"}, {"g", "g_linear"})
        return max(vals, default=0.0)

    @property
    def g_upper(self):
        vals = self._values({"upper"}, {"g"})
        return min(vals, default=float(self.n))

    @property
    def g_linear_lower(self):
        vals = self._values({"lower"}, {"g_linear"})
        return max(vals, default=0.0)

    @property
    def g_linear_upper(self):
        vals = self._values({"upper"}, {"g", "g_linear"})
        return min(vals, default=float(self.n))

    @property
    def b_upper(self):
        vals = self._values({"upper"}, {"b"})
        return min(vals, default=float(self.n))

    def to_records(self):
        recs = [
            ("n", self.n),
            ("s", self.s),
            ("mas", self.mas.size),
            ("mas_exact", self.mas.exact),
            ("girth", "acyclic" if self.girth is None else self.girth),
            ("components", len(self.components)),
        ]
        for b in sorted(self.bounds, key=lambda b: (b.target, b.kind, b.name)):
            recs.append((f"{b.target}_{b.kind}.{b.name}", round(b.value, 6)))
        recs += [
            ("g_lower", round(self.g_lower, 6)),
            ("g_upper", round(self.g_upper, 6)),
            ("g_linear_lower", round(self.g_linear_lower, 6)),
            ("g_linear_upper", round(self.g_linear_upper, 6)),
            ("b_upper", round(self.b_upper, 6)),
        ]
        for name, reason in self.skipped:
            recs.append((f"skipped.{name}", reason))
        return recs


def bounds_report(d, s):
    """Every applicable bound on g, g_linear and b, with provenance.

    Inapplicable bounds are listed under ``skipped`` with the reason.
    Lower/upper consistency is asserted; a violation would be an
    implementation bug, not a property of the instance.
    """
    if s < 2:
        raise BadParams("alphabet size must be at least 2")
    n = d.n
    scc = dg.strong_components(d)
    report = dg.structure_report(d, scc)
    mas = dg.mas_exact(d)
    bounds = []
    skipped = []
    log_s = lambda x: math.log(x, s)

    bounds.append(Bound("mas_cover", "g", "upper", n - mas.size,
                        "clique cover from a maximum acyclic set"))
    bounds.append(Bound("component_count", "g", "upper",
                        n - len(scc.components),
                        "one short of each strong component"))
    acyclic = report.girth is None
    sparse = report.bidirectional_edge_count == 0 and n >= 1
    why_not_sparse = "digraph is empty" if n == 0 else "bidirectional edges present"
    if sparse:
        bounds.append(Bound("no_bidirectional_sphere", "g", "upper",
                            n - log_s((s - 1) * n + 1),
                            "sphere packing at distance 3"))
    else:
        skipped.append(("no_bidirectional_sphere", why_not_sparse))
    if not acyclic:
        girth_code = a_s_exact(n, report.girth, s)
        bounds.append(Bound("code_girth", "g", "upper",
                            log_s(girth_code.upper),
                            f"codes of distance girth={report.girth}"))
    else:
        skipped.append(("code_girth", "digraph is acyclic"))
    dist = n - report.min_in_degree + 1
    dist_code = a_s_exact(n, dist, s)
    if dist_code.best_lower >= 1:
        bounds.append(Bound("code_distance", "g", "lower",
                            log_s(dist_code.best_lower),
                            f"codes of distance n-delta+1={dist}"))
    if not acyclic:
        bounds.append(Bound("min_indegree", "g", "lower",
                            report.min_in_degree - log_s(n),
                            "degree of the configuration graph"))
        try:
            deg = degree_closed_form(d, s)
            bounds.append(Bound("graph_degree", "g", "lower",
                                n - log_s(deg + 1),
                                "regular-graph independence bound"))
            inner = 1 - math.sqrt(max(0.0, 1 - 4 / (3 * (deg + 1))))
            if inner > 0:
                bounds.append(Bound("transitive_connectivity", "g", "lower",
                                    n + log_s(1.5) + log_s(inner),
                                    "connectivity of vertex-transitive graphs"))
        except SizeGuard:
            skipped.append(("graph_degree", "degree enumeration over cap"))
    else:
        skipped.append(("min_indegree", "digraph is acyclic"))
        skipped.append(("graph_degree", "digraph is acyclic"))
        skipped.append(("transitive_connectivity", "digraph is acyclic"))
    # x_v = -(sum over the rest of v's clique class) fixes the words that
    # sum to 0 on every class: the all-ones strategy at s = 2 only, and
    # minus-all-ones at s > 2
    partition = dg.clique_partition_number(d)
    bounds.append(Bound("clique_partition", "g_linear", "lower",
                        n - partition.count,
                        "all-ones strategy per clique class"))
    if gf_linear._is_prime(s):
        dim = gf_linear.full_support_fixed_dimension(d, s)
        bounds.append(Bound("full_support_linear", "g_linear", "lower",
                            dim, "all-ones linear strategy"))
    else:
        skipped.append(("full_support_linear", "alphabet is not prime"))
    if sparse:
        for value, tag in gf_linear._sparse_linear_uppers(d, s):
            bounds.append(Bound(tag.replace("-", "_"), "g_linear", "upper",
                                value, "row-space counting"))
    else:
        skipped.append(("row_count", why_not_sparse))
    g_lower_now = max(
        [b.value for b in bounds if b.kind == "lower" and b.target in {"g", "g_linear"}],
        default=0.0,
    )
    alpha_lb = s ** max(0.0, g_lower_now)
    bounds.append(Bound("defect_partition", "b", "upper",
                        log_s((1 + math.log(alpha_lb)) * s**n / alpha_lb),
                        "covering a vertex-transitive graph by one class"))

    result = BoundsReport(
        n=n, s=s, mas=mas, girth=report.girth,
        bidirectional_edge_count=report.bidirectional_edge_count,
        min_in_degree=report.min_in_degree,
        max_in_degree=report.max_in_degree,
        components=scc.components,
        bounds=tuple(bounds), skipped=tuple(skipped),
    )
    eps = 1e-9
    if result.g_lower > result.g_upper + eps:
        raise AssertionError("bound chain inconsistent on g")
    if result.g_linear_lower > result.g_linear_upper + eps:
        raise AssertionError("bound chain inconsistent on g_linear")
    return result


# -- alphabet composition -------------------------------------------------


@dataclass(frozen=True)
class CompositionBounds:
    alphabet: int
    lower: float
    upper: float
    refinements: tuple  # ((base, lower, upper), ...)


def alphabet_composition_bounds(g_s, g_t, n, s, t):
    """Bracket for the guessing number over [s*t] from the factor values.

    The interval mixes the two known values log-proportionally; the
    refinements entry carries the single-base power bounds for each of
    s and t.
    """
    if s < 2 or t < 2:
        raise BadParams("alphabet sizes must be at least 2")
    ls, lt = math.log(s), math.log(t)
    lst = ls + lt
    lower = (g_s * ls + g_t * lt) / lst
    upper = min((g_s * ls + n * lt) / lst, (g_t * lt + n * ls) / lst)
    refinements = []
    target = s * t
    for base, g_base in ((s, g_s), (t, g_t)):
        ratio = math.log(target) / math.log(base)
        m = math.floor(ratio + 1e-12)
        refinements.append((base, g_base * m / ratio, (g_base + m * n) / ratio))
    return CompositionBounds(target, lower, upper, tuple(refinements))
