"""Multiple-unicast network coding instances in circuit representation.

An instance has n paired sources and sinks (sink i demands source i's
message) plus intermediate nodes; every node forwards a single message
on all outgoing edges, so the instance maps onto a digraph by merging
each source with its sink.  Solvability over an alphabet then reduces
to whether that digraph's guessing number reaches n.

Text format::

    # comment
    pairs
    s1 t1
    s2 t2
    intermediates
    z
    edges
    s1 z
    z t1

Node names are arbitrary whitespace-free strings, mapped to dense ids
on read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import digraph as dg
from . import gf_linear, solvers
from .errors import (
    BadParams,
    InvalidInstance,
    LoopEdge,
    NotAcyclic,
    SelfDemandLoop,
    SizeGuard,
)
from .guessing_graph import DEFAULT_GUARD

_SIMULATE_GUARD = 1 << 16  # source words a certificate is simulated on


@dataclass(frozen=True)
class NetworkInstance:
    sources: tuple  # names, pair i = (sources[i], sinks[i])
    sinks: tuple
    intermediates: tuple
    edges: tuple  # (name, name)

    @property
    def n_pairs(self):
        return len(self.sources)

    def nodes(self):
        return tuple(self.sources) + tuple(self.sinks) + tuple(self.intermediates)

    def validate(self):
        """Raise InvalidInstance unless the instance is a circuit: unique
        names, paired sources and sinks, known edge ends, no edge into a
        source or out of a sink, and an acyclic underlying digraph."""
        names = self.nodes()
        if len(set(names)) != len(names):
            raise InvalidInstance("duplicate node names")
        if len(self.sources) != len(self.sinks):
            raise InvalidInstance("sources and sinks must pair up")
        index = {name: i for i, name in enumerate(names)}
        for u, v in self.edges:
            if u not in index or v not in index:
                raise InvalidInstance(f"edge ({u}, {v}) uses an unknown node")
        tails = {u for u, _ in self.edges}
        heads = {v for _, v in self.edges}
        for sname in self.sources:
            if sname in heads:
                raise InvalidInstance(f"source {sname} has incoming edges")
        for tname in self.sinks:
            if tname in tails:
                raise InvalidInstance(f"sink {tname} has outgoing edges")
        rows = [0] * len(names)
        for u, v in self.edges:
            if u == v:
                raise LoopEdge(f"loop at node {u} rejected")
            rows[index[u]] |= 1 << index[v]
        if dg.topological_order(rows, (1 << len(names)) - 1) is None:
            raise InvalidInstance("underlying digraph has a directed cycle")


def to_guessing_digraph(instance):
    """Merge each source with its sink; returns (digraph, provenance).

    Merged pair i becomes vertex i, intermediates follow in their listed
    order.  Provenance maps each digraph vertex back to the instance
    node(s) it came from.
    """
    instance.validate()
    n = instance.n_pairs
    merged = {}
    for i, (sname, tname) in enumerate(zip(instance.sources, instance.sinks)):
        merged[sname] = i
        merged[tname] = i
    for j, zname in enumerate(instance.intermediates):
        merged[zname] = n + j
    edges = set()
    for u, v in instance.edges:
        mu, mv = merged[u], merged[v]
        if mu == mv:
            raise SelfDemandLoop(
                f"edge {u} -> {v} joins a source directly to its own sink"
            )
        edges.add((mu, mv))
    provenance = tuple([
        (instance.sources[i], instance.sinks[i]) for i in range(n)
    ] + [(z,) for z in instance.intermediates])
    return dg.Digraph(n + len(instance.intermediates), edges), provenance


def from_digraph(d, intermediates):
    """Split every vertex outside an acyclic set into a source/sink pair.

    The set must induce an acyclic subgraph (its vertices become the
    intermediate nodes); vertex v outside it becomes source ``s{v}``
    (keeping v's out-edges) and sink ``t{v}`` (keeping v's in-edges).
    """
    inter = sorted(set(intermediates))
    if any(not 0 <= v < d.n for v in inter):
        raise BadParams("intermediate ids out of range")
    if dg.topological_order(d.out_rows(), sum(1 << v for v in inter)) is None:
        raise NotAcyclic("chosen intermediate set induces a directed cycle")
    inter_set = set(inter)
    outside = [v for v in range(d.n) if v not in inter_set]

    def tail_name(v):
        return f"m{v}" if v in inter_set else f"s{v}"

    def head_name(v):
        return f"m{v}" if v in inter_set else f"t{v}"

    edges = [(tail_name(u), head_name(v)) for u, v in d.edges()]
    return NetworkInstance(
        sources=tuple([f"s{v}" for v in outside]),
        sinks=tuple([f"t{v}" for v in outside]),
        intermediates=tuple([f"m{v}" for v in inter]),
        edges=tuple(sorted(edges)),
    )


# -- fixtures -----------------------------------------------------------


def butterfly():
    """Two pairs crossing through one shared relay."""
    return NetworkInstance(
        sources=("s1", "s2"),
        sinks=("t1", "t2"),
        intermediates=("z",),
        edges=(
            ("s1", "z"),
            ("s2", "z"),
            ("s1", "t2"),
            ("s2", "t1"),
            ("z", "t1"),
            ("z", "t2"),
        ),
    )


def bottleneck(n_pairs, m):
    """n sources all routed through a shared layer of m relays."""
    if n_pairs < 1 or m < 1:
        raise BadParams("bottleneck needs n_pairs >= 1 and m >= 1")
    sources = tuple([f"s{i}" for i in range(n_pairs)])
    sinks = tuple([f"t{i}" for i in range(n_pairs)])
    mids = tuple([f"z{j}" for j in range(m)])
    edges = [(sname, z) for sname in sources for z in mids]
    edges += [(z, tname) for z in mids for tname in sinks]
    return NetworkInstance(sources, sinks, mids, tuple(edges))


# -- solvability ---------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Per-node coding functions extracted from a witness protocol."""

    s: int
    functions: tuple  # (node name, input names tuple, table tuple)

    def narrative(self):
        lines = []
        for name, inputs, table in self.functions:
            if not inputs:
                lines.append(f"{name} emits the constant {table[0]}")
                continue
            src = ", ".join(inputs)
            lines.append(f"{name} sends f({src}) with table {list(table)}")
        return "\n".join(lines)


@dataclass(frozen=True)
class SolvabilityResult:
    solvable: bool
    n_pairs: int
    alpha: int
    g_value: float
    certificate: Certificate | None
    binding_bound: tuple | None  # (name, value) when unsolvable
    defect_value: int | None
    defect_matches_intermediates: bool | None
    reason: str | None


def _certificate_from_protocol(instance, digraph, protocol):
    n = instance.n_pairs
    names = list(instance.sinks) + list(instance.intermediates)
    functions = []
    for v in range(digraph.n):
        inputs = []
        for u in protocol.inputs[v]:
            if u < n:
                inputs.append(instance.sources[u])
            else:
                inputs.append(instance.intermediates[u - n])
        functions.append((names[v], tuple(inputs), protocol.tables[v]))
    return Certificate(protocol.s, tuple(functions))


def _delivers(protocol, pairs, relays, words):
    """True iff the protocol decodes every source word in ``words``.

    The ``pairs`` carry the word; the ``relays`` are evaluated in the
    listed order; each pair's table must then return its own symbol.
    """
    values = [0] * protocol.n
    for source_word in words:
        for i, x in zip(pairs, source_word):
            values[i] = x
        for v in relays:
            values[v] = protocol.tables[v][protocol.word_index(values, v)]
        for i, x in zip(pairs, source_word):
            if protocol.tables[i][protocol.word_index(values, i)] != x:
                return False
    return True


def _simulate(instance, digraph, protocol, s):
    """Exhaustively check a nonlinear certificate delivers every demand.

    A node's value depends only on the sources its tables reach back to,
    so the nodes are grouped by the components of the reads relation
    (:func:`solvers._reading_groups`; each a subset of a strong component
    for a protocol from :func:`solvers.guessing_number`) and each group
    is checked on the s^(its pairs) words of its own sources, its relays
    taken in :func:`_relay_order`.  ``None`` when some group alone has
    more than 2^16 such words.  Linear certificates are checked by
    :func:`_delivers_linearly` instead, at any size.
    """
    n = instance.n_pairs
    order = _relay_order(digraph, n)
    verified = True
    for group in solvers._reading_groups(protocol):
        pairs = [v for v in range(n) if group >> v & 1]
        if s ** len(pairs) > _SIMULATE_GUARD:
            verified = None
            continue
        words = itertools.product(range(s), repeat=len(pairs))
        relays = [v for v in order if group >> v & 1]
        if not _delivers(protocol, pairs, relays, words):
            return False
    return verified


def _relay_order(digraph, n):
    """The relays (vertices n on), each after the relays it reads.

    Sources are inputs, so edges into merged pair vertices do not
    constrain the order, and the relays induce an acyclic subgraph.
    """
    return dg.topological_order(digraph.out_rows(), (1 << digraph.n) - (1 << n))


def _linear_table(coefficients, s):
    """Table of x -> sum of coefficients[j] * x_j mod s, built one input
    at a time, the first input least significant."""
    table = [0]
    for c in coefficients:
        table = [(t + c * a) % s for a in range(s) for t in table]
    return tuple(table)


def _linear_protocol(digraph, witness, guard):
    """The strategy x_v = sum of -A[u][v] * x_u of a witness matrix A, as
    tables over every in-neighbour (SizeGuard beyond ``guard`` entries)."""
    s = witness.p
    inputs = solvers._protocol_inputs(digraph)
    widest = s ** max(map(len, inputs), default=0)
    if widest > guard:
        raise SizeGuard(f"a linear table needs {widest} entries (> guard {guard})",
                        needed=widest, guard=guard)
    tables = tuple([
        _linear_table([-witness.entries[u][v] % s for u in ins], s)
        for v, ins in enumerate(inputs)
    ])
    return solvers.Protocol(digraph.n, s, inputs, tables)


def _delivers_linearly(instance, digraph, protocol):
    """Check a linear certificate delivers every demand, algebraically.

    Each table must be the :func:`_linear_table` of its own entries at
    the unit words (so it maps the zero word to 0).  Then the map from
    source words to decoded words is linear, and running the pairs' unit
    vectors through :func:`_delivers` proves it on all s^pairs words.
    """
    s = protocol.s
    for inputs, table in zip(protocol.inputs, protocol.tables):
        if table != _linear_table([table[s**j] for j in range(len(inputs))], s):
            return False
    n = instance.n_pairs
    relays = _relay_order(digraph, n)
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    return _delivers(protocol, range(n), relays, units)


def _linear_solution(instance, merged, witness, guard):
    """The solvable result certified by a witness whose fixed space has
    the pair count as its dimension.

    alpha is s^pairs.  The defect is s^m for m intermediates: their s^m
    words form a clique, and the cosets of the fixed space colour the
    configuration graph with s^(n - pairs) = s^m colours.
    """
    s = witness.p
    n = instance.n_pairs
    protocol = _linear_protocol(merged, witness, guard)
    if not _delivers_linearly(instance, merged, protocol):
        raise AssertionError("linear certificate fails to deliver")
    return SolvabilityResult(
        solvable=True,
        n_pairs=n,
        alpha=s**n,
        g_value=float(n),
        certificate=_certificate_from_protocol(instance, merged, protocol),
        binding_bound=None,
        defect_value=s ** len(instance.intermediates),
        defect_matches_intermediates=True,
        reason=None,
    )


def solvable(instance, s, guard=DEFAULT_GUARD):
    """Decide solvability over [s]; certificate or binding bound attached.

    Solvable means every sink can decode its own source's message; this
    holds exactly when the merged digraph fixes s^n configurations.

    At prime s, linear algebra decides first: when
    :func:`gf_linear.linear_guessing_number` finds a strategy whose fixed
    space has the pair count as its dimension, the instance is solvable.
    Its certificate is that strategy's linear tables, checked
    algebraically (:func:`_delivers_linearly`), and the defect is s^m
    (:func:`_linear_solution`).  No configuration graph is built, so this
    holds at any n.  The attempt is skipped when an acyclic set larger
    than the intermediates shows n - mas below the pair count.

    Otherwise (composite s, a proven bound below the pair count, or a
    gap where nonlinear strategies may do better) the configuration
    graph decides, within ``guard``.  A positive answer carries per-node
    coding functions re-verified by exhaustive simulation, one group of
    nodes at a time (:func:`_simulate`); a negative one carries the bound
    that caps the guessing number below n.  The defect check (minimum
    public information equal to the intermediate count) is reported
    alongside when computable.  A strongly connected merged digraph is
    solved on one configuration graph: its chromatic number starts from
    the guessing number's maximum independent set.
    """
    merged, _ = to_guessing_digraph(instance)
    n = instance.n_pairs
    m = len(instance.intermediates)
    # g <= (vertex count) - mas, so an acyclic set larger than the
    # intermediates caps g below the pair count: no linear attempt
    acyclic = dg._greedy_acyclic_set(merged.in_rows(), (1 << merged.n) - 1)
    if len(acyclic) <= m and gf_linear._is_prime(s):
        linear = gf_linear.linear_guessing_number(merged, s)
        if linear.lower == n:
            return _linear_solution(instance, merged, linear.witness, guard)
    result, parts = solvers._solve_components(merged, s, guard)
    if result.alpha > s**n:
        raise AssertionError("guessing number exceeded the pair count")
    is_solvable = result.alpha == s**n
    certificate = None
    binding = None
    reason = None
    if is_solvable:
        certificate = _certificate_from_protocol(instance, merged, result.protocol)
        verified = _simulate(instance, merged, result.protocol, s)
        if verified is False:
            raise AssertionError("certificate failed simulation")
    else:
        report = solvers.bounds_report(merged, s)
        candidates = [
            (b.value, b.name) for b in report.bounds
            if b.kind == "upper" and b.target == "g"
        ]
        value, name = min(candidates, default=(float(merged.n), "trivial"))
        binding = (name, value)
        # sources have no in-edges and sinks no out-edges, so a path from
        # s_i to t_i runs through relays only: from i's out-neighbours
        # among them to one of i's in-neighbours
        out_rows, in_rows = merged.out_rows(), merged.in_rows()
        relays = (1 << merged.n) - (1 << n)
        for i in range(n):
            if not dg.reachable(out_rows, out_rows[i] & relays, relays) & in_rows[i]:
                reason = f"sink {instance.sinks[i]} is unreachable from {instance.sources[i]}"
                break
        else:
            reason = f"guessing number {result.value:.3f} < {n}"
    defect_value = None
    defect_matches = None
    if s**merged.n <= min(guard, 1 << 14):
        if len(parts) == 1:
            _, handle, mis = parts[0]
            defect_value = solvers._chromatic_from(handle, mis).chi
        else:
            defect_value = solvers.information_defect(merged, s, guard=guard).chi
        defect_matches = defect_value == s**m  # log_s chi = m
    return SolvabilityResult(
        solvable=is_solvable,
        n_pairs=n,
        alpha=result.alpha,
        g_value=result.value,
        certificate=certificate,
        binding_bound=binding,
        defect_value=defect_value,
        defect_matches_intermediates=defect_matches,
        reason=reason,
    )


# -- text format ----------------------------------------------------------


def to_text(instance):
    lines = ["pairs"]
    lines += [f"{sname} {tname}" for sname, tname in zip(instance.sources, instance.sinks)]
    lines.append("intermediates")
    lines += list(instance.intermediates)
    lines.append("edges")
    lines += [f"{u} {v}" for u, v in instance.edges]
    return "\n".join(lines) + "\n"


def from_text(text):
    section = None
    sources, sinks, intermediates, edges = [], [], [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in {"pairs", "intermediates", "edges"}:
            section = line
            continue
        parts = line.split()
        if section == "pairs":
            if len(parts) != 2:
                raise InvalidInstance(f"pair line needs two names: {raw!r}")
            sources.append(parts[0])
            sinks.append(parts[1])
        elif section == "intermediates":
            intermediates.extend(parts)
        elif section == "edges":
            if len(parts) != 2:
                raise InvalidInstance(f"edge line needs two names: {raw!r}")
            edges.append((parts[0], parts[1]))
        else:
            raise InvalidInstance(f"content before any section: {raw!r}")
    instance = NetworkInstance(
        tuple(sources), tuple(sinks), tuple(intermediates), tuple(edges)
    )
    instance.validate()
    return instance


def write_instance(instance, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_text(instance))


def read_instance(path):
    with open(path, "r", encoding="utf-8") as fh:
        return from_text(fh.read())
