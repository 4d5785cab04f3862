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
from . import solvers
from .errors import (
    BadParams,
    InvalidInstance,
    LoopEdge,
    NotAcyclic,
    SelfDemandLoop,
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
        known = set(names)
        out_deg = {name: 0 for name in names}
        in_deg = {name: 0 for name in names}
        for u, v in self.edges:
            if u not in known or v not in known:
                raise InvalidInstance(f"edge ({u}, {v}) uses an unknown node")
            out_deg[u] += 1
            in_deg[v] += 1
        for sname in self.sources:
            if in_deg[sname]:
                raise InvalidInstance(f"source {sname} has incoming edges")
        for tname in self.sinks:
            if out_deg[tname]:
                raise InvalidInstance(f"sink {tname} has outgoing edges")
        index = {name: i for i, name in enumerate(names)}
        rows = [0] * len(names)
        indeg = [0] * len(names)
        for u, v in dict.fromkeys(self.edges):
            if u == v:
                raise LoopEdge(f"loop at node {u} rejected")
            rows[index[u]] |= 1 << index[v]
            indeg[index[v]] += 1
        # Kahn's algorithm: drop vertices whose in-edges are all dropped
        ready = [v for v, k in enumerate(indeg) if not k]
        dropped = 0
        while ready:
            row = rows[ready.pop()]
            dropped += 1
            while row:
                low = row & -row
                w = low.bit_length() - 1
                indeg[w] -= 1
                if not indeg[w]:
                    ready.append(w)
                row ^= low
        if dropped < len(names):
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
    sub, _ = dg.induced_subdigraph(d, inter)
    if not dg.is_acyclic(sub):
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


def _simulate(instance, digraph, protocol, s):
    """Exhaustively check a certificate delivers every demand.

    A node's value depends only on the sources its tables reach back to,
    so the nodes are grouped by the components of the reads relation
    (each a subset of a strong component for a protocol from
    :func:`solvers.guessing_number`) and each group is checked on the
    s^(its pairs) words of its own sources.  ``None`` when some group
    alone has more than 2^16 such words.
    """
    n = instance.n_pairs
    group = list(range(digraph.n))  # union-find over the reads relation

    def root(v):
        while group[v] != v:
            group[v] = group[group[v]]
            v = group[v]
        return v

    for v, inputs in enumerate(protocol.inputs):
        for u in inputs:
            group[root(u)] = root(v)
    groups = {}
    for v in dg.topological_order(_erase_pair_cycles(digraph, n)):
        groups.setdefault(root(v), []).append(v)
    verified = True
    values = [0] * digraph.n
    for members in groups.values():
        pairs = [v for v in members if v < n]
        relays = [v for v in members if v >= n]
        if s ** len(pairs) > _SIMULATE_GUARD:
            verified = None
            continue
        for source_word in itertools.product(range(s), repeat=len(pairs)):
            for i, x in zip(pairs, source_word):
                values[i] = x
            for v in relays:
                values[v] = protocol.tables[v][protocol.word_index(values, v)]
            for i, x in zip(pairs, source_word):
                if protocol.tables[i][protocol.word_index(values, i)] != x:
                    return False
    return verified


def _erase_pair_cycles(digraph, n):
    # Evaluation order for the merged digraph: sources are inputs, so
    # edges into merged pair vertices do not constrain the order.
    edges = [(u, v) for u, v in digraph.edges() if v >= n]
    return dg.Digraph(digraph.n, edges)


def solvable(instance, s, guard=DEFAULT_GUARD):
    """Decide solvability over [s]; certificate or binding bound attached.

    Solvable means every sink can decode its own source's message; this
    holds exactly when the merged digraph fixes s^n configurations.  A
    positive answer carries per-node coding functions re-verified by
    exhaustive simulation, one group of nodes at a time (when no group
    has more than 2^16 source words); a negative one carries the bound
    that caps the guessing number below n.  The defect check (minimum
    public information equal to the intermediate count) is reported
    alongside when computable.  A strongly connected merged digraph is
    solved on one configuration graph: its chromatic number starts from
    the guessing number's maximum independent set.
    """
    merged, _ = to_guessing_digraph(instance)
    n = instance.n_pairs
    m = len(instance.intermediates)
    result, parts = solvers._solve_components(merged, s, guard)
    if result.alpha > s**n:
        raise AssertionError("guessing number exceeded the pair count")
    reason = None
    adj = {}
    for u, v in instance.edges:
        adj.setdefault(u, set()).add(v)
    for i in range(n):
        if not _reaches(adj, instance.sources[i], instance.sinks[i]):
            reason = f"sink {instance.sinks[i]} is unreachable from {instance.sources[i]}"
            break
    is_solvable = result.alpha == s**n
    certificate = None
    binding = None
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
        if reason is None:
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


def _reaches(adj, source, target):
    frontier = [source]
    seen = set(frontier)
    while frontier:
        u = frontier.pop()
        if u == target:
            return True
        for w in adj.get(u, ()):  # noqa: B909
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return False


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
