"""Prime-field linear algebra and the linear guessing number.

A linear strategy assigns each vertex a linear combination of its
in-neighbours' values.  Its fixed configurations form the nullspace of
``I - C^T`` for the coefficient matrix ``C``, so the best linear
strategy is found by minimizing ``rank(I + A)`` over all matrices ``A``
whose support lies inside the adjacency support (the two minimizations
coincide under ``A <-> -A``).

One row reduction serves every prime and every search: machine-word
bit rows at p = 2, normalized pivot rows otherwise.  A rank counts the
rows it keeps.  Tagging each vector with its own unit vector makes it
return the dependencies among the vectors too: a nullspace is the
dependencies among a matrix's columns, and a strategy's fixed space
those among the rows of I - C.  The greedy descent of the candidate
strategies ranks its zeroing trials incrementally: one tagged reduction
of the rows of I + A records which rows make up each pivot, so it tells
which rows lie in the span of the others (no zeroing there lowers the
rank) and answers each other trial with one reduced unit vector; it is
redone only when a zeroing is kept.  The exhaustive search over
coefficient patterns is one depth-first search for every prime.  It
prunes a partial pattern by the rank of its chosen rows plus the
maximum acyclic set of the vertices they leave untouched.  Every
fixed-space basis, of the all-ones strategy or of a witness, comes from
one builder that re-verifies each vector against the local functions.
Diagonal entries are never allowed in support-respecting matrices
(loops are excluded from adjacency).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb, floor, log

from . import digraph as dg
from .errors import BadParams, NonPrimeField

DEFAULT_LINEAR_BUDGET = 1 << 24


def _is_prime(p):
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _check_prime(p):
    if not _is_prime(p):
        raise NonPrimeField(f"{p} is not prime")


class GfMatrix:
    """Immutable matrix over GF(p), p prime."""

    __slots__ = ("rows", "cols", "p", "entries")

    def __init__(self, entries, p):
        _check_prime(p)
        entries = tuple([tuple([int(e) % p for e in row]) for row in entries])
        if entries and any(len(row) != len(entries[0]) for row in entries):
            raise BadParams("ragged matrix")
        self.entries = entries
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        self.p = p

    @classmethod
    def _of_residues(cls, entries, p):
        """A matrix of a prime ``p`` and a rectangular tuple of tuples of
        residues in [0, p), taken as they are."""
        m = cls.__new__(cls)
        m.entries = entries
        m.rows = len(entries)
        m.cols = len(entries[0]) if entries else 0
        m.p = p
        return m

    @classmethod
    def identity(cls, n, p):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], p)

    def transpose(self):
        return GfMatrix(list(zip(*self.entries)) if self.entries else [], self.p)

    def add(self, other):
        if (self.rows, self.cols, self.p) != (other.rows, other.cols, other.p):
            raise BadParams("shape or field mismatch")
        return GfMatrix(
            [
                [(a + b) % self.p for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
            self.p,
        )

    def neg(self):
        return GfMatrix([[(-a) % self.p for a in row] for row in self.entries], self.p)

    def kron(self, other):
        if self.p != other.p:
            raise BadParams("field mismatch")
        out = []
        for ra in self.entries:
            for rb in other.entries:
                out.append([(a * b) % self.p for a in ra for b in rb])
        return GfMatrix(out, self.p)

    def mul_vec(self, vec):
        return tuple([
            sum(a * x for a, x in zip(row, vec)) % self.p for row in self.entries
        ])

    def support(self):
        return {(i, j) for i, row in enumerate(self.entries) for j, e in enumerate(row) if e}

    def rank(self):
        return rank_gfp(self)

    def __eq__(self, other):
        return (
            isinstance(other, GfMatrix)
            and self.p == other.p
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"GfMatrix({self.rows}x{self.cols}, p={self.p})"


# -- the row reduction ------------------------------------------------


def _reduce(p, pivots, vec):
    """The remainder of ``vec`` against ``pivots``; falsy iff in their span.

    GF(2) pivots are ints reduced at their lowest bit; other primes keep
    (pivot column, normalized row) pairs.  Each pivot is zero at the
    pivot positions of the ones before it, so one pass in order clears
    every pivot position.
    """
    if p == 2:
        for prow in pivots:
            if vec & prow & -prow:
                vec ^= prow
        return vec
    for col, row in pivots:
        f = vec[col]
        if f:
            vec = [(a - f * b) % p for a, b in zip(vec, row)]
    return vec if any(vec) else None


def _push(p, pivots, vec):
    """Append ``vec``'s remainder to ``pivots`` if nonzero; True iff it was."""
    vec = _reduce(p, pivots, vec)
    if not vec:
        return False
    if p == 2:
        pivots.append(vec)
    else:
        lead = next(c for c, e in enumerate(vec) if e)
        inv = pow(vec[lead], p - 2, p)
        pivots.append((lead, tuple([(e * inv) % p for e in vec])))
    return True


def _as_row(p, entries):
    """An entry list as the row type of :func:`_reduce`."""
    if p == 2:
        return sum((e & 1) << j for j, e in enumerate(entries))
    return [e % p for e in entries]


def _rank(p, rows):
    """The number of ``rows`` that :func:`_push` keeps: their rank."""
    pivots = []
    return sum(_push(p, pivots, row) for row in rows)


def _reduction(p, width, vectors):
    """Pivots of the tagged ``vectors`` and the dependencies among them.

    Vector w, ``width`` entries wide, is tagged with e_w past its width,
    so a remainder [r | t] has r = t V.  The ones with r nonzero become
    pivots, whose tags involve only kept vectors.  So a vector in the
    span of the ones before it leaves the dependency t with 1 on itself
    and 0 on every other such vector: the basis that reduced row echelon
    form reads off its free columns, in the same order.
    Dependencies stay in the row type (ints at p = 2).
    """
    pivots, dependencies = [], []
    count = len(vectors)
    for w, vec in enumerate(vectors):
        if p == 2:
            rem = _reduce(p, pivots, vec | 1 << (width + w))
            left, tag = rem & ((1 << width) - 1), rem >> width
        else:
            rem = _reduce(p, pivots, vec + [int(j == w) for j in range(count)])
            left, tag = any(rem[:width]), rem[width:]
        if not left:
            dependencies.append(tag)
        elif p == 2:
            pivots.append(rem)
        else:
            _push(p, pivots, rem)  # normalizes; rem is already reduced
    return pivots, dependencies


def _dependencies(p, width, vectors):
    """The dependencies of :func:`_reduction` as coordinate tuples."""
    found = _reduction(p, width, vectors)[1]
    if p == 2:
        return [tuple([dep >> j & 1 for j in range(len(vectors))]) for dep in found]
    return [tuple(dep) for dep in found]


def rank_gfp(matrix):
    """Row-echelon rank over GF(p)."""
    return _rank(matrix.p, [_as_row(matrix.p, row) for row in matrix.entries])


def nullspace_gfp(matrix):
    """Basis of the right nullspace over GF(p), as coordinate tuples.

    The dependencies among the matrix's columns (:func:`_reduction`).
    """
    columns = [_as_row(matrix.p, column) for column in zip(*matrix.entries)]
    return _dependencies(matrix.p, matrix.rows, columns)


# -- digraph-shaped matrices ------------------------------------------


@dataclass(frozen=True)
class ParityCheckResult:
    dimension: int
    basis: tuple  # configuration codes (bit i = coordinate i)


def parity_check_protocol(d):
    """Fixed space of the all-ones GF(2) strategy: x_v = sum of in-values.

    Returns the nullspace of I + A^T over GF(2) as configuration codes,
    the basis of :func:`full_support_fixed_basis` (which re-verifies
    every vector as a literal fixed point) at p = 2.
    """
    codes = sorted(
        sum(b << i for i, b in enumerate(vec)) for vec in full_support_fixed_basis(d, 2)
    )
    return ParityCheckResult(len(codes), tuple(codes))


def _fixed_basis(d, p, coeffs):
    """Fixed-space basis of the strategy x_v = sum of coeffs[(u, v)] * x_u.

    The fixed configurations are the x with x (I - C) = 0, where C holds
    ``coeffs``: the dependencies among the rows of I - C
    (:func:`_reduction`).  Each row sums its entries, so a diagonal
    coefficient c gives 1 - c there.  Each basis vector is re-verified
    against the local functions, which read only v's in-neighbours, so a
    basis that relies on a coefficient off the edges fails the check.
    """
    n = d.n
    rows = [[int(u == v) for v in range(n)] for u in range(n)]
    for (u, v), c in coeffs.items():
        rows[u][v] -= c
    basis = _dependencies(p, n, [_as_row(p, row) for row in rows])
    local = [[(u, coeffs.get((u, v), 0)) for u in d.in_neighbours(v)] for v in range(n)]
    for vec in basis:
        for v in range(n):
            if sum(c * vec[u] for u, c in local[v]) % p != vec[v]:
                raise AssertionError("fixed-space basis vector is not fixed")
    return basis


def full_support_fixed_dimension(d, p):
    """Fixed-space dimension of the all-ones strategy over GF(p).

    That is n - rank(I - A^T), and rank(I - A) is the same number.
    """
    _check_prime(p)
    return d.n - _rank_of_support(d, p, {e: -1 for e in d.edges()})


def full_support_fixed_basis(d, p):
    """Fixed-space basis of the all-ones strategy, as coordinate tuples."""
    return _fixed_basis(d, p, {e: 1 for e in d.edges()})


# -- linear guessing number -------------------------------------------


@dataclass(frozen=True)
class LinearGuessingResult:
    lower: int
    upper: int
    witness: GfMatrix  # minimizes rank(I + A) among inspected matrices
    exact: bool
    provenance: tuple  # (lower tag, upper tag)

    @property
    def value(self):
        return self.lower if self.exact else None


def _row(p, n, u, entries):
    """Row u of I + A, ``n`` entries wide, from its (column, value) entries.

    An int bit row at p = 2, a list of residues otherwise: the two row
    types that :func:`_reduce` and :func:`_push` work on.
    """
    if p == 2:
        row = 1 << u
        for v, val in entries:
            if val % 2:
                row |= 1 << v
        return row
    row = [0] * n
    row[u] = 1
    for v, val in entries:
        row[v] = val % p
    return row


def _rank_of_support(d, p, coeffs):
    """rank(I + A) for the coefficients ``{(u, v): value}`` on edges."""
    entries = [[] for _ in range(d.n)]
    for (u, v), val in coeffs.items():
        entries[u].append((v, val))
    return _rank(p, [_row(p, d.n, u, entries[u]) for u in range(d.n)])


def _matrix_from_coeffs(d, p, coeffs):
    n = d.n
    entries = [[0] * n for _ in range(n)]
    for (u, v), val in coeffs.items():
        entries[u][v] = val % p
    return GfMatrix._of_residues(tuple([tuple(row) for row in entries]), p)


def _tagged_reduction(p, n, rows):
    """Pivots of the tagged rows of I + A (:func:`_reduction`), its rank,
    and the bit mask of the rows in the span of the others: the union of
    the supports of the dependencies, which span every dependency.
    """
    pivots, dependencies = _reduction(p, n, rows)
    dependent = 0
    for dep in dependencies:
        dependent |= dep if p == 2 else sum(1 << w for w, e in enumerate(dep) if e)
    return pivots, n - len(dependencies), dependent


def _combination(p, n, pivots, v):
    """Coefficients y with y (I + A) = e_v, or None outside the row space.

    Reducing [e_v | 0] against the pivots of :func:`_tagged_reduction`
    leaves [e_v - y (I + A) | -y].  y is unique up to the dependencies,
    so its coefficient on a row that no dependency uses is determined.
    """
    rem = _reduce(p, pivots, _row(p, 2 * n, v, ()))
    if p == 2:
        if rem & ((1 << n) - 1):
            return None
        return [rem >> (n + w) & 1 for w in range(n)]
    if any(rem[:n]):
        return None
    return [-e % p for e in rem[n:]]


def _descend(d, p, coeffs):
    """Greedy coordinate descent on rank(I + A), zeroing entries.

    Each pass tries the nonzero entries in sorted edge order and keeps a
    zeroing that lowers the rank, until a pass keeps none.  Zeroing the
    entry c at (u, v) changes row u only, to r_u - c e_v.  If r_u lies
    in the span S of the other rows, the rank cannot fall, so the row is
    skipped.  Otherwise the row space is S + <r_u>, and the trial row
    lies in S exactly when e_v = y (I + A) with c * y_u = 1.  So one
    tagged reduction of I + A (:func:`_tagged_reduction`) answers every
    trial, each with one reduced vector, until a zeroing is kept; then
    it is redone.  Returns the same (rank, coeffs) as re-ranking the
    whole matrix for every trial.
    """
    n = d.n
    outs = [[] for _ in range(n)]
    for u, v in sorted(coeffs):
        outs[u].append(v)
    rows = [_row(p, n, w, [(v, coeffs[(w, v)]) for v in outs[w]]) for w in range(n)]
    pivots, best_rank, dependent = _tagged_reduction(p, n, rows)
    combinations = {}
    improved = True
    while improved:
        improved = False
        for u in range(n):
            if dependent >> u & 1:
                continue
            for v in outs[u]:
                c = coeffs[(u, v)]
                if not c:
                    continue
                if v not in combinations:
                    combinations[v] = _combination(p, n, pivots, v)
                y = combinations[v]
                if y is not None and y[u] * c % p == 1:
                    coeffs[(u, v)] = 0
                    if p == 2:
                        rows[u] &= ~(1 << v)
                    else:
                        rows[u][v] = 0
                    best_rank -= 1
                    improved = True
                    pivots, _, dependent = _tagged_reduction(p, n, rows)
                    combinations = {}
                    break
    return best_rank, dict(coeffs)


def _lower_candidates(d, p):
    """The candidates of :func:`_bounded_lower` as (dimension,
    coefficients, tag).  Coefficients A stand for the strategy
    x_v = -sum of A[u][v] x_u, so the tag ``all-ones`` (every A[u][v] = 1)
    is the all-ones strategy at p = 2 only, and minus-all-ones at odd p.
    """
    edges = d.edges()
    full = {e: 1 for e in edges}
    yield d.n - _rank_of_support(d, p, full), dict(full), "all-ones"
    r, coeffs = _descend(d, p, dict(full))
    yield d.n - r, coeffs, "support-descent"
    rng = random.Random(0)
    for _ in range(4):
        sample = {e: rng.randrange(p) for e in edges}
        r, coeffs = _descend(d, p, sample)
        yield d.n - r, coeffs, "support-descent"
    partition = dg.clique_partition_number(d)
    part_coeffs = {}
    for part in partition.parts:
        for u in part:
            for v in part:
                if u != v:
                    part_coeffs[(u, v)] = 1
    yield d.n - _rank_of_support(d, p, part_coeffs), part_coeffs, "clique-partition"


def _bounded_lower(d, p, upper=None):
    """Best fixed-space dimension found by cheap candidate strategies.

    Candidates, in order (:func:`_lower_candidates`): the strategy
    x_v = -sum of the in-neighbours' symbols (all-ones at p = 2,
    minus-all-ones at odd p), greedy descent from it, a few seeded
    random descents, and the same strategy within each class of a clique
    partition (each clique block of I + A collapses to rank 1).  The
    first candidate of the largest dimension wins.  Given a proven
    ``upper`` bound on the linear guessing number, the search
    stops at the first candidate that reaches it: no later candidate can
    do strictly better, so the result is the same as without it.
    Returns (dimension, witness, tag).
    """
    best = None
    for cand in _lower_candidates(d, p):
        if best is None or cand[0] > best[0]:
            best = cand
        if upper is not None and best[0] >= upper:
            break
    dim, coeffs, tag = best
    return dim, _matrix_from_coeffs(d, p, coeffs), tag


def _min_rank_exhaustive(d, p, budget, floor=0, ceiling=None):
    """Minimum rank(I + A) over every support-respecting A.

    Depth-first over vertices in ascending order; each vertex's row is
    e_v plus coefficients on its out-neighbours, enumerated with zero
    first, so the returned witness is the lexicographically first
    optimal coefficient pattern.  ``floor`` is a proven lower bound on
    the minimum rank; the search stops once it is reached, since no
    later pattern can do strictly better.  ``ceiling`` is the rank of a
    known pattern: the search starts as if it had found one of that
    rank, so it prunes from the start, yet the first optimal pattern,
    whose rank is at most ``ceiling``, is still found.

    A partial pattern is pruned when no completion can beat the best
    rank so far.  Once rows 0..v-1 are chosen, every one of them is zero
    on the columns U that none of their supports touches, and U lies
    inside {v..n-1}.  So I + A is block lower-triangular and any
    completion has rank at least rank(chosen rows) + rank((I + A)[U, U]),
    which is at least the largest acyclic set of D[U] (Riis 2007).  Each
    untouched mask's acyclic set is searched once per call.  A pruned
    subtree holds no strict improvement, so the witness is unchanged.

    One search serves every prime; only the row reduction of
    :func:`_push` knows the field.  It reduces a row against the rows
    chosen so far and keeps it when it is independent.
    """
    n = d.n
    outs = [d.out_neighbours(v) for v in range(n)]
    if p ** d.edge_count() > budget:
        raise BadParams("pattern space exceeds budget")
    best_rank = (n if ceiling is None else ceiling) + 1
    best = None
    pivots = []
    chosen = {}
    every = (1 << n) - 1
    acyclic = {}  # untouched mask -> size of an acyclic set of D[U]
    # one frame per vertex on the current path: [vertex, its coefficient
    # patterns left, whether its row was pushed, rank and touched mask
    # before it]
    frames = []
    v, rank, touched = 0, 0, 0  # the node to visit
    while best_rank > floor:
        untouched = every & ~touched
        cut = rank >= best_rank
        if not cut and rank + untouched.bit_count() >= best_rank:
            if untouched not in acyclic:
                acyclic[untouched] = dg._mas_search(
                    d, untouched, dg.DEFAULT_MAS_BUDGET
                ).size
            cut = rank + acyclic[untouched] >= best_rank
        if not cut:
            if v == n:
                best_rank, best = rank, dict(chosen)
            else:
                patterns = itertools.product(range(p), repeat=len(outs[v]))
                frames.append([v, patterns, False, rank, touched])
        # the next node: the next pattern of the deepest vertex with one
        while frames:
            frame = frames[-1]
            v, patterns, pushed, rank, touched = frame
            if pushed:
                pivots.pop()
            combo = next(patterns, None)
            if combo is None:
                for j in outs[v]:
                    chosen.pop((v, j), None)
                frames.pop()
                continue
            grown = touched | (1 << v)
            for j, val in zip(outs[v], combo):
                chosen[(v, j)] = val
                if val:
                    grown |= 1 << j
            frame[2] = _push(p, pivots, _row(p, n, v, zip(outs[v], combo)))
            v, rank, touched = v + 1, rank + frame[2], grown
            break
        else:
            break
    return best_rank, _matrix_from_coeffs(d, p, best or {})


def linear_guessing_number(d, p, budget=DEFAULT_LINEAR_BUDGET, exhaustive=None):
    """n minus the minimum rank of I + A over support-respecting A.

    The cheap upper bounds come first (acyclic set and, without
    bidirectional edges, row counting; n - mas is never above n minus the
    number of strong components, since the maximal acyclic set of
    ``mas_exact`` meets each one).  The candidate strategies of
    ``_bounded_lower`` then run until one meets the smallest upper bound.
    With ``exhaustive=None`` the pattern search only runs when the bounds
    fail to pinch the value and the pattern space fits the budget;
    ``exhaustive=True`` forces the search (budget permitting) in place of
    the candidates, ``exhaustive=False`` forbids it.  After the
    candidates, the search looks only for ranks up to theirs, n minus
    the lower bound, and it stops once its rank reaches n minus the
    upper bound.  Inexact calls return
    the bracketing interval with a witness for the lower end.
    """
    _check_prime(p)
    n = d.n
    mas = dg.mas_exact(d)
    uppers = [(n - mas.size, "acyclic-set")]
    if n > 0 and not d.bidirectional_pairs():
        for value, tag in _sparse_linear_uppers(d, p):
            uppers.append((floor(value + 1e-9), tag))
    upper, upper_tag = min(uppers, key=lambda t: t[0])
    fits = p ** d.edge_count() <= budget
    ceiling = None
    if exhaustive is not True or not fits:
        lower, witness, lower_tag = _bounded_lower(d, p, upper)
        exact = lower >= upper
        if exact:
            upper = lower
        if exact or exhaustive is False or not fits:
            return LinearGuessingResult(
                lower, upper, witness, exact, (lower_tag, upper_tag)
            )
        ceiling = n - lower
    min_rank, witness = _min_rank_exhaustive(
        d, p, budget, floor=n - upper, ceiling=ceiling)
    value = n - min_rank
    return LinearGuessingResult(value, value, witness, True, ("exhaustive", "exhaustive"))


def _johnson_pair_overlap(n, max_in):
    """Largest d with binom(n, max_in-d+2)/binom(max_in+1, max_in-d+2) >= n."""
    best = None
    for dd in range(1, max_in + 3):
        k = max_in - dd + 2
        if k < 0 or k > max_in + 1:
            continue
        denom = comb(max_in + 1, k)
        if denom == 0:
            continue
        if comb(n, k) >= n * denom:
            best = dd
    return best


def _sparse_linear_uppers(d, p):
    """Row-space counting bounds (real-valued); need no bidirectional edges."""
    n = d.n
    degs = [d.in_degree(v) for v in range(n)]
    delta, max_in = min(degs), max(degs)
    out = []
    if n - delta >= 1:
        out.append((n - 1 - log(n - delta, p), "row-count-min-degree"))
    e = _johnson_pair_overlap(n, max_in)
    if e is not None and n - max_in - e >= 1:
        out.append((n - 2 - log(n - max_in - e, p), "row-count-max-degree"))
    return out


def linear_product_lower(d1, d2, p):
    """Product lower bound with an explicit Kronecker witness.

    Returns (bound, witness A) where I + A is the Kronecker product of
    the factor witnesses; the witness rank is re-verified.
    """
    r1 = linear_guessing_number(d1, p)
    r2 = linear_guessing_number(d2, p)
    n1, n2 = d1.n, d2.n
    bound = n1 * n2 - (n1 - r1.lower) * (n2 - r2.lower)
    eye1 = GfMatrix.identity(n1, p)
    eye2 = GfMatrix.identity(n2, p)
    w1 = eye1.add(r1.witness)
    w2 = eye2.add(r2.witness)
    prod = w1.kron(w2)
    expected = (n1 - r1.lower) * (n2 - r2.lower)
    if rank_gfp(prod) != expected:
        raise AssertionError("Kronecker witness rank mismatch")
    witness = prod.add(GfMatrix.identity(n1 * n2, p).neg())
    return bound, witness


def fixed_space_basis(d, p, witness):
    """Fixed-space basis of the strategy carried by a witness matrix.

    The witness minimizes rank(I + A); the induced strategy uses
    coefficients -A, so its fixed space is the nullspace of I + A^T.
    Each basis vector is re-verified against the local functions.
    """
    _check_prime(p)
    if (witness.rows, witness.cols, witness.p) != (d.n, d.n, p):
        raise BadParams("shape or field mismatch")
    coeffs = {
        (u, v): -e
        for u, row in enumerate(witness.entries)
        for v, e in enumerate(row)
        if e
    }
    return _fixed_basis(d, p, coeffs)


# -- text format -------------------------------------------------------


def matrix_to_text(m):
    lines = [f"{m.rows} {m.cols} {m.p}"]
    lines += [" ".join(str(e) for e in row) for row in m.entries]
    return "\n".join(lines) + "\n"


def matrix_from_text(text):
    """Parse 'rows cols p', then one line per row; '#' lines are comments."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    try:
        rows, cols, p = (int(t) for t in lines[0].split())
        entries = [[int(t) for t in ln.split()] for ln in lines[1 : 1 + rows]]
    except (IndexError, ValueError):  # no header line, or not three integers
        raise BadParams("malformed matrix text") from None
    m = GfMatrix(entries, p)
    if m.rows != rows or m.cols != cols:
        raise BadParams("matrix text shape mismatch")
    return m
