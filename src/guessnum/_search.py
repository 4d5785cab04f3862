"""Bitset branch-and-bound primitives shared by the exact solvers.

Graphs are given as one adjacency bitmask per vertex (no self-bits).
All searches are deterministic: pivots are lowest-index, value choices
ascending, so reported witnesses are reproducible.
"""

from __future__ import annotations


def max_independent_set(rows, n, cover, seed_mask=0, node_budget=None,
                        transitive=False):
    """Exact maximum independent set on a bitmask graph.

    ``cover`` is a clique cover given as a fold, ``(shifts, keep)``: OR
    a candidate mask with itself shifted down by each of ``shifts`` in
    turn, and the bits left in ``keep`` are one per cover class that
    the candidates meet; their count bounds the independent sets inside
    them.  ``((), every)`` bounds by the candidate count.
    ``seed_mask`` is a known independent set used only to tighten the
    initial bound; the witness, returned as a mask, is the
    lexicographically smallest optimum.

    ``transitive`` states that the graph is vertex-transitive, as a
    Cayley graph is.  Then moving any optimum so that one of its
    members lands on vertex 0 gives an optimum that contains 0, so the
    lexicographically smallest optimum contains 0: once the subtree
    that includes vertex 0 is done, the root's exclude branch is
    skipped.

    Each node branches on its lowest candidate.  The exclude branch is
    pushed, and the include branch is taken in place, so it is visited
    next and that subtree is done before the exclude branch is popped.
    Every node counts against ``node_budget``.

    Returns (size, witness_mask, exact).
    """
    if n == 0:
        return 0, 0, True
    shifts, keep = cover
    best_size = seed_mask.bit_count() - 1 if seed_mask else 0
    best_mask = seed_mask
    nodes = 0
    exhausted = False
    every = (1 << n) - 1
    # the node whose candidates equal ``root`` skips its exclude branch
    root = every if transitive else -1
    size, mask, candidates = 0, 0, every
    stack = []
    while True:
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            exhausted = True
            break
        if candidates:
            met = candidates
            for shift in shifts:
                met |= met >> shift
            if size + (met & keep).bit_count() > best_size:
                low = candidates & -candidates
                rest = candidates ^ low
                if candidates != root:
                    stack.append((size, mask, rest))
                size += 1
                mask |= low
                candidates = rest & ~rows[low.bit_length() - 1]
                continue
        elif size > best_size:
            best_size, best_mask = size, mask
        if not stack:
            break
        size, mask, candidates = stack.pop()
    if best_mask == seed_mask and seed_mask:
        best_size = seed_mask.bit_count()
    return best_size, best_mask, not exhausted


def ascending_greedy(rows, mask):
    """Take the lowest vertex left in ``mask``, then drop it and its row;
    the vertices taken, as a mask.

    On a graph's adjacency rows they form an independent set (on a
    code-distance graph, the lexicode).  On a digraph's in-rows each
    pick drops its in-neighbours, so every edge among the picks points
    from a lower vertex to a higher one: they induce an acyclic
    subgraph, of size >= |mask| / (max in-degree + 1).
    """
    chosen = 0
    while mask:
        low = mask & -mask
        chosen |= low
        mask &= ~(rows[low.bit_length() - 1] | low)
    return chosen


def max_clique_size_lower(rows, n):
    """Greedy clique, a cheap lower bound for chromatic searches."""
    best = 0
    for start in range(n):
        cand = rows[start]
        size = 1
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            size += 1
            cand &= rows[v]
        best = max(best, size)
    return best


def _degree_masks(rows, n):
    """The vertices grouped by degree, one mask per degree, highest first."""
    by_degree = {}
    for v in range(n):
        d = rows[v].bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    return [by_degree[d] for d in sorted(by_degree, reverse=True)]


def _pick(level, top, degree_masks):
    """The next DSATUR vertex and its level.

    ``level[j]`` holds the uncoloured vertices that see j colours, and
    no level above ``top`` is occupied.  The vertex is the lowest of the
    first degree class met in the highest occupied level: the most
    distinct neighbour colours, then the highest degree, then the lowest
    index.
    """
    j = top
    while not level[j]:
        j -= 1
    for mask in degree_masks:
        m = level[j] & mask
        if m:
            return (m & -m).bit_length() - 1, j


def _saturate(level, top, fresh):
    """Move the uncoloured vertices of ``fresh`` up one level.

    ``fresh`` holds the vertices that have just seen a colour for the
    first time; no level above ``top`` is occupied.
    """
    for i in range(top, -1, -1):
        moved = level[i] & fresh
        if moved:
            level[i] ^= moved
            level[i + 1] |= moved


def greedy_dsatur(rows, n):
    """DSATUR greedy colouring; ties broken by lowest vertex index.

    Each step colours the uncoloured vertex with the most distinct
    neighbour colours, then the highest degree, then the lowest index,
    with the lowest colour none of its neighbours has.  That is the
    first descent of the :func:`find_k_coloring` search with a colour
    for every vertex: a new colour is always allowed, so the descent
    never backtracks.
    """
    return _dsatur_search(rows, n, n, None)[0]


def find_k_coloring(rows, n, k, node_budget=None):
    """Backtracking search for a proper k-colouring (DSATUR order).

    Returns (colouring_or_None, complete).  A None with complete=True is
    a proof that no k-colouring exists; with complete=False the budget
    ran out first (budget None = complete search).
    """
    return _dsatur_search(rows, n, k, node_budget)


def _dsatur_search(rows, n, k, node_budget):
    """The search of :func:`find_k_coloring`, shared with
    :func:`greedy_dsatur`, whose descent is thus no call of
    :func:`find_k_coloring`.

    The next vertex has the most distinct neighbour colours, then the
    highest degree, then the lowest index; colours are tried ascending,
    and a new one only after every colour in use.  The state is bitmasks:
    ``seen[c]`` holds the vertices with a neighbour coloured c, and
    ``level[j]`` the uncoloured vertices that see j colours, so a node
    costs O(k) mask operations instead of a scan of every vertex.  Each
    coloured vertex has a frame on an explicit stack: the vertex, the
    levels saved after it left its own, the colour count u before it,
    its colour, and ``seen`` of that colour before it.  Only levels
    0..u + 1 are saved: no vertex sees more colours than are in use, so
    when its subtree is undone no higher level is occupied.  Every node
    counts against the budget, the last one (every vertex coloured) too.
    """
    colors = [-1] * n
    seen = [0] * k
    level = [(1 << n) - 1] + [0] * k
    degree_masks = _degree_masks(rows, n)
    frames = []
    used = 0
    nodes = 0
    while True:
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            return None, False
        if len(frames) == n:
            return colors, True
        v, j = _pick(level, used, degree_masks)
        level[j] ^= 1 << v
        frames.append([v, level[:used + 2], used, -1, 0])
        # give the deepest vertex its next colour; one with none left
        # goes, and the vertex before it moves on
        while frames:
            frame = frames[-1]
            v, saved, used, c, before = frame
            if c >= 0:
                seen[c] = before
                level[:used + 2] = saved
            bit = 1 << v
            top = used + 1 if used < k else k
            c += 1
            while c < top and seen[c] & bit:
                c += 1
            if c < top:
                before = seen[c]
                colors[v] = c
                _saturate(level, used, rows[v] & ~before)
                seen[c] = before | rows[v]
                frame[3], frame[4] = c, before
                if c == used:
                    used += 1
                break
            frames.pop()
        else:
            return None, True


def exact_chromatic(rows, n, lower, initial_coloring, node_budget=None):
    """Iterative deepening from ``lower`` up to the initial colouring.

    Returns (count, colouring, exact).  exact=False means the budget ran
    out before minimality could be certified; the reported colouring is
    still proper, so the count stays a valid upper bound.
    """
    best = list(initial_coloring)
    best_k = max(best) + 1 if best else 0
    if n == 0:
        return 0, [], True
    k = max(lower, 1)
    certified = True
    while k < best_k:
        col, complete = find_k_coloring(rows, n, k, node_budget=node_budget)
        if col is not None:
            return k, col, certified
        if not complete:
            certified = False
            break
        k += 1
    return best_k, best, certified
