"""Seeded inputs, jobs and answer checks for the benchmark workloads.

A workload turns a seed into a fixed list of jobs (one *pass*), runs a
single job against the program and checks the answer against closed
forms and invariants.  The composition of a pass is fixed (so many jobs
of each stratum); the seed only draws the members of each stratum, so
passes built from different seeds cost about the same.

Every call into the program goes through a module attribute of ``lib``
(for example ``lib.solvers.max_independent_set``) at call time, so the
tracer's wrappers see it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random
from dataclasses import dataclass, field
from typing import Callable

# Node budgets of the configuration-graph searches in ``config_search``.
# They turn the exponential tail of the searches into deterministic
# inexact answers; the K_6 / GF(3) job stops at alpha = 183 < 243.
MIS_BUDGET = 20_000
CHROMATIC_BUDGET = 500


@dataclass(frozen=True)
class Job:
    label: str  # stratum, e.g. "random-s2-n8" or "clique-2^10"
    s: int
    data: object
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    exact: bool
    reason: str = ""


def _verdict(problems, exact):
    return Verdict(not problems, exact, "; ".join(problems))


@dataclass(frozen=True)
class Workload:
    build: Callable  # (lib, seed) -> list[Job]
    run: Callable  # (lib, job) -> answer
    check: Callable  # (job, answer) -> Verdict
    probe: Callable  # lib -> small Job with closed-form expectations
    corrupt: Callable  # answer -> a wrong answer, for the self-check


# -- shared constructors --------------------------------------------------


def random_strong(lib, rng, n, low, high):
    """Seeded random strongly connected digraph (rejection sampling).

    Each ordered pair is an edge with a probability drawn from [low, high).
    """
    dg = lib.digraph
    while True:
        p = rng.uniform(low, high)
        edges = [
            (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p
        ]
        d = dg.Digraph(n, edges)
        if len(dg.strong_components(d).components) == 1:
            return d


def relabel(lib, rng, d):
    perm = list(range(d.n))
    rng.shuffle(perm)
    return lib.digraph.Digraph(d.n, [(perm[u], perm[v]) for u, v in d.edges()])


def random_strata(lib, rng, strata, prefix):
    """``count`` random strong digraphs per (s, n, count) stratum.

    The edge probabilities of a stratum are stratified over [0.2, 0.6):
    job i draws its probability from the i-th of ``count`` equal slices,
    so every pass covers sparse and dense digraphs alike.
    """
    out = []
    for s, n, count in strata:
        for i in range(count):
            low = 0.2 + 0.4 * i / count
            d = random_strong(lib, rng, n, low, low + 0.4 / count)
            out.append((f"{prefix}-s{s}-n{n}", s, d))
    return out


def divisors(lib, n):
    """Bits of every divisor g of x^n + 1 with 1 <= deg g < n."""
    poly = lib.cyclic.Gf2Poly
    f = lib.cyclic.x_power_plus_one(n)
    factors = []
    bits = 3  # x + 1; x itself never divides x^n + 1
    while f.degree > 0:
        g = poly(bits)
        if 2 * g.degree > f.degree:
            factors.append(f)
            break
        q, r = divmod(f, g)
        if r.is_zero():
            factors.append(g)
            f = q
        else:
            bits += 1
    products = {1}
    for g in factors:
        products |= {(poly(b) * g).bits for b in products}
    return sorted(b for b in products if 1 <= poly(b).degree < n)


# -- config_search -------------------------------------------------------

CONFIG_RANDOM_STRATA = (  # (s, n, jobs per pass)
    (2, 6, 40),
    (2, 7, 40),
    (2, 8, 60),
    (2, 9, 24),
    (3, 4, 30),
    (3, 5, 40),
)


@dataclass(frozen=True)
class ConfigAnswer:
    alpha: int
    alpha_exact: bool
    chi: int
    chi_exact: bool
    fixed: int  # configurations fixed by the protocol built from the witness


def _cycle(lib, n, s):
    return lib.digraph.cycle(n), {"alpha": s, "chi": s ** (n - 1)}


def _clique(lib, n, s):
    return lib.digraph.clique(n), {"alpha": s ** (n - 1), "chi": s}


def _bipartite(lib, m, k):
    return lib.digraph.complete_bipartite(m, k), {"alpha": 2 ** min(m, k)}


def _product(lib, a, b):
    d = lib.digraph.strong_product(lib.digraph.cycle(a), lib.digraph.cycle(b))
    return d, ({"alpha": 32} if (a, b) == (3, 3) else {})


def _expand(lib, n, k):
    return lib.digraph.k_expand(lib.digraph.cycle(n), k), {}


def _ring(lib, length, power, copies):
    return lib.digraph.cycle_power_ring(length, power, copies), {}


def _code(lib, n, rng):
    g = lib.cyclic.Gf2Poly(rng.choice(divisors(lib, n)))
    # a divisor's digraph has g = deg(g): the all-ones strategy fixes
    # 2^deg(g) configurations and a maximum acyclic set has n - deg(g) vertices
    return lib.cyclic.digraph_from_polynomial(g, n), {"alpha": 2 ** g.degree}


def _families():
    """Paper families with 2^9..2^11 configurations, one job each per pass."""
    p = functools.partial
    return (
        ("cycle-2^9", 2, p(_cycle, n=9, s=2)),
        ("cycle-2^10", 2, p(_cycle, n=10, s=2)),
        ("cycle-3^6", 3, p(_cycle, n=6, s=3)),
        ("clique-2^9", 2, p(_clique, n=9, s=2)),
        ("clique-2^10", 2, p(_clique, n=10, s=2)),
        ("clique-3^6", 3, p(_clique, n=6, s=3)),
        ("bipartite-2^9", 2, p(_bipartite, m=4, k=5)),
        ("bipartite-2^9", 2, p(_bipartite, m=3, k=6)),
        ("bipartite-2^10", 2, p(_bipartite, m=5, k=5)),
        ("bipartite-2^10", 2, p(_bipartite, m=4, k=6)),
        ("bipartite-2^11", 2, p(_bipartite, m=5, k=6)),
        ("product-2^9", 2, p(_product, a=3, b=3)),
        ("product-2^10", 2, p(_product, a=2, b=5)),
        ("expand-2^9", 2, p(_expand, n=3, k=3)),
        ("expand-2^10", 2, p(_expand, n=5, k=2)),
        ("expand-2^10", 2, p(_expand, n=2, k=5)),
        ("ring-2^9", 2, p(_ring, length=3, power=1, copies=3)),
        ("ring-2^10", 2, p(_ring, length=5, power=1, copies=2)),
        ("code-2^9", 2, p(_code, n=9)),
        ("code-2^10", 2, p(_code, n=10)),
    )


def _config_job(lib, label, s, d, expect):
    expect = dict(expect, mas=lib.digraph.mas_exact(d).size)
    return Job(label, s, d, expect)


def build_config(lib, seed):
    rng = random.Random(seed)
    jobs = []
    for label, s, d in random_strata(lib, rng, CONFIG_RANDOM_STRATA, "random"):
        jobs.append(_config_job(lib, label, s, d, {}))
    for label, s, build in _families():
        d, expect = build(lib, rng=rng) if build.func is _code else build(lib)
        jobs.append(_config_job(lib, label, s, relabel(lib, rng, d), expect))
    rng.shuffle(jobs)
    return jobs


def run_config(lib, job):
    d, s = job.data, job.s
    solvers = lib.solvers
    handle = lib.guessing_graph.GuessingGraph(d, s)
    mis = solvers.max_independent_set(handle, node_budget=MIS_BUDGET)
    chrom = solvers.chromatic_number(
        handle, mis_witness=mis.witness, node_budget=CHROMATIC_BUDGET
    )
    protocol = solvers.protocol_from_independent_set(d, s, mis.witness)
    fixed = solvers.fixed_configurations(d, s, protocol)
    return ConfigAnswer(mis.alpha, mis.exact, chrom.chi, chrom.exact, len(fixed))


def check_config(job, a):
    s, n, e = job.s, job.data.n, job.expect
    alpha_cap = s ** (n - e["mas"])  # clique cover from a maximum acyclic set
    problems = []
    if not 1 <= a.alpha <= a.fixed:
        problems.append(f"protocol fixes {a.fixed} < alpha {a.alpha}")
    if a.fixed > alpha_cap:
        problems.append(f"{a.fixed} fixed configurations exceed s^(n-mas) = {alpha_cap}")
    if a.alpha_exact and a.fixed != a.alpha:
        problems.append(f"exact alpha {a.alpha} but a protocol fixes {a.fixed}")
    if a.chi < s ** e["mas"]:
        problems.append(f"chi {a.chi} below the clique size s^mas")
    alpha_upper = a.alpha if a.alpha_exact else alpha_cap
    if a.chi * alpha_upper < s**n:
        problems.append("b + g < n")
    if "alpha" in e:
        if a.alpha_exact and a.alpha != e["alpha"]:
            problems.append(f"alpha {a.alpha} != closed form {e['alpha']}")
        if not a.alpha_exact and a.fixed > e["alpha"]:
            problems.append(f"lower bound {a.fixed} above closed form {e['alpha']}")
    if "chi" in e:
        if a.chi_exact and a.chi != e["chi"]:
            problems.append(f"chi {a.chi} != closed form {e['chi']}")
        if not a.chi_exact and a.chi < e["chi"]:
            problems.append(f"upper bound {a.chi} below closed form {e['chi']}")
    return _verdict(problems, a.alpha_exact and a.chi_exact)


def probe_config(lib):
    d, expect = _clique(lib, 4, 2)
    return _config_job(lib, "probe", 2, d, expect)


def corrupt_config(a):
    return dataclasses.replace(a, alpha=a.alpha + 1)


# -- cyclic_sweep --------------------------------------------------------

CYCLIC_LENGTHS = range(12, 21)
DIVISOR_SHARE = 2 / 3  # of the divisors of each x^n + 1, drawn per pass
NON_DIVISORS_PER_LENGTH = 2
# gf_linear's exhaustive pattern search runs when the cheap bounds leave a
# bracket and the digraph has at most this many edges.  Its cost depends
# steeply on the generator (0.9 to 6.3 s for weight-3 generators at
# n = 12), so random non-divisors stay above it and one fixed generator,
# x^5 + x^2 + 1 on 12 vertices (about 0.9 s), covers it in every pass.
EXHAUSTIVE_EDGES = 24
SPARSE_NON_DIVISOR = (0b100101, 12)


def stratified_draw(rng, pool, share):
    """ceil(share * len(pool)) members, one from each consecutive slice.

    ``pool`` is ascending (divisor bits ascend with the degree), so every
    draw keeps the same mix of low- and high-degree members.
    """
    k = math.ceil(len(pool) * share)
    return [rng.choice(pool[i * len(pool) // k:(i + 1) * len(pool) // k]) for i in range(k)]


def _non_divisor(lib, rng, n, pool):
    """f * r for a divisor f of x^n + 1 and a random cofactor r.

    Such a generator is not a divisor itself but shares the factor f with
    x^n + 1, like the mixed-weight generator of the paper's n = 14 example.
    Its digraph has more than EXHAUSTIVE_EDGES edges.
    """
    cy = lib.cyclic
    while True:
        f = cy.Gf2Poly(rng.choice(pool))
        room = n - 1 - f.degree
        if room < 1:
            continue
        k = rng.randint(1, room)
        h = f * cy.Gf2Poly((1 << k) | rng.getrandbits(k) | 1)
        if cy.divides_xn1(h, n):
            continue
        if cy.digraph_from_polynomial(h, n).edge_count() > EXHAUSTIVE_EDGES:
            return h, f.degree


def build_cyclic(lib, seed):
    rng = random.Random(seed)
    jobs = []
    for n in CYCLIC_LENGTHS:
        pool = divisors(lib, n)
        for bits in stratified_draw(rng, pool, DIVISOR_SHARE):
            g = lib.cyclic.Gf2Poly(bits)
            lib.cyclic.digraph_from_polynomial(g, n)  # validates the generator
            jobs.append(Job(f"divisor-n{n}", 2, (g, n), {"divides": True}))
        for _ in range(NON_DIVISORS_PER_LENGTH):
            h, shared = _non_divisor(lib, rng, n, pool)
            jobs.append(
                Job(f"non-divisor-n{n}", 2, (h, n), {"divides": False, "shared": shared})
            )
    bits, n = SPARSE_NON_DIVISOR
    h = lib.cyclic.Gf2Poly(bits)
    lib.cyclic.digraph_from_polynomial(h, n)
    # x^5 + x^2 + 1 is irreducible and does not divide x^12 + 1
    jobs.append(Job(f"sparse-non-divisor-n{n}", 2, (h, n), {"divides": False, "shared": 0}))
    rng.shuffle(jobs)
    return jobs


def run_cyclic(lib, job):
    g, n = job.data
    report = lib.cyclic.polynomial_digraph_report(g, n)
    d = lib.cyclic.digraph_from_polynomial(g, n)
    bounds = lib.solvers.bounds_report(d, 2)
    linear = lib.gf_linear.linear_guessing_number(d, 2)
    return report, bounds, linear


def check_cyclic(job, answer):
    report, bounds, linear = answer
    (g, n), e = job.data, job.expect
    eps = 1e-9
    problems = []
    if report.divides != e["divides"]:
        problems.append(f"divides={report.divides}, expected {e['divides']}")
    if e["divides"]:
        if report.mas_exact and not report.mas_matches_degree:
            problems.append(f"mas {report.mas_size} != n - deg(g)")
        if not report.fixed_dim_matches_degree:
            problems.append(f"fixed dimension {report.fixed_space_dimension} != deg(g)")
        if not linear.lower <= g.degree <= linear.upper:
            problems.append(f"linear [{linear.lower}, {linear.upper}] misses deg(g) {g.degree}")
    else:
        if report.gcd_lower_bound < e["shared"]:
            problems.append(f"gcd degree {report.gcd_lower_bound} < shared factor {e['shared']}")
    if linear.lower < report.fixed_space_dimension:
        problems.append("linear lower bound below the all-ones strategy")
    if linear.lower > linear.upper:
        problems.append("linear bracket is empty")
    if linear.lower > bounds.g_upper + eps:
        problems.append(f"linear lower {linear.lower} > g upper {bounds.g_upper:.3f}")
    exact = report.mas_exact and bounds.mas.exact and linear.exact
    return _verdict(problems, exact)


def probe_cyclic(lib):
    return Job("probe", 2, (lib.cyclic.parse_poly("1101"), 7), {"divides": True})


def corrupt_cyclic(answer):
    report, bounds, linear = answer
    wrong = dataclasses.replace(linear, lower=linear.upper + 1, upper=linear.upper + 1)
    return report, bounds, wrong


# -- netcode_solve -------------------------------------------------------

NETCODE_RANDOM_STRATA = (  # (s, n, jobs per pass)
    (2, 4, 100),
    (2, 5, 200),
    (3, 3, 100),
    (3, 4, 200),
)
BOTTLENECK_SIZES = range(1, 5)


def _shuffled(lib, rng, instance):
    """Same instance with its intermediates and edges listed in a new order."""
    inter = list(instance.intermediates)
    edges = list(instance.edges)
    rng.shuffle(inter)
    rng.shuffle(edges)
    return lib.netcode.NetworkInstance(
        instance.sources, instance.sinks, tuple(inter), tuple(edges)
    )


def build_netcode(lib, seed):
    rng = random.Random(seed)
    nc = lib.netcode
    jobs = []
    for s in (2, 3):
        inst = _shuffled(lib, rng, nc.butterfly())
        jobs.append(Job(f"butterfly-s{s}", s, inst, {"solvable": True}))
    for pairs in BOTTLENECK_SIZES:
        for relays in BOTTLENECK_SIZES:
            inst = _shuffled(lib, rng, nc.bottleneck(pairs, relays))
            jobs.append(Job("bottleneck", 2, inst, {"solvable": relays >= pairs}))
    for label, s, d in random_strata(lib, rng, NETCODE_RANDOM_STRATA, "split"):
        inst = nc.from_digraph(d, lib.digraph.mas_exact(d).witness)
        jobs.append(Job(label, s, inst, {}))
    rng.shuffle(jobs)
    return jobs


def run_netcode(lib, job):
    text = lib.netcode.to_text(job.data)
    instance = lib.netcode.from_text(text)
    return instance == job.data, lib.netcode.solvable(instance, job.s)


def check_netcode(job, answer):
    round_trip, res = answer
    s, inst = job.s, job.data
    pairs, relays = inst.n_pairs, len(inst.intermediates)
    problems = []
    if not round_trip:
        problems.append("text round trip changed the instance")
    if res.n_pairs != pairs:
        problems.append(f"n_pairs {res.n_pairs} != {pairs}")
    if not 1 <= res.alpha <= s**pairs:
        problems.append(f"alpha {res.alpha} outside [1, s^pairs]")
    if res.solvable != (res.alpha == s**pairs):
        problems.append(f"solvable={res.solvable} but alpha={res.alpha}")
    if res.solvable and res.certificate is None:
        problems.append("solvable without a certificate")
    if "solvable" in job.expect and res.solvable != job.expect["solvable"]:
        problems.append(f"solvable={res.solvable}, closed form {job.expect['solvable']}")
    if res.defect_value is not None:
        # the intermediates induce an acyclic set, so their s^m words form a clique
        if res.defect_value < s**relays:
            problems.append(f"defect {res.defect_value} below s^intermediates")
        if res.defect_value * res.alpha < s ** (pairs + relays):
            problems.append("b + g < n")
    return _verdict(problems, True)


def probe_netcode(lib):
    return Job("probe", 2, lib.netcode.butterfly(), {"solvable": True})


def corrupt_netcode(answer):
    round_trip, res = answer
    return round_trip, dataclasses.replace(res, solvable=not res.solvable)


WORKLOADS = {
    "config_search": Workload(
        build_config, run_config, check_config, probe_config, corrupt_config
    ),
    "cyclic_sweep": Workload(
        build_cyclic, run_cyclic, check_cyclic, probe_cyclic, corrupt_cyclic
    ),
    "netcode_solve": Workload(
        build_netcode, run_netcode, check_netcode, probe_netcode, corrupt_netcode
    ),
}
