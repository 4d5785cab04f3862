"""Digest every answer of the benchmark's jobs.

Runs each ``config_search``, ``netcode_solve`` and ``cyclic_sweep`` job
of seeds 1 and 2 against the package under ``<root>/src`` and prints
one line per job: its index, its label, a short ``key=value`` summary
and a SHA-256 of the pickled answer.  The summary holds alpha, chi and
their exact flags, or the linear bracket ``lower..upper`` for the
linear lines, so a diff of two digests shows which way a changed
answer moved.  For ``config_search`` the answer holds the
``MisResult``, the full ``ChromaticResult`` (colouring included), the
adjacency rows and the protocol's fixed configurations, with the
benchmark's node budgets; for ``netcode_solve`` it holds the
``SolvabilityResult`` and the ``DefectResult`` (class partition
included) of the merged digraph; for ``cyclic_sweep`` it is the
benchmark's own answer (the polynomial report, the bounds report and
the linear guessing number).

The benchmark runs only prime alphabets, so the script also digests a
fixed seeded set of information-defect jobs over the composite
alphabets 4 and 6: the ``MisResult`` and the ``ChromaticResult`` that
``information_defect`` computes (the maximum independent set, then the
chromatic number from its witness and its size), under the
``config_search`` node budgets, so that a search that stalls cannot
hang the run.

The benchmark's linear work is all over GF(2), so the script also
digests a fixed seeded set of linear jobs over GF(3) and GF(5): for
each digraph, ``linear_guessing_number`` in each ``exhaustive`` mode
(witness included) with the fixed-space basis of that witness from
``fixed_space_basis``, and the all-ones basis from
``full_support_fixed_basis``.  A pattern budget of 2^16 keeps each
exhaustive search small.

Last, the script digests a fixed seeded set of random matrices over
GF(2), GF(3), GF(5) and GF(7), 1 to 9 rows and columns, tall and wide,
some of low rank by construction and with zeroed rows and columns: one
line per matrix with its ``rank_gfp`` and a SHA-256 of its pickled
``nullspace_gfp`` basis.  No digraph job builds such shapes.

Every digraph the benchmark hands to ``guessing_number`` is strongly
connected, so the script also digests a fixed seeded set of non-strong
digraphs, unidirectional and disjoint unions of two seeded random
digraphs at s = 2 and 3: the result's alpha, value, components and
exact flag, and the configurations its protocol fixes.  The protocol's
tables are left out, so that a change in what each vertex reads shows
only where it changes the fixed set.

Last, the script digests the paper's cyclic-code instances over GF(2):
each generator's circulant digraph (x^4 + x + 1 at n = 15 through
x^7 + x + 1 at n = 127) split at its maximum acyclic set, and the
``SolvabilityResult`` of ``solvable`` under the default guard.  A line
reads ``SizeGuard`` where the package raises it, so a diff shows which
instances a change newly solves.

To check that a change leaves every answer as it was, run it on two
checkouts and compare the output::

    python3 scripts/answer_digest.py --root <parent checkout> > parent.txt
    python3 scripts/answer_digest.py --root . > change.txt
    diff parent.txt change.txt

The script re-executes itself under PYTHONHASHSEED=0, as the benchmark
does, so that set iteration order cannot differ between the two runs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import os
import pickle
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = (1, 2)  # the benchmark's seeds
COMPOSITE = ((4, 4), (6, 3))  # (alphabet, largest vertex count)
COMPOSITE_SEED = 7
COMPOSITE_JOBS = 30  # per alphabet
PRIMES = ((3, 5), (5, 4))  # (field, largest vertex count)
PRIME_SEED = 11
PRIME_JOBS = 30  # per field
LINEAR_BUDGET = 1 << 16  # coefficient patterns an exhaustive search may list
MATRIX_FIELDS = (2, 3, 5, 7)
MATRIX_SEED = 13
MATRIX_JOBS = 50  # per field
UNIONS = ((2, 6), (3, 3))  # (alphabet, largest vertex count of each part)
UNION_SEED = 17
UNION_JOBS = 30  # per alphabet, alternately unidirectional and disjoint
PAPER_CODES = (  # (generator, n): the paper's cyclic-code instances
    ("x^4+x+1", 15),
    ("x^11+x^9+x^7+x^6+x^5+x+1", 23),
    ("x^5+x^2+1", 31),
    ("x^6+x+1", 63),
    ("x^7+x+1", 127),
)


class Library:
    """The package's modules as attributes, the shape the workloads expect."""

    def __init__(self):
        for name in ("digraph", "guessing_graph", "_search", "solvers",
                     "gf_linear", "cyclic", "netcode", "errors"):
            setattr(self, name, importlib.import_module(f"guessnum.{name}"))


def mis_chi_summary(answer):
    mis, chrom = answer[:2]
    return (f"alpha={mis.alpha} alpha_exact={mis.exact} "
            f"chi={chrom.chi} chi_exact={chrom.exact}")


def bracket(res):
    return f"{res.lower}..{res.upper}"


def config_answer(lib, workloads, job):
    d, s = job.data, job.s
    handle = lib.guessing_graph.GuessingGraph(d, s)
    mis = lib.solvers.max_independent_set(handle, node_budget=workloads.MIS_BUDGET)
    chrom = lib.solvers.chromatic_number(
        handle, mis_witness=mis.witness, node_budget=workloads.CHROMATIC_BUDGET
    )
    protocol = lib.solvers.protocol_from_independent_set(d, s, mis.witness)
    fixed = lib.solvers.fixed_configurations(d, s, protocol)
    return mis, chrom, handle.rows, fixed


def netcode_answer(lib, workloads, job):
    res = lib.netcode.solvable(job.data, job.s)
    merged, _ = lib.netcode.to_guessing_digraph(job.data)
    defect = None
    if job.s**merged.n <= 1 << 14:
        defect = lib.solvers.information_defect(merged, job.s)
    return res, defect


def cyclic_answer(lib, workloads, job):
    return workloads.run_cyclic(lib, job)


def netcode_summary(answer):
    res, defect = answer
    text = f"solvable={res.solvable} alpha={res.alpha}"
    if defect is not None:
        text += f" chi={defect.chi} chi_exact={defect.exact}"
    return text


def cyclic_summary(answer):
    linear = answer[2]
    return f"linear={bracket(linear)} linear_exact={linear.exact}"


def seeded_jobs(lib, seed, sizes, count):
    """Seeded random digraphs: ``count`` per (alphabet, largest vertex count)."""
    rng = random.Random(seed)
    for s, top in sizes:
        for index in range(count):
            n = rng.randint(1, top)
            p = rng.uniform(0.2, 0.9)
            edges = [(u, v) for u in range(n) for v in range(n)
                     if u != v and rng.random() < p]
            yield s, index, lib.digraph.from_edge_list(n, edges)


def defect_answer(lib, workloads, d, s):
    handle = lib.guessing_graph.GuessingGraph(d, s)
    mis = lib.solvers.max_independent_set(handle, node_budget=workloads.MIS_BUDGET)
    chrom = lib.solvers.chromatic_number(
        handle, mis_witness=mis.witness, node_budget=workloads.CHROMATIC_BUDGET,
        alpha_upper=mis.alpha if mis.exact else None,
    )
    return mis, chrom


def linear_answer(lib, d, p):
    gl = lib.gf_linear
    answer = [gl.full_support_fixed_basis(d, p)]
    for mode in (None, True, False):
        res = gl.linear_guessing_number(d, p, budget=LINEAR_BUDGET, exhaustive=mode)
        answer.append((res, gl.fixed_space_basis(d, p, res.witness)))
    return answer


def linear_summary(answer):
    # one bracket per exhaustive mode, as linear_answer lists them
    return "linear=" + ",".join(bracket(res) for res, _ in answer[1:])


def union_jobs(lib, seed, sizes, count):
    """Seeded non-strong digraphs: ``count`` unions of two seeded random
    digraphs per (alphabet, largest part), alternately unidirectional
    and disjoint."""
    parts = list(seeded_jobs(lib, seed, sizes, 2 * count))
    for (s, index, left), (_, _, right) in zip(parts[::2], parts[1::2]):
        kind = ("unidirectional", "disjoint")[index // 2 % 2]
        yield s, index // 2, kind, getattr(lib.digraph, f"{kind}_union")(left, right)


def union_answer(lib, d, s):
    res = lib.solvers.guessing_number(d, s)
    fixed = lib.solvers.fixed_configurations(d, s, res.protocol)
    return res.alpha, res.value, res.components, res.exact, fixed


def union_summary(answer):
    alpha, _, components, exact, fixed = answer
    return (f"alpha={alpha} exact={exact} components={len(components)} "
            f"fixed={len(fixed)}")


def paper_line(lib, text, n):
    """The summary and hash of ``solvable`` on a split cyclic-code
    instance, or ``SizeGuard`` when the package raises it."""
    d = lib.cyclic.digraph_from_polynomial(lib.cyclic.parse_poly(text), n)
    instance = lib.netcode.from_digraph(d, lib.digraph.mas_exact(d).witness)
    label = f"{text}-n{n}-pairs{instance.n_pairs}"
    try:
        res = lib.netcode.solvable(instance, 2)
    except lib.errors.SizeGuard:
        return f"{label} SizeGuard"
    return f"{label} {line(res, paper_summary)}"


def paper_summary(res):
    return f"solvable={res.solvable} alpha={res.alpha} defect={res.defect_value}"


def seeded_matrices(lib, seed, fields, count):
    """Seeded random matrices: ``count`` per field, 1 to 9 rows and columns."""
    rng = random.Random(seed)
    for p in fields:
        for index in range(count):
            rows, cols = rng.randint(1, 9), rng.randint(1, 9)
            if rng.random() < 0.5:  # rank at most k
                k = rng.randint(1, min(rows, cols))
                left = [[rng.randrange(p) for _ in range(k)] for _ in range(rows)]
                right = [[rng.randrange(p) for _ in range(cols)] for _ in range(k)]
                entries = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                           for row in left]
            else:
                entries = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
            for i in rng.sample(range(rows), rng.randint(0, rows // 2)):
                entries[i] = [0] * cols
            for j in rng.sample(range(cols), rng.randint(0, cols // 2)):
                for row in entries:
                    row[j] = 0
            yield p, index, lib.gf_linear.GfMatrix(entries, p)


def line(answer, summary):
    """The answer's summary, then the SHA-256 of the pickled answer."""
    return f"{summary(answer)} {hashlib.sha256(pickle.dumps(answer)).hexdigest()}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(HERE.parent),
                        help="source checkout whose src/ package is digested")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(HERE.parent / "guessbench")]
    workloads = importlib.import_module("workloads")
    lib = Library()
    runners = {
        "config_search": (config_answer, mis_chi_summary),
        "netcode_solve": (netcode_answer, netcode_summary),
        "cyclic_sweep": (cyclic_answer, cyclic_summary),
    }
    for seed in SEEDS:
        for name, (run, summary) in runners.items():
            for index, job in enumerate(workloads.WORKLOADS[name].build(lib, seed)):
                answer = run(lib, workloads, job)
                print(f"{name} seed{seed} {index:4d} {job.label} {line(answer, summary)}")
    for s, index, d in seeded_jobs(lib, COMPOSITE_SEED, COMPOSITE, COMPOSITE_JOBS):
        answer = defect_answer(lib, workloads, d, s)
        label = f"random-s{s}-n{d.n}-e{len(d.edges())}"
        print(f"composite_defect s{s} {index:4d} {label} {line(answer, mis_chi_summary)}")
    for p, index, d in seeded_jobs(lib, PRIME_SEED, PRIMES, PRIME_JOBS):
        answer = linear_answer(lib, d, p)
        label = f"random-p{p}-n{d.n}-e{len(d.edges())}"
        print(f"prime_linear p{p} {index:4d} {label} {line(answer, linear_summary)}")
    gl = lib.gf_linear
    for p, index, m in seeded_matrices(lib, MATRIX_SEED, MATRIX_FIELDS, MATRIX_JOBS):
        basis = hashlib.sha256(pickle.dumps(gl.nullspace_gfp(m))).hexdigest()
        print(f"matrix p{p} {index:4d} {m.rows}x{m.cols} rank={gl.rank_gfp(m)} {basis}")
    for s, index, kind, d in union_jobs(lib, UNION_SEED, UNIONS, UNION_JOBS):
        answer = union_answer(lib, d, s)
        label = f"{kind}-s{s}-n{d.n}-e{len(d.edges())}"
        print(f"union_guess s{s} {index:4d} {label} {line(answer, union_summary)}")
    for index, (text, n) in enumerate(PAPER_CODES):
        print(f"paper_netcode s2 {index:4d} {paper_line(lib, text, n)}")


if __name__ == "__main__":
    main()
