"""Command-line surface tying the library together.

Every subcommand is a thin shell over one library operation.  Results
print as ``key=value`` tokens on one line; ``--machine`` switches to one
stable-keyed ``key=value`` record per line.

Exit codes: 0 success (an "unsolvable" verdict is a result, not an
error), 2 usage, 3 size guard exceeded, 4 invalid or infeasible input.
"""

from __future__ import annotations

import argparse
import sys

from . import cyclic, digraph, gf_linear, netcode, solvers
from .errors import BadParams, GuessnumError, SizeGuard
from .guessing_graph import DEFAULT_GUARD, GuessingGraph, write_edge_list


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _emit(records, machine):
    if machine:
        for k, v in records:
            print(f"{k}={_fmt(v)}")
    else:
        print(" ".join(f"{k}={_fmt(v)}" for k, v in records))


def _load_digraph(path):
    return digraph.read_digraph(path)


def _write_output(d, path, dot=None):
    digraph.write_digraph(d, path)
    if dot:
        with open(dot, "w", encoding="utf-8") as fh:
            fh.write(digraph.to_dot(d))


def _g_records(result):
    recs = [("alpha", result.alpha), ("g", result.value)]
    if not result.integral:
        recs.append(("g_integral", False))
    return recs


def cmd_guess(args):
    d = _load_digraph(args.digraph)
    result = solvers.guessing_number(d, args.s, guard=args.guard)
    recs = _g_records(result)
    if args.witness:
        fixed = solvers.fixed_configurations(d, args.s, result.protocol, guard=args.guard)
        with open(args.witness, "w", encoding="utf-8") as fh:
            fh.write("\n".join(str(c) for c in fixed) + "\n")
        recs.append(("witness_path", args.witness))
    if args.protocol:
        with open(args.protocol, "w", encoding="utf-8") as fh:
            fh.write(solvers.protocol_to_text(result.protocol))
        recs.append(("protocol_path", args.protocol))
    _emit(recs, args.machine)
    return 0


def cmd_defect(args):
    d = _load_digraph(args.digraph)
    result = solvers.information_defect(d, args.s, guard=args.guard)
    _emit([("chi", result.chi), ("b", result.value), ("exact", result.exact)], args.machine)
    return 0


def cmd_linear(args):
    d = _load_digraph(args.digraph)
    result = gf_linear.linear_guessing_number(d, args.p, budget=args.budget)
    if result.exact:
        recs = [("g_linear", result.value)]
    else:
        recs = [("g_linear_lower", result.lower), ("g_linear_upper", result.upper)]
    recs.append(("exact", result.exact))
    if args.witness:
        with open(args.witness, "w", encoding="utf-8") as fh:
            fh.write(gf_linear.matrix_to_text(result.witness))
        recs.append(("witness_path", args.witness))
    _emit(recs, args.machine)
    return 0


def cmd_bounds(args):
    d = _load_digraph(args.digraph)
    report = solvers.bounds_report(d, args.s)
    _emit(report.to_records(), True)
    return 0


def cmd_mas(args):
    d = _load_digraph(args.digraph)
    result = digraph.mas_exact(d, budget=args.budget)
    _emit(
        [
            ("mas", result.size),
            ("exact", result.exact),
            ("witness", ",".join(str(v) for v in result.witness)),
        ],
        args.machine,
    )
    return 0


def cmd_report(args):
    d = _load_digraph(args.digraph)
    sr = digraph.structure_report(d)
    recs = [
        ("n", d.n),
        ("edges", d.edge_count()),
        ("min_in_degree", sr.min_in_degree),
        ("max_in_degree", sr.max_in_degree),
        ("regular", sr.regular_in_out),
        ("bidirectional_edges", sr.bidirectional_edge_count),
        ("tournament", sr.is_tournament),
        ("girth", "acyclic" if sr.girth is None else sr.girth),
        ("strong", sr.strong),
        ("components", sr.component_count),
    ]
    recs += solvers.bounds_report(d, args.s).to_records()
    _emit(recs, True)
    return 0


def cmd_cyclic_gen(args):
    poly = cyclic.parse_poly(args.poly)
    d = cyclic.digraph_from_polynomial(poly, args.n)
    if args.output:
        _write_output(d, args.output, args.dot)
    report = cyclic.polynomial_digraph_report(poly, args.n)
    recs = [
        ("poly", report.poly.to_bitstring()),
        ("n", report.n),
        ("divides", report.divides),
        ("degree", report.degree),
        ("weight", report.weight),
        ("regular", report.regular),
        ("bidirectional_free", report.bidirectional_free_edges),
        ("tournament", report.tournament_edges),
        ("strong", report.strong),
        ("mas", report.mas_size),
        ("fixed_space_dimension", report.fixed_space_dimension),
    ]
    if report.divides:
        recs.append(("code_checks", report.all_code_properties_hold))
    else:
        recs.append(("gcd", report.gcd_with_cycle_space.to_bitstring()))
        recs.append(("gcd_lower_bound", report.gcd_lower_bound))
    _emit(recs, args.machine)
    return 0


def cmd_simplex(args):
    poly, d = cyclic.simplex_digraph(args.l)
    if args.output:
        _write_output(d, args.output, args.dot)
    _emit(
        [
            ("l", args.l),
            ("n", d.n),
            ("poly", poly.to_bitstring()),
            ("in_degree", d.in_degree(0)),
        ],
        args.machine,
    )
    return 0


_FAMILY_OPTIONS = {"three_t": ("t",), "even_half": ("half",), "doubling": ("g", "t", "l")}


def cmd_family(args):
    missing = [f"--{o}" for o in _FAMILY_OPTIONS[args.kind] if getattr(args, o) is None]
    if missing:
        args.usage_error(f"the following arguments are required: {', '.join(missing)}")
    params = {}
    if args.kind == "three_t":
        params["t"] = args.t
    elif args.kind == "even_half":
        params["p"] = args.half
    else:
        params.update(g=cyclic.parse_poly(args.g), t=args.t, l=args.l)
    fam = cyclic.family_unidirectional(args.kind, **params)
    if args.output:
        _write_output(fam.digraph, args.output, args.dot)
    _emit(
        [
            ("kind", fam.kind),
            ("n", fam.digraph.n),
            ("poly", fam.poly.to_bitstring()),
            ("degree", fam.poly.degree),
            ("weight", fam.poly.weight),
            ("bidirectional_free", fam.report.bidirectional_free_edges),
            ("strong", fam.report.strong),
            ("fixed_space_dimension", fam.report.fixed_space_dimension),
        ],
        args.machine,
    )
    return 0


def cmd_product(args):
    d = digraph.strong_product(_load_digraph(args.first), _load_digraph(args.second))
    _write_output(d, args.output, args.dot)
    _emit([("n", d.n), ("edges", d.edge_count()), ("output", args.output)], args.machine)
    return 0


def cmd_union(args):
    d = digraph.union(args.kind, _load_digraph(args.first), _load_digraph(args.second))
    _write_output(d, args.output, args.dot)
    _emit([("n", d.n), ("edges", d.edge_count()), ("output", args.output)], args.machine)
    return 0


def cmd_expand(args):
    d = digraph.k_expand(_load_digraph(args.digraph), args.k)
    _write_output(d, args.output, args.dot)
    _emit([("n", d.n), ("edges", d.edge_count()), ("output", args.output)], args.machine)
    return 0


def cmd_thm3(args):
    d = digraph.cycle_power_ring(args.l, args.k, args.m)
    _write_output(d, args.output, args.dot)
    sr = digraph.structure_report(d)
    _emit(
        [
            ("n", d.n),
            ("edges", d.edge_count()),
            ("girth", sr.girth),
            ("strong", sr.strong),
            ("output", args.output),
        ],
        args.machine,
    )
    return 0


def cmd_netcode_solve(args):
    instance = netcode.read_instance(args.instance)
    result = netcode.solvable(instance, args.s, guard=args.guard)
    recs = [("solvable", result.solvable), ("pairs", result.n_pairs), ("g", result.g_value)]
    if result.defect_matches_intermediates is not None:
        recs.append(("defect_matches", result.defect_matches_intermediates))
    if result.reason:
        recs.append(("reason", result.reason))
    if result.binding_bound:
        recs.append(("binding_bound", f"{result.binding_bound[0]}:{result.binding_bound[1]:.3f}"))
    _emit(recs, args.machine)
    if result.certificate and not args.machine:
        print(result.certificate.narrative())
    return 0


def cmd_netcode_convert(args):
    if args.to_digraph:
        instance = netcode.read_instance(args.input)
        d, provenance = netcode.to_guessing_digraph(instance)
        _write_output(d, args.output, args.dot)
        _emit(
            [("n", d.n), ("pairs", instance.n_pairs), ("output", args.output)],
            args.machine,
        )
        return 0
    d = _load_digraph(args.input)
    if args.intermediates:
        try:
            chosen = [int(v) for v in args.intermediates.split(",")]
        except ValueError:
            raise BadParams(f"malformed vertex list {args.intermediates!r}") from None
    else:
        chosen = list(digraph.mas_exact(d).witness)
    instance = netcode.from_digraph(d, chosen)
    netcode.write_instance(instance, args.output)
    _emit(
        [
            ("pairs", instance.n_pairs),
            ("intermediates", len(instance.intermediates)),
            ("output", args.output),
        ],
        args.machine,
    )
    return 0


def cmd_gg_export(args):
    d = _load_digraph(args.digraph)
    handle = GuessingGraph(d, args.s, args.guard).materialize()
    write_edge_list(handle, args.output)
    _emit(
        [("configs", handle.n_configs), ("degree", handle.degree()), ("output", args.output)],
        args.machine,
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="guessnum",
        description="guessing numbers, information defects and network-coding solvability",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, alphabet=False, prime=False, guard=False):
        p.add_argument("--machine", action="store_true", help="one key=value per line")
        if alphabet:
            p.add_argument("-s", type=int, default=2, help="alphabet size (>= 2)")
        if prime:
            p.add_argument("-p", type=int, default=2, help="field size (prime)")
        if guard:
            p.add_argument("--guard", type=int, default=DEFAULT_GUARD,
                           help="max configuration count for exact solves")

    p = sub.add_parser("guess", help="guessing number of a digraph")
    p.add_argument("digraph")
    p.add_argument("--witness", help="write fixed configuration codes here")
    p.add_argument("--protocol", help="write the witness protocol's truth tables here")
    common(p, alphabet=True, guard=True)
    p.set_defaults(func=cmd_guess)

    p = sub.add_parser("defect", help="information defect of a digraph")
    p.add_argument("digraph")
    common(p, alphabet=True, guard=True)
    p.set_defaults(func=cmd_defect)

    p = sub.add_parser("linear", help="linear guessing number over GF(p)")
    p.add_argument("digraph")
    p.add_argument("--budget", type=int, default=gf_linear.DEFAULT_LINEAR_BUDGET,
                   help="max coefficient patterns for the exhaustive search")
    p.add_argument("--witness", help="write the witness matrix here")
    common(p, prime=True)
    p.set_defaults(func=cmd_linear)

    p = sub.add_parser("bounds", help="all applicable bounds with provenance")
    p.add_argument("digraph")
    common(p, alphabet=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("mas", help="maximum induced acyclic subgraph")
    p.add_argument("digraph")
    p.add_argument("--budget", type=int, default=digraph.DEFAULT_MAS_BUDGET)
    common(p)
    p.set_defaults(func=cmd_mas)

    p = sub.add_parser("report", help="structure plus bounds")
    p.add_argument("digraph")
    common(p, alphabet=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("cyclic-gen", help="digraph generated by a GF(2) polynomial")
    p.add_argument("--poly", required=True, help="bit-string (11101) or x4+x2+x+1 form")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-o", "--output")
    p.add_argument("--dot")
    common(p)
    p.set_defaults(func=cmd_cyclic_gen)

    p = sub.add_parser("simplex", help="digraph of a simplex-code generator")
    p.add_argument("-l", type=int, required=True, help="code dimension, 2..10")
    p.add_argument("-o", "--output")
    p.add_argument("--dot")
    common(p)
    p.set_defaults(func=cmd_simplex)

    p = sub.add_parser("family", help="cyclic-code digraph families")
    p.add_argument("--kind", required=True, choices=list(_FAMILY_OPTIONS))
    p.add_argument("--t", type=int, dest="t")
    p.add_argument("--half", type=int, help="half length for even_half")
    p.add_argument("--g", help="base polynomial for doubling")
    p.add_argument("--l", type=int, dest="l")
    p.add_argument("-o", "--output")
    p.add_argument("--dot")
    common(p)
    p.set_defaults(func=cmd_family, usage_error=p.error)

    p = sub.add_parser("product", help="strong product of two digraphs")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--dot")
    common(p)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("union", help="disjoint/unidirectional/bidirectional union")
    p.add_argument("--kind", required=True,
                   choices=["disjoint", "unidirectional", "bidirectional"])
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--dot")
    common(p)
    p.set_defaults(func=cmd_union)

    p = sub.add_parser("expand", help="k interlinked copies of a digraph")
    p.add_argument("digraph")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--dot")
    common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("thm3", help="ring of strong-product cycle powers")
    p.add_argument("-l", type=int, required=True, help="cycle length >= 3")
    p.add_argument("-k", type=int, required=True, help="product power >= 1")
    p.add_argument("-m", type=int, required=True, help="copy count >= 1")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--dot")
    common(p)
    p.set_defaults(func=cmd_thm3)

    p = sub.add_parser("netcode-solve", help="decide multiple-unicast solvability")
    p.add_argument("instance")
    common(p, alphabet=True, guard=True)
    p.set_defaults(func=cmd_netcode_solve)

    p = sub.add_parser("netcode-convert", help="instance <-> digraph conversion")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--to-digraph", action="store_true",
                   help="merge an instance into its digraph (default: split a digraph)")
    p.add_argument("--intermediates",
                   help="comma-separated vertex ids kept as intermediates when splitting")
    p.add_argument("--dot")
    common(p)
    p.set_defaults(func=cmd_netcode_convert)

    p = sub.add_parser("gg-export", help="edge list of the configuration graph")
    p.add_argument("digraph")
    p.add_argument("-o", "--output", required=True)
    common(p, alphabet=True, guard=True)
    p.set_defaults(func=cmd_gg_export)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeGuard as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GuessnumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
