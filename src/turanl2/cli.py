"""Command-line entry point.

Subcommands: construct, norm, classify, improve, census, symmetrize, ineq,
check.  Exit codes: 0 success, 1 a verified fact failed, 2 usage or
input error (argparse's own convention): a rejected argument or a malformed
input file, reported as a ``TuranL2Error``.  Any other exception propagates.
Numeric parameters are exact rationals written as 'p/q'.  Reports are
deterministic for a fixed configuration and seed; the seed and configuration
are echoed in every JSON header.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional

from . import acceptance
from .census import (
    census_colored_mantel,
    census_k43,
    census_tripartite_triangle_free,
)
from .classification import FAMILY_IDS, classify_edges, family_stats, optimize_partition
from .colored import (
    ColoredGraph,
    check_symmetrized_facts,
    is_cyclic_triangle_free,
    locally_symmetrize,
)
from .constructions import (
    Composition3,
    Partition3,
    build_b,
    build_c,
    c_l2_closed,
    sweep_csv,
)
from .errors import FormatError, TuranL2Error
from .formats import (
    load_cg,
    load_h3,
    load_p3,
    save_cg,
    save_h3,
    save_p3,
)
from .hypergraph import ThreeGraph, count_s2, l2_norm, make_pair_graph
from .improvement import two_phase_driver
from .inequality import certify_simplex_inequality, verify_simplex_inequality
from .util import dump_json, parse_fraction


def _emit(args, payload: dict) -> None:
    text = dump_json(payload) + "\n"
    if args.output:
        Path(args.output).with_suffix(".json").write_text(text)
    if args.json or not args.output:
        sys.stdout.write(text)


def _header(args, **extra) -> dict:
    head = {"seed": args.seed, **extra}
    return head


def _int_list(text: str) -> list[int]:
    """argparse type: comma-separated integers ('' is the empty list)."""
    try:
        return [int(x) for x in text.split(",")] if text else []
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from None


def _suite(text: str) -> Optional[list[int]]:
    """argparse type for ``check --suite``: 'all' (None) or criterion numbers."""
    if text == "all":
        return None
    numbers = _int_list(text)
    if not numbers:
        raise argparse.ArgumentTypeError("expected 'all' or comma-separated criterion numbers")
    return numbers


def _load_partitioned(h3_path: str, p3_path: str) -> tuple[ThreeGraph, Partition3]:
    """Load a graph and its partition, rejecting a partition of another size."""
    h = load_h3(h3_path)
    p = load_p3(p3_path)
    if p.n != h.n:
        raise FormatError(f"{p3_path} colors {p.n} vertices but {h3_path} has {h.n}")
    return h, p


def cmd_construct(args) -> int:
    out = Path(args.output) if args.output else None
    if args.sweep is not None:
        if args.sweep < 0:
            raise TuranL2Error(f"--sweep must be a nonnegative vertex count, got {args.sweep}")
        csv = sweep_csv(args.sweep)
        if out:
            out.with_suffix(".csv").write_text(csv)
        else:
            sys.stdout.write(csv)
        return 0
    sizes = args.sizes
    if not sizes:
        raise TuranL2Error("--sizes is required unless --sweep is given")
    if args.type == "C":
        if len(sizes) != 3:
            raise TuranL2Error("type C needs --sizes n1,n2,n3")
        h, p = build_c(Composition3(*sizes))
        stem = out or Path(f"c{h.n}")
        save_h3(h, stem.with_suffix(".h3"))
        save_p3(p, stem.with_suffix(".p3"))
        print(f"wrote {stem.with_suffix('.h3')} and {stem.with_suffix('.p3')} "
              f"(m={len(h.edges)}, l2={l2_norm(h)}, closed={c_l2_closed(Composition3(*sizes))})")
        return 0
    if args.type == "B":
        if len(sizes) != 2:
            raise TuranL2Error("type B needs --sizes n1,n2")
        h = build_b(*sizes)
        stem = out or Path(f"b{h.n}")
        save_h3(h, stem.with_suffix(".h3"))
        print(f"wrote {stem.with_suffix('.h3')} (m={len(h.edges)}, l2={l2_norm(h)})")
        return 0
    raise TuranL2Error(f"unknown construction type {args.type!r}")


def cmd_norm(args) -> int:
    h = load_h3(args.input)
    value = l2_norm(h)
    s2 = count_s2(h)
    identity_ok = value == 2 * s2 + 3 * len(h.edges)
    payload = _header(
        args,
        n=h.n,
        edges=len(h.edges),
        l2=value,
        sharing_pairs=s2,
        identity_lhs=value,
        identity_rhs=2 * s2 + 3 * len(h.edges),
        identity_holds=identity_ok,
    )
    _emit(args, payload)
    return 0 if identity_ok else 1


def cmd_classify(args) -> int:
    if args.partition:
        h, p = _load_partitioned(args.input, args.partition)
    else:
        h = load_h3(args.input)
        p, _ = optimize_partition(h, mode="vertexMoves")
    ec = classify_edges(h, p)
    payload = _header(
        args,
        n=h.n,
        partition="".join(str(c) for c in p.parts),
        intersection=ec.intersection_size(),
        families={fam: family_stats(ec, fam).to_json_dict() for fam in FAMILY_IDS},
    )
    _emit(args, payload)
    return 0


def cmd_improve(args) -> int:
    h, p = _load_partitioned(args.input, args.partition)
    trace = two_phase_driver(
        h, p, parse_fraction(args.delta4), order_seed=args.seed if args.shuffle else None
    )
    payload = _header(args, **trace.to_json_dict())
    _emit(args, payload)
    if args.output:
        save_h3(trace.final, Path(args.output).with_suffix(".h3"))
        Path(args.output).with_suffix(".jsonl").write_text(trace.to_json_lines() + "\n")
    # a covered instance that fails to clean its bad edges is a verification failure
    if trace.every_bad_edge_covered and not trace.inside_construction:
        return 1
    return 0


def cmd_census(args) -> int:
    problem = args.problem
    t0 = time.monotonic()
    if problem == "k43-l2":
        report = census_k43(args.n, method="naive" if args.exhaustive else "canonical")
    elif problem.startswith("mantel"):
        mode = "exhaustive" if args.exhaustive else "auto"
        report = census_colored_mantel(args.n, problem.removeprefix("mantel-"), mode=mode)
    elif args.exhaustive:
        raise TuranL2Error(
            "--exhaustive does not apply to tripartite: its census has one method, the cover search"
        )
    else:
        report = census_tripartite_triangle_free(args.n)
    wall = time.monotonic() - t0
    payload = _header(args, **report.to_json_dict())
    _emit(args, payload)
    sys.stderr.write(
        f"# {problem} n={args.n}: optimum={report.optimum} "
        f"iso_classes={report.iso_classes} nodes={report.nodes_explored} "
        f"wall={wall:.2f}s\n"
    )
    if args.output:
        stem = Path(args.output)
        csv = "problem,n,optimum,iso_classes,nodes_explored\n" + (
            f"{problem},{args.n},{report.optimum},{report.iso_classes},{report.nodes_explored}\n"
        )
        stem.with_suffix(".csv").write_text(csv)
        for i, form in enumerate(report.extremal):
            if problem.startswith("mantel"):
                cg = ColoredGraph(
                    make_pair_graph(3 * args.n, list(form)),
                    Partition3.from_sizes(args.n, args.n, args.n),
                )
                save_cg(cg, stem.with_name(f"{stem.name}-extremal{i}.cg"))
            elif problem == "k43-l2":
                save_h3(
                    ThreeGraph(args.n, form, _normalized=True),
                    stem.with_name(f"{stem.name}-extremal{i}.h3"),
                )
    # 1 when the reference construction beats the census (impossible if
    # sound) or a Mantel edge optimum exceeds the edge bound
    holds = report.optimum >= report.reference_value and report.extra.get("edge_bound_holds", True)
    return 0 if holds else 1


def cmd_symmetrize(args) -> int:
    cg = load_cg(args.input)
    out, log = locally_symmetrize(cg)
    facts = check_symmetrized_facts(out)
    free_in = is_cyclic_triangle_free(cg)
    free_out = is_cyclic_triangle_free(out)
    payload = _header(
        args,
        edges_before=len(cg.graph.edges),
        edges_after=len(out.graph.edges),
        merge_steps=len(log),
        cyclic_triangle_free_in=free_in,
        cyclic_triangle_free_out=free_out,
        facts=facts.to_json_dict(),
    )
    _emit(args, payload)
    if args.output:
        save_cg(out, Path(args.output).with_suffix(".cg"))
    if free_in:
        if not free_out or len(out.graph.edges) < len(cg.graph.edges):
            return 1
        if not facts.all_pass:
            return 1
    return 0


def cmd_ineq(args) -> int:
    report = verify_simplex_inequality(args.resolution)
    payload = _header(args, **report.to_json_dict())
    ok = report.worst_margin >= 0
    if args.interval:
        cert = certify_simplex_inequality(parse_fraction(args.width))
        payload["certificate"] = cert.to_json_dict()
        ok = ok and cert.certified
    _emit(args, payload)
    return 0 if ok else 1


def cmd_check(args) -> int:
    results = acceptance.run_suite(args.suite, quick=args.quick)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turanl2",
        description="Exact l2-norm machinery for tetrahedron-free 3-graphs",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    common.add_argument("--json", action="store_true", help="print JSON to stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        return sub.add_parser(name, help=help_text, parents=[common])

    # construct and check read neither --seed nor --json, so they take neither
    c = sub.add_parser("construct", help="emit a construction as .h3 (+ .p3)")
    c.add_argument("--type", choices=("C", "B"), default="C")
    c.add_argument("--sizes", type=_int_list, default=[])
    c.add_argument("--sweep", type=int, default=None, help="emit the closed-form CSV for this n")
    c.add_argument("--output")
    c.set_defaults(fn=cmd_construct)

    c = add("norm", "exact l2 norm plus the sharing-pair identity")
    c.add_argument("--input", required=True)
    c.add_argument("--output")
    c.set_defaults(fn=cmd_norm)

    c = add("classify", "bad/missing families relative to a partition")
    c.add_argument("--input", required=True)
    c.add_argument("--partition")
    c.add_argument("--output")
    c.set_defaults(fn=cmd_classify)

    c = add("improve", "run the two-phase local-improvement driver")
    c.add_argument("--input", required=True)
    c.add_argument("--partition", required=True)
    c.add_argument("--delta4", default="1/40")
    c.add_argument("--shuffle", action="store_true", help="permute queue order by seed")
    c.add_argument("--output")
    c.set_defaults(fn=cmd_improve)

    c = add("census", "desk-scale extremal censuses")
    c.add_argument("--problem", required=True,
                   choices=("k43-l2", "mantel-edges", "mantel-l2", "tripartite"))
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--exhaustive", action="store_true")
    c.add_argument("--output")
    c.set_defaults(fn=cmd_census)

    c = add("symmetrize", "locally symmetrize a colored graph")
    c.add_argument("--input", required=True)
    c.add_argument("--output")
    c.set_defaults(fn=cmd_symmetrize)

    c = add("ineq", "simplex inequality: grid sweep and certificate")
    c.add_argument("--resolution", type=int, default=200)
    c.add_argument("--interval", action="store_true")
    c.add_argument("--width", default="1/1000000")
    c.add_argument("--output")
    c.set_defaults(fn=cmd_ineq)

    c = sub.add_parser("check", help="run the acceptance battery")
    c.add_argument("--suite", type=_suite, default="all",
                   help="'all' or comma-separated criterion numbers")
    c.add_argument("--quick", action="store_true", help="shrunk trial counts for a smoke run")
    c.set_defaults(fn=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except TuranL2Error as exc:
        parser.exit(2, f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
