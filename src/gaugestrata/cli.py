"""Command-line front end: enumeration, Hasse diagrams, stratification.

Exit codes: 0 success, 2 usage or parse error, 3 search budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import diophantine as dio
from .labels import (HasseDiagram, LabelError, covering_relation, enumerate_labels,
                     format_label, hasse_diagram, parse_label)
from .strata import BundleSpec, Manifold, annotate, orbit_types

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3

_MANIFOLDS = [m.value for m in Manifold]


def _dot_quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def _emit_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=False)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _render_hasse_dot(diagram: HasseDiagram, annotate_nodes: bool,
                      present=None) -> str:
    lines = ["digraph howe {", "  rankdir=LR;"]
    for node in diagram.sorted_nodes():
        name = format_label(node)
        attrs = []
        if annotate_nodes:
            attrs.append(f'label="{name}\\n{dio.d_s4(node)}/{dio.d_s2xs2(node)}"')
        if present is not None and node not in present:
            attrs.append("style=filled")
            attrs.append("fillcolor=lightgray")
            attrs.append("fontcolor=gray40")
        suffix = " [" + ", ".join(attrs) + "]" if attrs else ""
        lines.append(f"  {_dot_quote(name)}{suffix};")
    for a, b in diagram.sorted_edges():
        lines.append(f"  {_dot_quote(format_label(a))} -> {_dot_quote(format_label(b))};")
    lines.append("}")
    return "\n".join(lines)


def cmd_enumerate(args) -> int:
    labels = [format_label(j) for j in enumerate_labels(args.n)]
    if args.format == "json":
        print(_emit_json(labels))
    elif args.format == "dot":
        print("error: dot output requires a diagram command", file=sys.stderr)
        return EXIT_USAGE
    else:
        for line in labels:
            print(line)
    return EXIT_OK


def cmd_hasse(args) -> int:
    diagram = hasse_diagram(args.n)
    if args.format == "dot":
        print(_render_hasse_dot(diagram, args.annotate))
        return EXIT_OK
    if args.format == "json":
        if args.annotate:
            nodes = [{"label": format_label(j), "d_s4": dio.d_s4(j),
                      "d_s2xs2": dio.d_s2xs2(j)} for j in diagram.sorted_nodes()]
        else:
            nodes = [format_label(j) for j in diagram.sorted_nodes()]
        doc = {"n": diagram.n, "nodes": nodes,
               "edges": [[format_label(a), format_label(b)]
                         for a, b in diagram.sorted_edges()]}
        print(_emit_json(doc))
        return EXIT_OK
    for node in diagram.sorted_nodes():
        if args.annotate:
            print(f"{format_label(node)}  {dio.d_s4(node)}/{dio.d_s2xs2(node)}")
        else:
            print(format_label(node))
    for a, b in diagram.sorted_edges():
        print(f"{format_label(a)} -> {format_label(b)}")
    return EXIT_OK


def _strata_doc(spec: BundleSpec, annotations, edges) -> dict:
    return {
        "n": spec.n,
        "manifold": spec.manifold.value,
        "c2": spec.c2,
        "types": [
            {"label": format_label(ann.label), "d_s4": ann.d_s4,
             "d_s2xs2": ann.d_s2xs2, "present": ann.present,
             "criterion": ann.criterion}
            for ann in annotations
        ],
        "edges": [[format_label(a), format_label(b)] for a, b in edges],
    }


def cmd_strata(args) -> int:
    manifold = Manifold(args.manifold)
    spec = BundleSpec(n=args.n, manifold=manifold, c2=args.c2)
    if args.only is not None:
        label = parse_label(args.only)
        if label.n != args.n:
            print(f"error: label {args.only} has total {label.n}, expected {args.n}",
                  file=sys.stderr)
            return EXIT_USAGE
        annotations = [annotate(label, manifold, spec.c2)]
    else:
        annotations = orbit_types(spec)
    present = {ann.label for ann in annotations if ann.present}
    edges = [] if args.only is not None else covering_relation(spec.n, present).sorted_edges()
    if args.format == "json":
        print(_emit_json(_strata_doc(spec, annotations, edges)))
        return EXIT_OK
    if args.format == "dot":
        diagram = HasseDiagram(n=spec.n,
                               nodes=frozenset(ann.label for ann in annotations),
                               edges=frozenset(edges))
        print(_render_hasse_dot(diagram, args.annotate, present=present))
        return EXIT_OK
    print(f"n={spec.n} manifold={spec.manifold.value} c2={spec.c2}")
    for ann in annotations:
        mark = "present" if ann.present else "absent"
        print(f"{format_label(ann.label)}  {ann.d_s4}/{ann.d_s2xs2}  {mark}  [{ann.criterion}]")
    for a, b in edges:
        print(f"{format_label(a)} -> {format_label(b)}")
    return EXIT_OK


def cmd_check(args) -> int:
    label = parse_label(args.label)
    manifold = Manifold(args.manifold)
    ann = annotate(label, manifold, args.c2)
    g = dio.gcd_seq(label.k)
    gcd_l = dio.gcd_seq(dio.l_coefficients(label))
    print(f"label: {format_label(label)}   (n = {label.n})")
    print(f"gcd(k) = {g}")
    print(f"d_S4 = gcd(red k) = {ann.d_s4}")
    print(f"gcd(L) = {gcd_l}")
    print(f"d_S2xS2 = {ann.d_s2xs2}")
    print(f"criterion: {ann.criterion}")
    print(f"present over {manifold.value} with c2 = {args.c2}: "
          f"{'yes' if ann.present else 'no'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugestrata",
        description="Orbit types of pointed gauge orbit spaces for SU(n)-bundles")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["text", "json", "dot"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", parents=[fmt],
                            help="list Howe-subgroup labels of SU(n)")
    p_enum.add_argument("n", type=_positive_int)
    p_enum.set_defaults(func=cmd_enumerate)

    p_hasse = sub.add_parser("hasse", parents=[fmt],
                             help="Hasse diagram of the label order")
    p_hasse.add_argument("n", type=_positive_int)
    p_hasse.add_argument("--annotate", action="store_true",
                         help="append dS4/dS2xS2 to node labels")
    p_hasse.set_defaults(func=cmd_hasse)

    p_strata = sub.add_parser("strata", parents=[fmt],
                              help="orbit types present for a concrete bundle")
    p_strata.add_argument("--n", type=_positive_int, required=True)
    p_strata.add_argument("--manifold", choices=_MANIFOLDS, required=True)
    p_strata.add_argument("--c2", type=int, default=0)
    p_strata.add_argument("--only", metavar="LABEL",
                          help="annotate a single label without enumerating")
    p_strata.add_argument("--annotate", action="store_true")
    p_strata.set_defaults(func=cmd_strata)

    p_check = sub.add_parser("check",
                             help="presence verdict and divisor data for one label")
    p_check.add_argument("label")
    p_check.add_argument("manifold", choices=_MANIFOLDS)
    p_check.add_argument("c2", type=int)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except dio.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (LabelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
