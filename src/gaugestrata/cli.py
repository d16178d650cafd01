"""Command-line front end: enumeration, Hasse diagrams, stratification.

Exit codes: 0 success, 2 usage or parse error, 3 search budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import diophantine as dio
from .labels import (LabelError, covering_relation, enumerate_labels, format_label,
                     hasse_diagram, parse_label)
from .strata import BundleSpec, Manifold, annotate, orbit_types

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3

_MANIFOLDS = [m.value for m in Manifold]


def _dot_quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _render(doc: dict, rows: list[dict], fmt: str, annotate: bool) -> str:
    """A `hasse` or `strata` document as text, JSON or dot. `rows` are its
    nodes; text shows every field a row has, dot shows the divisors only
    with `annotate` and grays a row whose "present" is False."""
    if fmt == "json":
        return json.dumps(doc, indent=2)
    if fmt == "dot":
        lines = ["digraph howe {", "  rankdir=LR;"]
        for row in rows:
            attrs = [f'label="{row["label"]}\\n{row["d_s4"]}/{row["d_s2xs2"]}"'] if annotate else []
            if row.get("present") is False:
                attrs += ["style=filled", "fillcolor=lightgray", "fontcolor=gray40"]
            suffix = " [" + ", ".join(attrs) + "]" if attrs else ""
            lines.append(f"  {_dot_quote(row['label'])}{suffix};")
        lines += [f"  {_dot_quote(a)} -> {_dot_quote(b)};" for a, b in doc["edges"]]
        return "\n".join(lines + ["}"])
    lines = [f"n={doc['n']} manifold={doc['manifold']} c2={doc['c2']}"] if "manifold" in doc else []
    for row in rows:
        cells = [row["label"]]
        if "d_s4" in row:
            cells.append(f"{row['d_s4']}/{row['d_s2xs2']}")
        if "present" in row:
            cells += ["present" if row["present"] else "absent", f"[{row['criterion']}]"]
        lines.append("  ".join(cells))
    lines += [f"{a} -> {b}" for a, b in doc["edges"]]
    return "\n".join(lines)


def _edges(diagram) -> list[list[str]]:
    return [[format_label(a), format_label(b)] for a, b in diagram.sorted_edges()]


def cmd_enumerate(args) -> int:
    if args.format == "dot":
        print("error: dot output requires a diagram command", file=sys.stderr)
        return EXIT_USAGE
    labels = [format_label(j) for j in enumerate_labels(args.n)]
    print(json.dumps(labels, indent=2) if args.format == "json" else "\n".join(labels))
    return EXIT_OK


def cmd_hasse(args) -> int:
    diagram = hasse_diagram(args.n)
    rows = [{"label": format_label(j), "d_s4": dio.d_s4(j), "d_s2xs2": dio.d_s2xs2(j)}
            if args.annotate else {"label": format_label(j)}
            for j in diagram.sorted_nodes()]
    nodes = rows if args.annotate else [row["label"] for row in rows]
    doc = {"n": diagram.n, "nodes": nodes, "edges": _edges(diagram)}
    print(_render(doc, rows, args.format, args.annotate))
    return EXIT_OK


def cmd_strata(args) -> int:
    manifold = Manifold(args.manifold)
    spec = BundleSpec(n=args.n, manifold=manifold, c2=args.c2)
    if args.only is not None:
        label = parse_label(args.only)
        if label.n != args.n:
            raise LabelError(f"label {args.only} has total {label.n}, expected {args.n}")
        annotations = [annotate(label, manifold, spec.c2)]
        edges = []
    else:
        annotations = orbit_types(spec)
        edges = _edges(covering_relation(spec.n, [a.label for a in annotations if a.present]))
    rows = [{"label": format_label(a.label), "d_s4": a.d_s4, "d_s2xs2": a.d_s2xs2,
             "present": a.present, "criterion": a.criterion} for a in annotations]
    doc = {"n": spec.n, "manifold": manifold.value, "c2": spec.c2, "types": rows,
           "edges": edges}
    print(_render(doc, rows, args.format, args.annotate))
    return EXIT_OK


def cmd_check(args) -> int:
    label = parse_label(args.label)
    manifold = Manifold(args.manifold)
    BundleSpec.check_c2(manifold, args.c2)
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
        dio._resolve_budget(None)
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
