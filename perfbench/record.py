"""Record the references the correctness gate compares against.

Run from the repository root:

    python3 perfbench/record.py

It writes ``perfbench/refs/{poset,cp2,lookup}.json`` from the program as it
stands, for every input the workload generators can produce (full and
smoke sizes): verdict masks and edge digests of each ``strata`` key, edge
digests of each ``hasse`` n, label digests of each ``enumerate`` n, and
CP^2 verdict masks with a flag for the keys on which the program exits on
its search budget. Verdicts of labels over the budget come from
``gate.cp2_modular``, which is first checked against the program on every
label with d_S4 > 0 that the program decides within the budget.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import gaugestrata as gs  # noqa: E402

import gate  # noqa: E402
import workloads as wl  # noqa: E402

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
SHAPES = (wl.FULL, wl.SMOKE)


def canon(label):
    return gate.canon(label.k, label.m)


def record_poset() -> dict:
    strata = {}
    for n in sorted({n for s in SHAPES for n in s.strata_n}):
        for manifold, c2 in wl.POSET_KINDS:
            spec = gs.BundleSpec(n, gs.Manifold(manifold), c2)
            present = {canon(a.label): a.present for a in gs.orbit_types(spec)}
            edges = {(canon(a), canon(b)) for a, b in gs.stratification_graph(spec).edges}
            strata[f"{n}|{manifold}|{c2}"] = {"mask": gate.mask_of(n, present),
                                              "edges": len(edges),
                                              "edge_digest": gate.edge_digest(edges)}
    hasse = {}
    for n in sorted({n for s in SHAPES for n in s.hasse_n}):
        edges = {(canon(a), canon(b)) for a, b in gs.hasse_diagram(n).edges}
        hasse[str(n)] = {"edges": len(edges), "edge_digest": gate.edge_digest(edges)}
    return {"strata": strata, "hasse": hasse}


def record_lookup() -> dict:
    ns = sorted({n for s in SHAPES for n in s.enumerate_n})
    return {"enumerate": {str(n): gate.label_digest([canon(j) for j in gs.enumerate_labels(n)])
                          for n in ns}}


def record_cp2() -> dict:
    keys = set()
    for s in SHAPES:
        keys |= {(n, c2) for n in s.cp2_n for c2 in range(-wl.cp2_cap(n), 13)}
        keys |= {(n, c2) for n in s.cp2_budget_n for c2 in range(-12, 13)}
    out, checked = {}, 0
    for n, c2 in sorted(keys):
        present, budget_exit = {}, False
        for label in gs.enumerate_labels(n):
            pairs = canon(label)
            try:
                verdict = gs.cp2_solvable(label, c2)
            except gs.BudgetExceededError:
                budget_exit = True
                verdict = gate.cp2_modular(pairs, c2)
            else:
                if gate.d_s4(pairs) > 0:
                    if gate.cp2_modular(pairs, c2) != verdict:
                        raise SystemExit(f"oracle disagrees on {label} c2={c2}")
                    checked += 1
            present[pairs] = verdict
        out[f"{n}|{c2}"] = {"mask": gate.mask_of(n, present), "budget_exit": budget_exit}
    print(f"cp2: {len(out)} keys, oracle agreed with the program on {checked} "
          f"(label, c2) pairs", file=sys.stderr)
    return out


def main():
    os.makedirs(OUT, exist_ok=True)
    for name, fn in (("lookup", record_lookup), ("poset", record_poset), ("cp2", record_cp2)):
        with open(os.path.join(OUT, f"{name}.json"), "w") as fh:
            json.dump(fn(), fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"wrote refs/{name}.json", file=sys.stderr)


if __name__ == "__main__":
    main()
