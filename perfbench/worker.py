"""One pass over a workload's deck, in a fresh interpreter started by ``run.py``.

``run.py`` starts one worker per pass, so every pass begins with the
``descendants`` cache of the program cold, as every CLI invocation does,
and all passes are alike. The worker sends the seeded deck of the
workload once, in a closed loop (one caller, each query sent when the
previous one returned), checks every output with ``gate`` outside the
timed region, and prints one JSON object: per query the wall time and the
outcome of each attempt, the work counts and the peak resident memory.
It also runs the calibration kernel of ``calibrate.py`` before the first
query, between queries every ``CALIBRATE_EVERY`` seconds and after the
last, and reports its times and, with each attempt, how many kernel runs
came before it, so that ``run.py`` can scale each attempt by the kernel
runs around it.

With ``--trace 1`` each query is attempted twice in a row, once with the
spans of ``spans.Tracer`` installed and once without, in an order that
alternates from query to query and pass to pass, so host slowdowns fall
on both halves alike. The per-layer figures come from the traced
attempts.

CLI queries go through ``gaugestrata.cli.main(argv)`` with stdout
captured; CP^2 queries through the public ``orbit_types``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import sys
from time import perf_counter

import gaugestrata
import gaugestrata.cli

import gate
import workloads
from calibrate import kernel_seconds
from spans import ERROR, NAME, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
CALIBRATE_EVERY = 0.02  # wall seconds between runs of the calibration kernel
CALIBRATE_FIRST = 5     # kernel runs before the first query

_CHECK_RE = {
    "label": re.compile(r"^label:\s*(\([^)]*\))", re.M),
    "d_s4": re.compile(r"^d_S4\b.*=\s*(-?\d+)\s*$", re.M),
    "d_s2xs2": re.compile(r"^d_S2xS2\b.*=\s*(-?\d+)\s*$", re.M),
    "present": re.compile(r"^present over (\w+) with c2 = (-?\d+): (yes|no)\b", re.M),
}


def _field(name: str, out: str):
    match = _CHECK_RE[name].search(out)
    if not match:
        raise gate.Mismatch(f"`check` output lacks its {name} line")
    return match


def verify(q, refs, rc, out, anns, jones):
    """Check one query; returns (labels given a verdict, edges emitted).
    Raises gate.Mismatch on any disagreement."""
    if rc != 0:
        raise gate.Mismatch(f"exit code {rc}")
    if q.check == "cp2":
        ref = refs["cp2"][f"{q.n}|{q.c2}"]
        p = gate.Parsed()
        for a in anns:
            p.add(gate.canon(a.label.k, a.label.m), a.d_s4, a.d_s2xs2, a.present)
        gate.check_label_set(p, q.n)
        gate.check_divisors(p, require=True)
        gate.check_verdicts(q.n, "cp2", q.c2, p.present, ref["mask"], jones)
        return len(p.present), 0
    if q.check == "strata":
        p = gate.parse_output(out, q.fmt, grayed_is_absent=True)
        gate.check_label_set(p, q.n)
        gate.check_divisors(p, require=q.fmt != "dot" or q.annotate)
        ref = refs["poset"]["strata"][f"{q.n}|{q.manifold}|{q.c2}"]
        gate.check_verdicts(q.n, q.manifold, q.c2, p.present, ref["mask"])
        gate.check_edges(p, ref)
        return len(p.present), len(p.edges)
    if q.check == "hasse":
        p = gate.parse_output(out, q.fmt)
        gate.check_label_set(p, q.n)
        gate.check_divisors(p, require=q.annotate)
        gate.check_edges(p, refs["poset"]["hasse"][str(q.n)])
        return 0, len(p.edges)
    if q.check == "only":
        p = gate.parse_output(out, q.fmt, grayed_is_absent=True)
        if p.labels != [q.label] or p.edges:
            raise gate.Mismatch(f"--only {gate.fmt(q.label)} printed {len(p.labels)} "
                                f"labels and {len(p.edges)} edges")
        gate.check_divisors(p, require=q.fmt != "dot")
        if p.present.get(q.label) != gate.gcd_verdict(q.manifold, q.c2, q.label):
            raise gate.Mismatch(f"{gate.fmt(q.label)} over {q.manifold} c2={q.c2}: wrong verdict")
        return 1, 0
    if q.check == "check":
        label = gate.parse(_field("label", out).group(1))
        divisors = (int(_field("d_s4", out).group(1)), int(_field("d_s2xs2", out).group(1)))
        manifold, c2, verdict = _field("present", out).groups()
        if label != q.label or (manifold, int(c2)) != (q.manifold, q.c2):
            raise gate.Mismatch(f"`check` answered another question: {label} {manifold} {c2}")
        if divisors != (gate.d_s4(label), gate.d_s2xs2(label)):
            raise gate.Mismatch(f"{gate.fmt(label)}: divisors {divisors}")
        if (verdict == "yes") != gate.gcd_verdict(q.manifold, q.c2, label):
            raise gate.Mismatch(f"{gate.fmt(label)} over {q.manifold} c2={q.c2}: wrong verdict")
        return 1, 0
    if q.check == "enumerate":
        labels = gate.parse_output(out, q.fmt).labels
        if (len(labels) != gate.count_labels(q.n) or len(set(labels)) != len(labels)
                or any(gate.total(j) != q.n for j in labels)):
            raise gate.Mismatch(f"enumerate {q.n}: {len(labels)} labels, "
                                f"{gate.count_labels(q.n)} pair multisets expected")
        if gate.label_digest(labels) != refs["lookup"]["enumerate"][str(q.n)]:
            raise gate.Mismatch(f"enumerate {q.n}: label set differs from the reference")
        return 0, 0
    raise ValueError(f"unknown check {q.check}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.DECKS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, required=True,
                    help="which pass this is; sets the traced/untraced order")
    ap.add_argument("--hard-cap", type=float, required=True,
                    help="wall seconds after which the pass stops early")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans-out", help="gzip file the spans of this pass are appended to")
    args = ap.parse_args()

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(gaugestrata.__file__).startswith(src + os.sep):
        sys.exit(f"gaugestrata was imported from {gaugestrata.__file__}, not {src}")
    refs = {}
    for name in ("poset", "cp2", "lookup"):
        with open(os.path.join(HERE, "refs", f"{name}.json")) as fh:
            refs[name] = json.load(fh)

    tracer = Tracer() if args.trace else None
    bundle, cp2 = gaugestrata.BundleSpec, gaugestrata.Manifold.CP2
    budget_error = gaugestrata.BudgetExceededError
    jones = gaugestrata.jones_solvable

    def attempt(q):
        """Run one query; returns (exit code, annotations, stdout, seconds).
        The program's functions are looked up at call time, so that the
        traced ones are used while the tracer is installed."""
        rc, anns, out = 0, None, ""
        if q.check == "cp2":
            t0 = perf_counter()
            try:
                anns = gaugestrata.orbit_types(bundle(q.n, cp2, q.c2))
            except budget_error:
                rc = 3
            except Exception as exc:  # any other raise is a wrong answer
                rc = f"raised {type(exc).__name__}: {exc}"
            return rc, anns, out, perf_counter() - t0
        buf, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            try:
                rc = gaugestrata.cli.main(q.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # any raise is a wrong answer
                rc = f"raised {type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        return rc, anns, buf.getvalue(), dt

    shape = workloads.SMOKE if args.smoke else workloads.FULL
    deck = workloads.make_deck(args.workload, args.seed, shape)
    modes = (False, True) if tracer else (False,)
    # per mode, per deck query: [seconds, outcome, kernel runs before it]
    # with outcome "ok", "budget" (CP^2 budget exit that the reference
    # expects) or "fail"
    attempts = {mode: [] for mode in modes}
    verified: dict = {}                # deck index -> (output digest, work counts)
    mismatches = []
    labels_decided = edges_emitted = output_bytes = 0
    full_strata = []                   # traced attempt ids of full strata queries
    calibration = [kernel_seconds() for _ in range(CALIBRATE_FIRST)]
    wall0 = last_calibrated = perf_counter()
    for i, q in enumerate(deck):
        if perf_counter() - wall0 > args.hard_cap:
            break
        if perf_counter() - last_calibrated > CALIBRATE_EVERY:
            calibration.append(kernel_seconds())
            last_calibrated = perf_counter()
        for traced in (modes if (i + args.pass_index) % 2 == 0 else modes[::-1]):
            if traced:
                tracer.query = (args.pass_index, i)
                if q.check == "strata":
                    full_strata.append(tracer.query)
                tracer.install()
            rc, anns, out, dt = attempt(q)
            if traced:
                tracer.uninstall()
            output_bytes += len(out.encode())
            record = [dt, "ok", len(calibration)]
            attempts[traced].append(record)
            if q.check == "cp2" and rc == 3:
                if refs["cp2"][f"{q.n}|{q.c2}"]["budget_exit"]:
                    record[1] = "budget"
                else:
                    record[1] = "fail"
                    mismatches.append(f"cp2 n={q.n} c2={q.c2}: unexpected budget exit")
                continue
            digest = hashlib.sha1(out.encode()).digest() if out else None
            if digest is not None and verified.get(i, (None,))[0] == digest:
                work = verified[i][1]
            else:
                try:
                    work = verify(q, refs, rc, out, anns, jones)
                except gate.Mismatch as exc:
                    record[1] = "fail"
                    mismatches.append(
                        f"{' '.join(q.argv) or q.check} n={q.n} c2={q.c2}: {exc}")
                    continue
                verified[i] = (digest, work)
            labels_decided += work[0]
            edges_emitted += work[1]

    result = {
        "untraced": attempts[False],
        "calibration": calibration + [kernel_seconds() for _ in range(CALIBRATE_FIRST)],
        "mismatches": mismatches[:10],
        "wall_s": perf_counter() - wall0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work": {"labels_decided": labels_decided, "edges_emitted": edges_emitted,
                 "output_bytes": output_bytes},
    }
    if tracer:
        result["traced"] = attempts[True]
        result["layers"] = layer_totals(tracer, full_strata)
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(result))


def layer_totals(tracer, full_strata):
    """Per-layer sums of the traced attempts of this pass; ``run.py``
    adds them up over the passes and divides by the traced attempts."""
    agg = tracer.aggregate()

    def get(name):
        return agg.get(name, {"calls": 0, "self_s": 0.0, "by_note": {}, "by_query": {}})

    out = {}
    for name in ("labels.enumerate_labels", "labels.direct_successors",
                 "strata.orbit_types", "strata.annotate", "diophantine.cp2_solvable"):
        out[f"{name}.calls"] = get(name)["calls"]
    for name in ("labels.enumerate_labels", "labels.hasse_diagram",
                 "labels.direct_successors", "labels.parse_label",
                 "strata.stratification_graph", "strata.annotate", "diophantine.d_s4",
                 "diophantine.d_s2xs2", "cli.main"):
        out[f"{name}.self_s"] = get(name)["self_s"]
    cp2 = get("diophantine.cp2_solvable")
    out["diophantine.cp2_solvable.modular_s"] = cp2["by_note"].get("modular", 0.0)
    out["diophantine.cp2_solvable.box_s"] = cp2["by_note"].get("box", 0.0)
    out["diophantine.cp2_solvable.budget_exits"] = sum(
        1 for s in tracer.spans
        if s[ERROR] == "BudgetExceededError" and s[NAME] == "diophantine.cp2_solvable")
    per_query = get("strata.orbit_types")["by_query"]
    out["strata.orbit_types.full_strata_calls"] = sum(per_query.get(q, 0) for q in full_strata)
    out["full_strata"] = len(full_strata)
    return out


if __name__ == "__main__":
    main()
