"""gaugestrata benchmark: one workload, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload {poset,cp2,lookup} --seed N \\
        --seconds S --trace {0,1} [--smoke]

The run replays the seeded deck of the workload in whole passes until the
summed query time reaches ``--seconds``. Each pass runs in a fresh worker
interpreter (``worker.py``), so the program's ``descendants`` cache starts
cold in every pass, as in every CLI invocation, and all passes are alike.
Load comes from one thread in a closed loop, with ``PYTHONHASHSEED`` fixed
and ``STRATA_BUDGET`` unset, so the default search budget applies.

Times are given at a reference host speed. On a shared host the speed of
the CPU a process gets moves by up to a factor of two within a minute,
with the load of other tenants: on a 2-vCPU x86-64 VM the fastest of many
runs of one CP^2 query took 127 ms in one 8-second window and 80 ms in
the next. So each worker runs the fixed kernel of ``calibrate.py`` before
its first query, then between queries every 20 ms, and after its last;
the time of each attempt is multiplied by ``REFERENCE_KERNEL_S`` over the
median of the ``WINDOW`` kernel runs before it and the ``WINDOW`` after
it. On that VM, ten runs per workload (seeds 1-10) spread by at most 6 %
(quartile distance over median) on queries_per_s, p50 and tail, while
the kernel took from 1.1 to 2.2 ms. The summary line also gives the
figures unscaled.

The latency of a deck query is the median of its scaled attempts, one per
pass; every pass starts cold, so each attempt pays the cold cache.
``queries_per_s`` is the number of deck queries that succeeded divided by
the sum of the latencies of all deck queries; ``query_p50_s`` and
``query_tail_s`` are taken over the latencies of the deck queries that
succeeded.

Set-up time is the median over 21 fresh interpreters of the time from
process start until ``import gaugestrata.cli`` has returned, each scaled
by the median of ten kernel runs around it; they are started between the
passes, spread over the run.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` attempts each
query twice in each pass, once with spans around every layer and once
without, and reports the per-layer metrics of the traced attempts plus the
tracing overhead. The last line of stdout is one JSON object; a summary
table precedes it, and full results (with spans) go to perfbench/results/.
The exit code is 0 when every output passed the correctness gate.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import workloads
from calibrate import kernel_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
TIMEOUT = 170  # seconds; the whole run must end within 180
SETUP_SAMPLES = 21
REFERENCE_KERNEL_S = 0.0011  # calibrate.kernel on a quiet 2-vCPU x86-64 host
WINDOW = 2  # kernel runs on each side of an attempt that set its scale
PROBE = ("import gaugestrata.cli, sys; "
         "sys.stdout.write('ready\\n'); sys.stdout.flush()")


def environment(root: str) -> dict:
    env = dict(os.environ)
    env.pop("STRATA_BUDGET", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def finish(proc, timeout):
    """Wait for a child and return its stdout; kill it on any way out."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return out


def probe(env) -> float:
    """Seconds from spawning an interpreter until gaugestrata is imported."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", PROBE], env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
    finally:
        finish(proc, 30)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed to import gaugestrata")
    return ready


def calibrated_probe(env):
    """A set-up probe and the median calibration kernel time around it."""
    cal = [kernel_seconds() for _ in range(5)]
    ready = probe(env)
    cal += [kernel_seconds() for _ in range(5)]
    return ready, statistics.median(cal)


def run_pass(env, args, index, hard_cap, timeout, spans):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--pass-index", str(index), "--trace", str(args.trace),
           "--hard-cap", str(max(1.0, hard_cap))]
    if args.smoke:
        cmd.append("--smoke")
    if spans:
        cmd += ["--spans-out", spans]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    out = finish(proc, max(1.0, timeout))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def tail(samples):
    """Latency at the highest percentile with at least 10 samples above it,
    and that percentile; the maximum when there are 10 samples or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def figures(passes, calibrations, scaled=True) -> dict:
    """End-to-end figures of one group of attempts. ``passes`` holds per
    pass the [seconds, outcome, kernel runs before it] of each deck query
    it reached, ``calibrations`` per pass the kernel times. Each time is
    brought to reference speed by the median of the ``WINDOW`` kernel runs
    before it and the ``WINDOW`` after it, unless ``scaled`` is false."""
    per_query: list = []
    for rows, cal in zip(passes, calibrations):
        for i, (dt, outcome, c) in enumerate(rows):
            if i == len(per_query):
                per_query.append([])
            if scaled:
                dt *= REFERENCE_KERNEL_S / statistics.median(cal[max(0, c - WINDOW):c + WINDOW])
            per_query[i].append((dt, outcome))
    outcomes = [o for rows in per_query for _, o in rows]
    latency = [statistics.median(dt for dt, _ in rows) for rows in per_query]
    ok = [dt for dt, rows in zip(latency, per_query) if all(o == "ok" for _, o in rows)]
    tail_s, tail_pct = tail(ok or [float("nan")])
    return {"attempted": len(outcomes), "failed": len(outcomes) - outcomes.count("ok"),
            "budget_exits": outcomes.count("budget"), "deck_queries": len(latency),
            "samples": len(ok), "query_time_s": sum(row[0] for rows in passes for row in rows),
            "queries_per_s": len(ok) / sum(latency),
            "query_p50_s": statistics.median(ok) if ok else float("nan"),
            "query_tail_s": tail_s, "tail_percentile": tail_pct, "per_query_s": latency}


def summary_lines(workload, setup_s, run) -> list:
    res, raw = run["untraced"], run["unscaled"]
    fail_ratio = res["failed"] / res["attempted"]
    return [
        f"workload {workload}: {run['passes']} passes over a deck of {res['deck_queries']} "
        f"queries, {res['attempted']} untraced attempts, {res['query_time_s']:.2f} s of "
        f"query time; a query's latency is the median of its {run['passes']} scaled attempts",
        f"  setup_s       {setup_s:.4f} s   (median of {len(run['setup'])} interpreter starts)",
        f"  queries_per_s {res['queries_per_s']:.3f} 1/s",
        f"  query_p50_s   {res['query_p50_s']:.6f} s   ({res['samples']} deck queries)",
        f"  query_tail_s  {res['query_tail_s']:.6f} s   "
        + (f"(p{res['tail_percentile']:.2f}, 10 deck queries above it)" if res["samples"] > 10
           else "(maximum: 10 deck queries or fewer)"),
        f"  fail_ratio    {fail_ratio:.4f} ratio ({res['failed']}/{res['attempted']} attempts: "
        f"{res['budget_exits']} budget exits, {len(run['mismatches'])} mismatches)",
        f"  peak_rss_mb   {run['peak_rss_mb']:.1f} MB",
        f"  unscaled: queries_per_s {raw['queries_per_s']:.3f} 1/s, query_p50_s "
        f"{raw['query_p50_s']:.6f} s, query_tail_s {raw['query_tail_s']:.6f} s, setup_s "
        f"{statistics.median(ready for ready, _ in run['setup']):.4f} s; calibration kernel "
        f"{1000 * statistics.median(c for cal in run['calibration'] for c in cal):.3f} ms "
        f"(reference {1000 * REFERENCE_KERNEL_S:.3f} ms)",
    ]


def measure(env, args, deadline, spans) -> dict:
    """Passes in fresh workers until the summed query time reaches
    ``--seconds`` (at least one pass), with the set-up probes between them."""
    setup, passes = [], []
    spent = longest = 0.0
    while not passes or spent < args.seconds:
        while len(setup) < 1 + (SETUP_SAMPLES - 1) * min(1.0, spent / args.seconds):
            setup.append(calibrated_probe(env))
        now = perf_counter()
        if passes and now + 1.5 * longest > deadline:
            break
        res = run_pass(env, args, len(passes), deadline - now, deadline + 20 - now, spans)
        longest = max(longest, perf_counter() - now)
        passes.append(res)
        spent += sum(row[0] for mode in ("untraced", "traced") for row in res.get(mode, ()))
    setup += [calibrated_probe(env) for _ in range(SETUP_SAMPLES - len(setup))]
    mismatches = [m for res in passes for m in res["mismatches"]]
    cal = [res["calibration"] for res in passes]
    rows = [res["untraced"] for res in passes]
    run = {"passes": len(passes), "setup": setup, "mismatches": mismatches[:10],
           "correct": not mismatches, "calibration": cal,
           "peak_rss_mb": max(res["peak_rss_mb"] for res in passes),
           "untraced": figures(rows, cal),
           "unscaled": figures(rows, cal, scaled=False)}
    attempted = run["untraced"]["attempted"]
    run["failed"] = run["untraced"]["failed"]
    if args.trace:
        run["traced"] = figures([res["traced"] for res in passes], cal)
        attempted += run["traced"]["attempted"]
        run["failed"] += run["traced"]["failed"]
        totals: dict = {}
        for res, pass_cal in zip(passes, cal):
            scale = REFERENCE_KERNEL_S / statistics.median(pass_cal)
            for name, value in res["layers"].items():
                totals[name] = totals.get(name, 0) + value * (scale if name.endswith("_s") else 1)
        traced = run["traced"]["attempted"]
        full = totals.pop("full_strata")
        calls = totals.pop("strata.orbit_types.full_strata_calls")
        run["layers"] = {name: value / traced for name, value in totals.items()}
        run["layers"]["strata.orbit_types.calls_per_full_strata"] = calls / full if full else 0.0
    run["attempted"] = attempted
    run["work"] = {name: sum(res["work"][name] for res in passes) / attempted
                   for name in passes[0]["work"]}
    return run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("poset", "cp2", "lookup"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own self-test")
    args = ap.parse_args()
    deadline = perf_counter() + TIMEOUT - 25

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gaugestrata", "__init__.py")):
        print("error: run from the repository root; src/gaugestrata is missing",
              file=sys.stderr)
        return 2
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    env = environment(root)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    spans = os.path.join(results, f"{tag}-spans.jsonl.gz") if args.trace else None
    if spans and os.path.exists(spans):
        os.remove(spans)
    try:
        res = measure(env, args, deadline, spans)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_s = statistics.median(ready * REFERENCE_KERNEL_S / cal for ready, cal in res["setup"])

    lines = summary_lines(args.workload, setup_s, res)
    if args.trace:
        plain, traced = res["untraced"]["queries_per_s"], res["traced"]["queries_per_s"]
        values = dict(res["layers"])
        values.update({f"work.{name}": value for name, value in res["work"].items()})
        values["trace.queries_per_s"] = traced
        values["trace.overhead_pct"] = 100 * (plain - traced) / plain
        lines.append(f"  tracing overhead {values['trace.overhead_pct']:.1f} % of queries_per_s "
                     f"({plain:.3f} untraced, {traced:.3f} traced, interleaved attempts)")
        lines += [f"  {name:45s} {value:.6g} {units[name]}" for name, value in values.items()]
    else:
        values = {name: res["untraced"][name] for name in
                  ("queries_per_s", "query_p50_s", "query_tail_s")}
        values["peak_rss_mb"] = res["peak_rss_mb"]
        values["setup_s"] = setup_s
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    lines += [f"  MISMATCH {mismatch}" for mismatch in res["mismatches"]]

    deck = workloads.make_deck(args.workload, args.seed,
                               workloads.SMOKE if args.smoke else workloads.FULL)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_s": setup_s, "result": res,
              "deck": [" ".join(q.argv) or f"cp2 n={q.n} c2={q.c2}" for q in deck]}
    with open(os.path.join(results, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
