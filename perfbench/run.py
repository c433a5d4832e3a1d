"""twistedrs benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]      # every workload, both modes

One run sets up five times (four fresh processes and this one; the median
is `setup_s`), builds the seeded inputs, then repeats whole passes over them
in a closed loop with one client until S seconds and the workload's minimum
number of passes are reached.  Outputs are checked after timing.  With --trace 0
the end-to-end metrics are printed; with --trace 1 every operation runs twice,
untraced and traced, and the per-layer metrics and the tracing overhead are
printed.  The last line of stdout is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

from bench_cores import PIN_WITH_CHILDREN, pin, unpin, unpinned
from bench_trace import Recorder, Tracer, reduce_spans
from bench_workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 4


def _require_sources() -> None:
    missing = [p for p in (os.path.join(SRC, "twistedrs", "__init__.py"),
                           os.path.join(ROOT, "goldens", "table1")) if not os.path.exists(p)]
    if missing:
        sys.stderr.write("perfbench: run from a twistedrs checkout; missing " + ", ".join(missing) + "\n")
        sys.exit(2)


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def timed_setup(wl, tracer=None):
    """import, field contexts and warm-up; the tracer, if any, sees the latter two."""
    start = time.perf_counter()
    wl.import_package()
    if tracer is not None:
        tracer.install()
    try:
        wl.build_contexts()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - start


def setup_probe(name: str) -> None:
    wl = WORKLOADS[name](ROOT, os.path.join(OUT, f"{name}-probe"))
    print(json.dumps({"setup_s": timed_setup(wl)}))


def probe_setups(name: str) -> list[float]:
    """Set-up times of fresh processes, each started on the next core."""
    out = []
    for turn in range(SETUP_PROBES):
        if PIN_WITH_CHILDREN:
            pin(turn)
        proc = subprocess.run(unpinned([sys.executable, os.path.abspath(__file__), "--setup-probe", name]),
                              cwd=ROOT, capture_output=True, text=True, timeout=170)
        unpin()
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr[-2000:]}")
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def environment(seed: int, inputs_digest: str) -> dict:
    import numpy

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "twistedrs")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "none"
    except OSError:
        commit = "none"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit, "src_sha256": digest.hexdigest()[:16],
            "seed": seed, "inputs_sha256": inputs_digest}


def measure(wl, seconds: float, tracer):
    """Whole passes over the inputs until `seconds` have passed and at
    least `wl.min_passes` passes are done, each on the next core.  The
    minimum leaves the tail percentile ten samples beyond it; a traced run
    reports no percentile, so one pass will do.

    Returns (executions, wall seconds, untraced seconds, traced seconds); an
    execution is (op index, seconds, raw output, error text or None).  With a
    tracer each operation first runs untraced, then traced, so the overhead
    is measured on identical work.
    """

    def call(i, traced):
        start = time.perf_counter()
        try:
            raw, err = wl.run_op(i, traced), None
        except Exception:  # a failing operation counts as failed and the run goes on
            raw, err = None, traceback.format_exc(limit=3)
        return time.perf_counter() - start, raw, err

    min_execs = (wl.min_passes if tracer is None else 1) * wl.n_ops
    execs = []
    untraced = traced = 0.0
    start = time.perf_counter()
    for turn in itertools.count():
        if wl.in_process or PIN_WITH_CHILDREN:
            pin(turn)
        for i in range(wl.n_ops):
            if tracer is None:
                dt, raw, err = call(i, False)
            else:
                untraced += call(i, False)[0]
                tracer.rec.op = len(execs)
                if wl.in_process:
                    tracer.install()
                try:
                    dt, raw, err = call(i, True)
                finally:
                    tracer.uninstall()
                traced += dt
            execs.append((i, dt, raw, err))
        if (time.perf_counter() - start >= seconds
                and len(execs) >= min_execs):
            unpin()
            return execs, time.perf_counter() - start, untraced, traced


def check_outputs(wl, execs, rec):
    """(failed execution count, messages).  An execution fails when it raised,
    when its output differs from the first run of the same input, or when
    that first output fails the workload's check."""
    first, problems, messages, failed = {}, {}, [], 0
    for n, (i, _, raw, err) in enumerate(execs):
        if err is not None:
            failed += 1
            messages.append(f"op {i} raised: {err.strip().splitlines()[-1]}")
            continue
        summary, spans = wl.summarize(i, raw)
        if spans is not None and rec is not None:
            rec.extend(spans, n)
        if i not in first:
            first[i] = summary
            try:
                problems[i] = wl.check(i, summary)
            except Exception:
                problems[i] = ["check raised: " + traceback.format_exc(limit=3)]
            messages.extend(f"op {i}: {p}" for p in problems[i])
        elif summary != first[i]:
            failed += 1
            messages.append(f"op {i}: output differs between passes")
            continue
        failed += bool(problems[i])
    return failed, messages


def scalar_field_ns(seed: int) -> dict:
    """Fixed-size timings of Field.add and Field.mul on seeded operand pairs."""
    from twistedrs.field import Field

    out = {}
    for q in (256, 243):
        ctx = Field.of_order(q)
        rng = random.Random(f"scalar/{seed}/{q}")
        pairs = [(rng.randrange(1, q), rng.randrange(1, q)) for _ in range(4096)]
        for op in ("add", "mul"):
            fn, reps = getattr(ctx, op), []
            for _ in range(7):
                start = time.perf_counter_ns()
                for x, y in pairs:
                    fn(x, y)
                reps.append((time.perf_counter_ns() - start) / len(pairs))
            out[(op, q)] = statistics.median(reps)
    return {"field.add_ns.p2": out[("add", 256)], "field.add_ns.odd": out[("add", 243)],
            "field.mul_ns": (out[("mul", 256)] + out[("mul", 243)]) / 2}


def interpreter_floor_ms() -> float:
    reps = []
    for _ in range(5):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True, timeout=60)
        reps.append((time.perf_counter() - start) * 1000)
    return statistics.median(reps)


def layer_metrics(red: dict, setup_red: dict, n_ops: int) -> dict:
    calls, incl, counts = red["calls"], red["incl_ns"], red["counts"]

    def ms(name):
        return incl.get(name, 0) / n_ops / 1e6

    def per_op(name, key):
        return counts.get(name, {}).get(key, 0) / n_ops

    constructs = calls.get("field.construct", 0) + setup_red["calls"].get("field.construct", 0)
    construct_ns = incl.get("field.construct", 0) + setup_red["incl_ns"].get("field.construct", 0)
    hits = counts.get("enumeration.search", {}).get("hits", 0)
    fast = counts.get("enumeration.search", {}).get("fast_accepts", 0)
    pairs = red["search_pairs"] + fast
    m = {
        "field.construct_ms": (construct_ns / constructs / 1e6 if constructs else 0.0, "ms"),
        "field.construct_calls": (calls.get("field.construct", 0) / n_ops, "count/op"),
        "linalg.elim_calls": (calls.get("linalg.elim", 0) / n_ops, "count/op"),
        "linalg.elim_ms": (ms("linalg.elim"), "ms/op"),
        "linalg.mat_mul_ms": (ms("linalg.mat_mul"), "ms/op"),
        "codes.minors_ms": (ms("codes.minors"), "ms/op"),
        "codes.minors_scanned": (per_op("codes.minors", "subsets"), "count/op"),
        "codes.generator_ms": (ms("codes.generator"), "ms/op"),
        "codes.min_distance_ms": (ms("codes.min_distance"), "ms/op"),
        "codes.messages_scanned": (per_op("codes.min_distance", "messages"), "count/op"),
        "criteria.theorem31_ms": (ms("criteria.theorem31"), "ms/op"),
        "criteria.remark44_ms": (ms("criteria.remark44"), "ms/op"),
        "criteria.theorem42_ms": (ms("criteria.theorem42"), "ms/op"),
        "criteria.subsets_scanned": (sum(per_op(f"criteria.{c}", "subsets")
                                         for c in ("theorem31", "remark44", "theorem42")), "count/op"),
        "criteria.forbidden_eta_ms": (ms("criteria.forbidden_eta"), "ms/op"),
        "hull.report_ms": (ms("hull.report"), "ms/op"),
        "hull.direct_ms": (ms("hull.direct"), "ms/op"),
        "hull.construct_ms": (ms("hull.construct"), "ms/op"),
        "enumeration.count_ms": (ms("enumeration.count"), "ms/op"),
        "enumeration.sets_counted": (per_op("enumeration.count", "sets"), "count/op"),
        "enumeration.pairs_decided": (per_op("enumeration.count", "pairs"), "count/op"),
        "enumeration.search_ms": (ms("enumeration.search"), "ms/op"),
        "enumeration.search_pairs": (pairs / n_ops, "count/op"),
        "enumeration.search_hit_ratio": (hits / pairs if pairs else 0.0, "ratio"),
        "enumeration.fast_accept_ratio": (fast / hits if hits else 0.0, "ratio"),
        "profiles.load_ms": (ms("profiles.load"), "ms/op"),
        "cli.import_ms": (ms("cli.import"), "ms/op"),
        "cli.command_ms": (ms("cli.command"), "ms/op"),
        "cli.numpy_unused": (per_op("cli.command", "numpy_unused"), "count/op"),
    }
    for mod, ns in red["self_ns"].items():
        m[f"{mod}.self_ms"] = (ns / n_ops / 1e6, "ms/op")
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from bench_inputs import digest  # imports the package, so not before set-up

    out_dir = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}")
    os.makedirs(out_dir, exist_ok=True)
    setups = probe_setups(name)
    wl = WORKLOADS[name](ROOT, out_dir)
    setup_rec = Recorder()
    setups.append(timed_setup(wl, Tracer(setup_rec) if trace and wl.in_process else None))
    inputs = wl.build(seed)
    env = environment(seed, digest(inputs))

    rec = Recorder()
    tracer = Tracer(rec) if trace else None
    execs, wall, untraced, traced = measure(wl, seconds, tracer)
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    failed, failures = check_outputs(wl, execs, rec)

    # Every timing metric takes each input at its best execution in the run:
    # on a shared machine whose speed swings by a third from second to second,
    # that drops what other load slowed and keeps the mix of inputs.  The
    # latency percentiles still count every execution, at its input's best.
    best = {}
    for i, dt, _, _ in execs:
        best[i] = min(dt, best.get(i, dt))
    at_best = [best[i] for i, _, _, _ in execs]
    tail = percentile(at_best, wl.tail_pct)
    tail_n = sum(1 for t in at_best if t > tail)
    detail = {"workload": name, "ops": len(execs), "distinct_ops": wl.n_ops,
              "tail_percentile": wl.tail_pct, "tail_samples_beyond": tail_n,
              "failed_ratio": failed / len(execs), "failures": failures[:20], "env": env}
    if trace:
        red = reduce_spans(rec.spans)
        metrics = layer_metrics(red, reduce_spans(setup_rec.spans), len(execs))
        for key, val in scalar_field_ns(seed).items():
            metrics[key] = (val, "ns")
        metrics["cli.interp_ms"] = (interpreter_floor_ms(), "ms")
        metrics["trace.overhead_pct"] = ((traced / untraced - 1) * 100, "%")
        detail.update({"traced_s": traced, "untraced_s": untraced, "spans": len(rec.spans)})
        rec.dump(os.path.join(out_dir, "spans.jsonl"))
    else:
        pair_ops = [i for i in best if wl.pairs(i)]
        rss_kb = rss_self if wl.in_process else rss_children
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "queries_per_s": (len(best) / sum(best.values()), "1/s"),
            "query_p50_ms": (percentile(at_best, 50) * 1000, "ms"),
            "query_tail_ms": (tail * 1000, "ms"),
            "enum_pairs_per_s": (sum(wl.pairs(i) for i in pair_ops) / sum(best[i] for i in pair_ops), "1/s"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }
        detail.update({"wall_s": wall, "setup_samples_s": setups})
    result = {"correct": failed == 0, "attempted": len(execs), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    return result, detail


def print_run(result, detail) -> None:
    print(f"# {detail['workload']}  env {json.dumps(detail['env'], sort_keys=True)}")
    print(f"#   ops {detail['ops']} ({detail['distinct_ops']} distinct)  failed_ratio "
          f"{detail['failed_ratio']:.4g}  tail = p{detail['tail_percentile']} with "
          f"{detail['tail_samples_beyond']} samples beyond it")
    for f in detail["failures"]:
        print(f"#   FAILED {f}")
    for key, m in result["metrics"].items():
        print(f"  {detail['workload']:<13} {key:<32} {m['value']:>16.6g} {m['unit']}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                                  cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                status = 1
    return status


def main(argv=None) -> int:
    _require_sources()
    sys.path.insert(0, SRC)
    ap = argparse.ArgumentParser(description="twistedrs benchmark")
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_run(result, detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
