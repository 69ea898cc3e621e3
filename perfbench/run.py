"""dtpower benchmark: one workload per process, single-threaded.

    python3 perfbench/run.py --workload verify-corpus --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; dtpower is imported from its src/.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics;
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of the traced ones, with the tracing overhead, and writes the spans
to .bench_trace/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter
from types import SimpleNamespace

import corpus
import reference
from meter import SpeedMeter
from tracing import LAYERS, Tracer
from workloads import WORKLOADS, part_total

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MODULES = ("linalg", "expalg", "toric", "quasipoly", "engines", "cli")
SETUP_REPEATS = 7


def import_dtpower():
    """A fresh import of every dtpower module from this checkout's src/."""
    for name in [m for m in sys.modules if m == "dtpower" or m.startswith("dtpower.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("dtpower")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(SRC, "dtpower"):
        raise ImportError(f"dtpower imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"dtpower.{m}") for m in MODULES})


def setup(inputs, meter):
    """Import dtpower and validate every input through cli.parse_vectors.

    Repeated SETUP_REPEATS times; returns the median normalized seconds, the
    modules of the last import and the parsed systems.
    """
    texts = [(label, corpus.to_text(X)) for label, X in inputs]
    intervals = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        dt = import_dtpower()
        specs = [(label, dt.cli.parse_vectors(text, label).vectors) for label, text in texts]
        intervals.append((t0, perf_counter()))
    meter.sample()  # a probe after the last repeat, however short the set-up
    return statistics.median(meter.seconds(*t) for t in intervals), dt, specs, texts


def caches(dt):
    """Every functools cache defined in dtpower's modules."""
    found = []
    for m in MODULES:
        mod = getattr(dt, m)
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)) and getattr(obj, "__module__", "") == mod.__name__:
                found.append(obj)
    return found


def run_round(wl, dt, cached, scope=lambda label: None, texts=()):
    """One round from cold caches, as a fresh `dtpower` process would see.
    Returns the round and its perf_counter interval."""
    for c in cached:
        c.cache_clear()
    t0 = perf_counter()
    for label, text in texts:
        scope(label)
        dt.cli.parse_vectors(text, label)
    r = wl.round(dt, scope)
    return r, (t0, perf_counter())


def tally(wl, dt, rounds):
    """(attempted, failed) over every round's outputs."""
    checks = wl.checks(dt)
    failed = sum(not c.passes(r.out) for r in rounds for c in checks)
    kinds = {}
    for c in checks:
        kinds[c.kind] = kinds.get(c.kind, 0) + 1
    print(f"# {wl.name}: per round " + ", ".join(f"{n} {k}" for k, n in kinds.items())
          + f"; {len(rounds)} rounds, {failed} failed", file=sys.stderr)
    return len(checks) * len(rounds), failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, dt, cached, seconds, setup_s, meter):
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        rounds.append(run_round(wl, dt, cached)[0])
        if len(rounds) == 1:
            # before later rounds' output tables add to it
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    meter.stop()
    times = [r.seconds(meter) for r in rounds]
    med = statistics.median
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "total_s": metric(med(part_total(ts, "total") for ts in times), "s"),
        "build_s": metric(med(part_total(ts, "build") for ts in times), "s"),
        "query_rate": metric(med(r.evals / part_total(ts, "eval") for r, ts in zip(rounds, times)),
                             "points/s"),
        "pieces": metric(rounds[0].pieces, "count"),
        "peak_rss_mb": metric(peak, "MiB"),
    }
    raw = [sum(t1 - t0 for unit, (t0, t1) in r.times.items() if unit[0] == "total") for r in rounds]
    print(f"# {wl.name}: {len(rounds)} rounds in {perf_counter() - start:.1f} s; total_s raw "
          + " ".join(f"{x:.3f}" for x in raw) + ", normalized "
          + " ".join(f"{part_total(ts, 'total'):.3f}" for ts in times), file=sys.stderr)
    return rounds, metrics


def per_layer(snap, round_s, cache_ratio, json_bytes):
    """The per-layer metrics of one traced round, name -> (value, unit)."""
    f = snap["functions"]
    c = snap["counters"]

    def calls(name):
        return f.get(name, {}).get("calls", 0) + c.get("calls:" + name, 0)

    def secs(name):
        return f.get(name, {}).get("total_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "linalg.certificate_s": (secs("linalg.pointedness_certificate"), "s"),
        "linalg.rank_calls": (calls("linalg.rank"), "count"),
        "linalg.rank_s": (secs("linalg.rank"), "s"),
        "linalg.solve_calls": (calls("linalg.solve_columns"), "count"),
        "linalg.solve_s": (secs("linalg.solve_columns"), "s"),
        "linalg.orth_complement_calls": (calls("linalg.orth_complement"), "count"),
        "toric.reduce_calls": (calls("toric.toric_reduce"), "count"),
        "toric.reduce_s": (secs("toric.toric_reduce"), "s"),
        "toric.terms": (c.get("toric.terms", 0), "count"),
        "toric.absorb_calls": (calls("toric.absorb_vector"), "count"),
        "toric.partial_fraction_calls": (calls("toric.partial_fraction"), "count"),
        "toric.partial_fraction_s": (secs("toric.partial_fraction"), "s"),
        "toric.absorption_cache_hit_ratio": (cache_ratio, "ratio"),
        "expalg.mul_calls": (calls("expalg.mul"), "count"),
        "expalg.mul_s": (secs("expalg.mul"), "s"),
        "expalg.make_sum_calls": (calls("expalg.make_sum"), "count"),
        "expalg.eval_numeric_s": (secs("expalg.eval_numeric"), "s"),
        "quasipoly.invert_s": (secs("quasipoly.inverse_laplace_term"), "s"),
        "quasipoly.pieces_in": (c.get("quasipoly.pieces_in", 0), "count"),
        "quasipoly.pieces_out": (c.get("quasipoly.pieces_out", 0), "count"),
        "quasipoly.merge_s": (secs("quasipoly.merge_pieces"), "s"),
        "quasipoly.box_eval_s": (secs("quasipoly.eval_closed_box"), "s"),
        "quasipoly.box_points": (c.get("quasipoly.box_points", 0), "count"),
        "quasipoly.lattice_walked": (c.get("quasipoly.lattice_walked", 0), "count"),
        "quasipoly.walk_yield": (ratio(c.get("quasipoly.box_evals", 0),
                                       c.get("quasipoly.lattice_walked", 0)), "ratio"),
        "quasipoly.point_eval_s": (secs("quasipoly.eval_closed"), "s"),
        "quasipoly.membership_tests": (calls("quasipoly.support_membership"), "count"),
        "quasipoly.membership_hit_ratio": (ratio(c.get("quasipoly.membership_hits", 0),
                                                 calls("quasipoly.support_membership")), "ratio"),
        "quasipoly.poly_evals": (c.get("quasipoly.poly_evals", 0), "count"),
        "engines.brute_s": (secs("engines.brute_force_box"), "s"),
        "engines.recursion_s": (secs("engines.DMContext.count"), "s"),
        "engines.recursion_memo_entries": (c.get("engines.recursion_memo_entries", 0), "count"),
        "cli.parse_s": (secs("cli.parse_vectors"), "s"),
        "cli.json_write_s": (secs("cli.closed_form_to_json"), "s"),
        "cli.json_read_s": (secs("cli.closed_form_from_json"), "s"),
        "cli.json_bytes": (json_bytes, "bytes"),
    }
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, agg in f.items():
        layer_self[name.split(".")[0]] += agg["self_s"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["bench.self_s"] = (round_s - sum(layer_self.values()), "s")
    m["trace.spans"] = (snap["spans"] + snap["dropped"], "count")
    return m


def traced(wl, dt, cached, seconds, texts, trace_path, meter):
    """Alternate untraced and traced rounds, each with a parse pass over the
    inputs; per-layer metrics are medians over the traced rounds, and the
    overhead compares the median traced round with the median untraced one."""
    tracer = Tracer({m: getattr(dt, m) for m in MODULES})
    absorption = dt.toric._absorption_data
    rounds, plain, timed, layer_runs = [], [], [], []
    start = perf_counter()
    while not timed or perf_counter() - start < seconds:
        r, span = run_round(wl, dt, cached, texts=texts)
        rounds.append(r)
        plain.append(span)
        tracer.reset()
        tracer.install()
        try:
            r, span = run_round(wl, dt, cached, scope=tracer.set_scope, texts=texts)
        finally:
            tracer.uninstall()
        rounds.append(r)
        timed.append(span)
        info = absorption.cache_info()
        hit_ratio = info.hits / max(info.hits + info.misses, 1)
        layer_runs.append(per_layer(tracer.snapshot(), span[1] - span[0], hit_ratio, r.json_bytes))
    meter.stop()
    metrics = {name: metric(statistics.median(run[name][0] for run in layer_runs), unit)
               for name, (_, unit) in layer_runs[0].items()}
    plain_s = [meter.seconds(*t) for t in plain]
    timed_s = [meter.seconds(*t) for t in timed]
    overhead = statistics.median(timed_s) / statistics.median(plain_s) - 1
    metrics["trace.overhead"] = metric(overhead, "ratio")
    tracer.write(trace_path, {"workload": wl.name, "untraced_round_s": plain_s,
                              "traced_round_s": timed_s})
    print(f"# {wl.name}: {len(timed)} traced rounds, overhead {overhead:.2f}, "
          f"spans in {trace_path}", file=sys.stderr)
    for scope, counters in sorted(tracer.snapshot()["by_scope"].items()):
        keep = {k: v for k, v in counters.items() if ":" not in k}
        print(f"#   {scope or '-'}: {keep}", file=sys.stderr)
    return rounds, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dtpower", "__init__.py")):
        print(f"error: no dtpower sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    reference.self_test()

    wl = WORKLOADS[args.workload]()
    meter = SpeedMeter()
    meter.start()
    try:
        setup_s, dt, specs, texts = setup(wl.inputs(), meter)
        wl.prepare(specs, args.seed)
        cached = caches(dt)
        if args.trace:
            path = os.path.join(ROOT, ".bench_trace", f"{wl.name}-seed{args.seed}.json")
            rounds, metrics = traced(wl, dt, cached, args.seconds, texts, path, meter)
        else:
            rounds, metrics = end_to_end(wl, dt, cached, args.seconds, setup_s, meter)
    finally:
        meter.stop()
    attempted, failed = tally(wl, dt, rounds)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
