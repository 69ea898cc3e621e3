"""Spans and counters around dtpower's layer-boundary functions.

The tracer replaces each traced function by a wrapper in every dtpower
module that binds it, so calls made inside the library (for example
engines.cross_check -> engines.toric_reduce) are seen as well as the
benchmark's own calls.  Leaf vector arithmetic (dot, vadd, make_term, ...)
is not wrapped: it runs millions of times per round, and spans on it would
measure the tracer rather than the program.

Spans live in memory (compact arrays, capped) and are written out when the
benchmark ends.  Each span records its function, start, end and parent; the
aggregate per function keeps calls, total and self time, where self time is
the duration minus the part covered by child spans.  Counters (call edges
"edge:<caller>><callee>", span nanoseconds "ns:<function>" and the counts
named in the hooks below) are kept in total and per scope.
"""

from __future__ import annotations

import json
import os
import time
from array import array

from corpus import box_size

LAYERS = ("linalg", "expalg", "toric", "quasipoly", "engines", "cli")

# (layer, attribute path, kind).  "span": timed call.  "outer": timed at the
# outermost call only (recursive functions).  "count": call counted, not timed.
TARGETS = (
    ("linalg", "rank", "span"),
    ("linalg", "solve_columns", "span"),
    ("linalg", "solve_square", "span"),
    ("linalg", "integer_relation", "span"),
    ("linalg", "orth_complement", "span"),
    ("linalg", "pointedness_certificate", "span"),
    ("expalg", "make_sum", "span"),
    ("expalg", "add", "span"),
    ("expalg", "mul", "span"),
    ("expalg", "laplace_generating", "span"),
    ("expalg", "geometric_factor", "span"),
    ("expalg", "eval_numeric", "outer"),
    ("expalg", "random_generic_point", "span"),
    ("toric", "toric_reduce", "span"),
    ("toric", "absorb_vector", "span"),
    ("toric", "partial_fraction", "span"),
    ("toric", "expand_dependent", "span"),
    ("toric", "assert_reduced_invariants", "span"),
    ("quasipoly", "closed_form", "span"),
    ("quasipoly", "inverse_laplace_term", "span"),
    ("quasipoly", "merge_pieces", "span"),
    ("quasipoly", "eval_closed", "span"),
    ("quasipoly", "eval_closed_box", "span"),
    ("quasipoly", "support_membership", "count"),
    ("quasipoly", "MultiPoly.evaluate", "count"),
    ("engines", "cross_check", "span"),
    ("engines", "brute_force_box", "span"),
    ("engines", "brute_force_count", "span"),
    ("engines", "DMContext.count", "outer"),
    ("cli", "parse_vectors", "span"),
    ("cli", "closed_form_to_json", "span"),
    ("cli", "closed_form_from_json", "span"),
)


class _EdgeKeys(dict):
    """Parent name id -> counter key "edge:<parent>><child>", built once."""

    def __init__(self, names, child):
        super().__init__()
        self.names, self.child = names, child

    def __missing__(self, parent):
        key = self[parent] = f"edge:{self.names[parent] if parent >= 0 else '-'}>{self.child}"
        return key


class Tracer:
    """Install with install(), read one round with snapshot(), undo with
    uninstall().  Counters are kept in total and per scope; the workload sets
    the scope to the label of the input it is working on."""

    def __init__(self, modules: dict, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.names: list[str] = []
        self._plan = self._wrappers(modules)   # (owner, attribute, wrapper)
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    # ------------------------------------------------------------ state

    def reset(self) -> None:
        self.agg: dict[int, list[int]] = {}     # name id -> [calls, total_ns, self_ns]
        self.counters: dict[str, int] = {}
        self.by_scope: dict[str, dict[str, int]] = {}
        self.set_scope("")
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.dropped = 0
        # frame: [child_ns, name id, span index]
        self._stack = [[0, -1, -1]]

    def set_scope(self, scope: str) -> None:
        self.scope = scope
        self._scope_counters = self.by_scope.setdefault(scope, {})

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n
        sc = self._scope_counters
        sc[key] = sc.get(key, 0) + n

    def innermost(self) -> str:
        nid = self._stack[-1][1]
        return self.names[nid] if nid >= 0 else ""

    # --------------------------------------------------------- patching

    def _wrappers(self, modules: dict) -> list:
        plan = []
        bound = list(modules.values())
        for layer, path, kind in TARGETS:
            mod = modules[layer]
            name = f"{layer}.{path}"
            after = getattr(self, "_after_" + path.replace(".", "_"), None)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name)
                plan.append((owner, attr, self._wrap(name, kind, owner.__dict__[attr], after)))
                continue
            orig = getattr(mod, path)
            wrapper = self._wrap(name, kind, orig, after)
            plan += [(m, path, wrapper) for m in bound  # every module that imported it
                     if m.__dict__.get(path) is orig]
        quasipoly = modules["quasipoly"]
        plan.append((quasipoly, "product", self._lattice_product(quasipoly.product)))
        return plan

    def install(self) -> None:
        for owner, attr, wrapper in self._plan:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _wrap(self, name: str, kind: str, fn, after):
        nid = len(self.names)
        self.names.append(name)
        tracer = self
        clock = time.perf_counter_ns

        if kind == "count":
            calls_key = "calls:" + name

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                tracer.count(calls_key)
                if after is not None:
                    after(args, result)
                return result
            return counted

        depth = [0]
        edge_keys = _EdgeKeys(self.names, name)
        ns_key = "ns:" + name

        def spanned(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)  # inner call of an outermost-only span
            if kind == "outer":
                depth[0] = 1
            stack = tracer._stack
            parent = stack[-1]
            idx = len(tracer.span_name)
            if idx < tracer.max_spans:  # reserve the slot so children can point at it
                tracer.span_name.append(nid)
                tracer.span_start.append(0)
                tracer.span_end.append(0)
                tracer.span_parent.append(parent[2])
            else:
                idx = -1
                tracer.dropped += 1
            frame = [0, nid, idx]
            stack.append(frame)
            state = after(args, None, before=True) if after is not None else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[0] = 0
                dur = end - start
                parent[0] += dur
                agg = tracer.agg.get(nid)
                if agg is None:
                    agg = tracer.agg[nid] = [0, 0, 0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                if idx >= 0:
                    tracer.span_start[idx] = start
                    tracer.span_end[idx] = end
            tracer.count(edge_keys[parent[1]])
            tracer.count(ns_key, dur)
            if after is not None:
                after(args, result, state=state)
            return result

        return spanned

    def _lattice_product(self, product):
        """itertools.product as bound in quasipoly: a call on ranges is the
        cone lattice walk of eval_closed_box; count the points it yields."""
        def counting_product(*iterables, **kwargs):
            if iterables and all(isinstance(r, range) for r in iterables):
                n = 1
                for r in iterables:
                    n *= len(r)
                self.count("quasipoly.lattice_walked", n)
            return product(*iterables, **kwargs)
        return counting_product

    # ------------------------------------------------ per-function counts

    def _after_toric_reduce(self, args, result, before=False, state=None):
        if not before:
            self.count("toric.terms", len(result.sum.terms))

    def _after_merge_pieces(self, args, result, before=False, state=None):
        if not before:
            self.count("quasipoly.pieces_in", len(args[1]))
            self.count("quasipoly.pieces_out", len(result.pieces))

    def _after_eval_closed_box(self, args, result, before=False, state=None):
        if not before:
            self.count("quasipoly.box_points", box_size(args[1], args[2]))

    def _after_support_membership(self, args, result):
        if result:
            self.count("quasipoly.membership_hits")

    def _after_MultiPoly_evaluate(self, args, result):
        where = self.innermost()
        if where == "quasipoly.eval_closed_box":
            self.count("quasipoly.box_evals")
        elif where == "quasipoly.eval_closed":
            self.count("quasipoly.poly_evals")

    def _after_DMContext_count(self, args, result, before=False, state=None):
        if before:
            return len(args[0].memo)
        self.count("engines.recursion_memo_entries", len(args[0].memo) - state)

    # ---------------------------------------------------------- results

    def snapshot(self) -> dict:
        """Aggregates of everything recorded since the last reset()."""
        funcs = {}
        for nid, (calls, total, own) in self.agg.items():
            funcs[self.names[nid]] = {"calls": calls, "total_s": total / 1e9,
                                      "self_s": own / 1e9}
        return {"functions": funcs, "counters": dict(self.counters),
                "by_scope": {k: dict(v) for k, v in self.by_scope.items() if v},
                "spans": len(self.span_name), "dropped": self.dropped}

    def write(self, path: str, extra: dict) -> None:
        """Write the recorded spans and aggregates as one JSON document."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.span_start[0] if self.span_start else 0
        doc = dict(extra)
        doc.update(self.snapshot())
        doc["names"] = self.names
        doc["span_columns"] = ["name", "start_ns", "end_ns", "parent"]
        doc["span_rows"] = [[n, s - t0, e - t0, p] for n, s, e, p in
                            zip(self.span_name, self.span_start, self.span_end,
                                self.span_parent)]
        with open(path, "w") as fh:
            json.dump(doc, fh)
