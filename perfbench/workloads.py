"""The three workloads.  Each round repeats the same operations on the same
inputs, so every run attempts whole rounds.

A round returns a Round: its timed units and an output table, key -> value.
The checks of a workload are made once per run, after the rounds, against
the independent references of reference.py; every round's table is checked.
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import corpus
import reference


@dataclass
class Round:
    # unit -> perf_counter interval.  A unit key starts with the metric it
    # feeds: "total" units partition the round's time in dtpower calls;
    # "build" units are closed_form calls; "eval" units are evaluator calls.
    times: dict = field(default_factory=dict)
    evals: int = 0             # counts computed by the evaluator
    pieces: int = 0            # cone pieces of the closed forms built
    json_bytes: int = 0
    out: dict = field(default_factory=dict)

    def seconds(self, meter) -> dict:
        """unit -> seconds, each interval normalized by meter."""
        return {unit: meter.seconds(*t) for unit, t in self.times.items()}


def part_total(seconds: dict, part: str) -> float:
    """Seconds of one round's units that feed part ("total", "build", "eval")."""
    return sum(t for unit, t in seconds.items() if unit[0] == part)


@dataclass(frozen=True)
class Check:
    """kind is "system", "point" or "identity".  Passes when
    out[plus] - out[minus] == expected (minus None: out[plus] == expected)."""

    kind: str
    plus: tuple
    minus: tuple | None
    expected: object

    def passes(self, out: dict) -> bool:
        got = out.get(self.plus)
        if self.minus is not None and got is not None:
            other = out.get(self.minus)
            got = None if other is None else got - other
        return got == self.expected


@contextmanager
def probe(module, name: str, sink: list):
    """Time every call of module.name and keep ((start, end), args, result)."""
    fn = getattr(module, name)

    def timed(*args, **kwargs):
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        sink.append(((t0, perf_counter()), args, result))
        return result

    setattr(module, name, timed)
    try:
        yield
    finally:
        setattr(module, name, fn)


def _built(cf, X) -> bool:
    return cf.source == tuple(X) and len(cf.pieces) > 0


def _same_pieces(a, b) -> bool:
    """Piece-by-piece equality; ConePiece's own == ignores the polynomial."""
    return len(a.pieces) == len(b.pieces) and all(
        p.basis == q.basis and p.offset == q.offset and p.poly.monomials == q.poly.monomials
        for p, q in zip(a.pieces, b.pieces))


class VerifyCorpus:
    """engines.cross_check (what `dtpower verify` runs) on EX1, EX2 and the
    50 seeded systems over the ROADMAP baseline boxes."""

    name = "verify-corpus"

    def inputs(self):
        return corpus.corpus()

    def prepare(self, specs, seed: int) -> None:
        self.specs = specs
        self.order = list(range(len(specs)))
        random.Random(seed).shuffle(self.order)
        self.seed = seed

    def round(self, dt, scope) -> Round:
        r = Round()
        builds, walks = [], []
        with probe(dt.engines, "closed_form", builds), \
                probe(dt.engines, "eval_closed_box", walks):
            for idx in self.order:
                label, X = self.specs[idx]
                lo, hi = corpus.verify_box(X)
                scope(label)
                builds.clear()
                walks.clear()
                t0 = perf_counter()
                rep = dt.engines.cross_check(X, lo, hi, seed=self.seed + idx)
                r.times[("total", label)] = (t0, perf_counter())
                for i, (t, _, _) in enumerate(builds):
                    r.times[("build", label, i)] = t
                for i, (t, _, _) in enumerate(walks):
                    r.times[("eval", label, i)] = t
                npts = corpus.box_size(lo, hi)
                r.out[(label, "verified")] = rep.ok and set(rep.totals.values()) == {npts}
                counts = walks[0][2] if len(walks) == 1 else {}
                for p in dt.engines.box_points(lo, hi):
                    r.out[(label, p)] = counts.get(p, 0)
                r.pieces += sum(len(cf.pieces) for _, _, cf in builds)
                r.evals += sum(corpus.box_size(a[1], a[2]) for _, a, _ in walks)
        return r

    def checks(self, dt):
        out = []
        for label, X in self.specs:
            lo, hi = corpus.verify_box(X)
            out.append(Check("system", (label, "verified"), None, True))
            pts = list(dt.engines.box_points(lo, hi))
            for p, v in reference.dp_counts(X, pts).items():
                out.append(Check("point", (label, p), None, v))
            formula = {"EX1": lambda p: reference.ex1_count(*p),
                       "EX2": lambda p: reference.ex2_count(*p)}.get(label)
            if formula is not None:
                out += [Check("identity", (label, p), None, formula(p)) for p in pts]
        return out


class ReduceOrders:
    """closed_form for stress A and B in each distinct fold order; the
    input-order form counted over the system's box, every order queried at
    the same seeded points of that box."""

    name = "reduce-orders"
    points_per_order = 8

    def inputs(self):
        return corpus.stress_orders()

    def prepare(self, specs, seed: int) -> None:
        self.specs = specs
        rng = random.Random(seed)
        self.points = {n: corpus.box_sample(*corpus.STRESS_BOXES[n], self.points_per_order, rng)
                       for n in sorted(corpus.STRESS_BOXES)}

    @staticmethod
    def _system(label: str) -> str:
        return label[len("stress")]

    def round(self, dt, scope) -> Round:
        r = Round()
        q = dt.quasipoly
        for label, X in self.specs:
            scope(label)
            name = self._system(label)
            t0 = perf_counter()
            cf = q.closed_form(X)
            t1 = perf_counter()
            r.times[("total", label, "build")] = r.times[("build", label)] = (t0, t1)
            r.pieces += len(cf.pieces)
            r.out[(label, "built")] = _built(cf, X)
            if label.endswith(":0123"):
                lo, hi = corpus.STRESS_BOXES[name]
                counts = q.eval_closed_box(cf, lo, hi)
                r.times[("total", label, "box")] = (t1, perf_counter())
                for p in dt.engines.box_points(lo, hi):
                    r.out[(label, p)] = counts.get(p, 0)
            for j, p in enumerate(self.points[name]):
                t2 = perf_counter()
                r.out[(label, "query", p)] = q.eval_closed(cf, p)
                r.times[("total", label, j)] = r.times[("eval", label, j)] = (t2, perf_counter())
            r.evals += len(self.points[name])
        return r

    def checks(self, dt):
        out = []
        tables = {}
        for name, X in (("A", corpus.STRESS_A), ("B", corpus.STRESS_B)):
            lo, hi = corpus.STRESS_BOXES[name]
            pts = list(dt.engines.box_points(lo, hi))
            tables[name] = reference.dp_counts(X, pts + self.points[name])
        for label, X in self.specs:
            name = self._system(label)
            out.append(Check("system", (label, "built"), None, True))
            if label.endswith(":0123"):
                lo, hi = corpus.STRESS_BOXES[name]
                out += [Check("point", (label, p), None, tables[name][p])
                        for p in dt.engines.box_points(lo, hi)]
            # every order must give the counts of the DP: permutation invariance
            out += [Check("identity", (label, "query", p), None, tables[name][p])
                    for p in self.points[name]]
        return out


class QueryFar:
    """Build each corpus closed form once, round-trip it through the JSON
    schema, then count at seeded points far from the origin."""

    name = "query-far"
    points_per_system = 100

    def inputs(self):
        return corpus.corpus()

    def prepare(self, specs, seed: int) -> None:
        self.specs = specs
        rng = random.Random(seed)
        self.queries = {}
        for label, X in specs:
            i = reference.removable_index(list(X))
            pts = []
            for a in corpus.far_points(X, self.points_per_system, rng):
                pts.append(a)
                if i is not None:
                    pts.append(tuple(c - d for c, d in zip(a, X[i])))
            self.queries[label] = (i, pts)

    def round(self, dt, scope) -> Round:
        r = Round()
        cli, q = dt.cli, dt.quasipoly
        for label, X in self.specs:
            scope(label)
            t0 = perf_counter()
            cf = q.closed_form(X)
            t1 = perf_counter()
            text = json.dumps(cli.closed_form_to_json(cf), indent=2)
            back = cli.closed_form_from_json(json.loads(text))
            r.times[("total", label, "json")] = (t1, perf_counter())
            r.times[("total", label, "build")] = r.times[("build", label)] = (t0, t1)
            _, pts = self.queries[label]
            for j, p in enumerate(pts):
                t2 = perf_counter()
                r.out[(label, p)] = q.eval_closed(back, p)
                r.times[("total", label, j)] = r.times[("eval", label, j)] = (t2, perf_counter())
            r.evals += len(pts)
            r.pieces += len(cf.pieces)
            r.json_bytes += len(text)
            r.out[(label, "built")] = _built(back, X) and _same_pieces(cf, back)
        return r

    def checks(self, dt):
        """The difference identity t_X(a) - t_X(a - x) = t_{X minus x}(a),
        with t_{X minus x} from its own closed form; a DP count for 1-D
        systems; lattice-cone membership when X is a basis."""
        out = []
        q = dt.quasipoly
        for label, X in self.specs:
            out.append(Check("system", (label, "built"), None, True))
            i, pts = self.queries[label]
            if i is None:
                out += [Check("point", (label, p), None, reference.independent_count(X, p))
                        for p in pts]
                continue
            if len(X[0]) == 1:
                dp = reference.dp_counts(X, pts)
                out += [Check("point", (label, p), None, dp[p]) for p in pts]
            sub = q.closed_form(X[:i] + X[i + 1:])
            for a, a_minus in zip(pts[0::2], pts[1::2]):
                out.append(Check("identity", (label, a), (label, a_minus),
                                 q.eval_closed(sub, a)))
        return out


WORKLOADS = {w.name: w for w in (VerifyCorpus, ReduceOrders, QueryFar)}
