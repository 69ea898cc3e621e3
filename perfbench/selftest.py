"""Self-test of the benchmark's own parts.

    python3 perfbench/selftest.py

Checks the references on hand-known values, that the corpus generator with
its default seed reproduces the 50 systems of tests/conftest.py, that the
orders left out of reduce-orders reduce exactly like the ones kept, and
that the tracer puts back every function it wrapped.  Exits 1 on a failure.
"""

from __future__ import annotations

import importlib.util
import os
import sys

import corpus
import reference
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def conftest_systems():
    spec = importlib.util.spec_from_file_location(
        "dtpower_tests_conftest", os.path.join(ROOT, "tests", "conftest.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.random_pointed_systems()


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from dtpower import cli, engines, expalg, linalg, quasipoly, toric

    failures = []
    try:
        reference.self_test()
    except AssertionError as exc:
        failures.append(str(exc))

    if corpus.random_pointed_systems() != conftest_systems():
        failures.append("corpus generator differs from tests/conftest.py")

    for X in (corpus.STRESS_A, corpus.STRESS_B):
        for perm in corpus.distinct_orders(len(X)):
            swapped = (perm[1], perm[0]) + perm[2:]
            a = toric.toric_reduce([X[i] for i in perm]).sum
            b = toric.toric_reduce([X[i] for i in swapped]).sum
            if a != b:
                failures.append(f"orders {perm} and {swapped} reduce differently")

    modules = {"linalg": linalg, "expalg": expalg, "toric": toric,
               "quasipoly": quasipoly, "engines": engines, "cli": cli}
    before = {name: dict(vars(m)) for name, m in modules.items()}
    before_cls = (dict(vars(engines.DMContext)), dict(vars(quasipoly.MultiPoly)))
    tracer = Tracer(modules)
    tracer.install()
    traced = engines.cross_check(list(corpus.EX2), (-3, -3), (6, 6)).ok
    tracer.uninstall()
    snap = tracer.snapshot()
    if not traced or snap["functions"]["engines.cross_check"]["calls"] != 1:
        failures.append("traced cross_check on EX2 did not run once")
    if snap["functions"]["engines.DMContext.count"]["calls"] != 100:
        failures.append("DMContext.count is not recorded once per outermost call")
    after = {name: dict(vars(m)) for name, m in modules.items()}
    if after != before or (dict(vars(engines.DMContext)), dict(vars(quasipoly.MultiPoly))) != before_cls:
        failures.append("tracer left a wrapper installed")

    for f in failures:
        print(f"FAIL: {f}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
