"""Command-line front end: parse vector systems, run engines, render results.

Subcommands: count | reduce | closed-form | verify | bench.  Input is one
vector per line of whitespace-separated integers ('#' comments allowed),
read as strict UTF-8 from a positional file or standard input.  reduce
prints toric.listing; verify and bench print one cross_check report.  Exit
codes: 0 success, 2 invalid input or usage, 3 verification failure,
4 broken internal invariant (a bug), 5 a size budget or Python's
recursion limit exceeded, 141 output pipe closed by its reader.  JSON is
written compact, without indentation, so CPython's C encoder writes it.
main pauses the cyclic garbage collector while a command runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from dataclasses import dataclass
from math import gcd, lcm

from .engines import brute_force_count, cross_check, dm_count
from .errors import BudgetError, InvariantError
from .linalg import Vec, check_system
from .quasipoly import ClosedForm, _canonical, closed_form, eval_closed
from .toric import listing, toric_reduce


class InputError(ValueError):
    """Invalid problem input; reported on stderr with exit code 2."""


@dataclass(frozen=True)
class ProblemSpec:
    dimension: int
    vectors: tuple[Vec, ...]
    label: str | None = None


def parse_vectors(text: str, label: str | None = None) -> ProblemSpec:
    """One vector per line; dimension inferred from the first row.

    The multiset order is preserved.  A line that is not an integer vector,
    and every system linalg.check_system rejects, raise InputError with
    their own messages.
    """
    vectors = []
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            vectors.append(tuple(int(tok) for tok in line.split()))
        except ValueError:
            raise InputError(f"line {ln}: not an integer vector: {line!r}")
    try:
        check_system(vectors)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return ProblemSpec(len(vectors[0]), tuple(vectors), label)


# ---------------------------------------------------------------- rendering

def _varnames(s: int) -> list[str]:
    return list("xyz"[:s]) if s <= 3 else [f"x{i + 1}" for i in range(s)]


def _join_signed(parts) -> str:
    """Join terms with " + ", or with " - " before a term that starts with "-"."""
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def fmt_linear(coeffs, names) -> str:
    parts = []
    for c, n in zip(coeffs, names):
        if c == 0:
            continue
        if c == 1:
            parts.append(n)
        elif c == -1:
            parts.append(f"-{n}")
        else:
            parts.append(f"{c}{n}")
    return _join_signed(parts) if parts else "0"


def _fmt_poly(poly: dict[Vec, int], den: int, names, coeff, sep: str) -> str:
    """The polynomial poly[exponents] / den, highest degree first: _ratio and
    "*" for text, _latex_frac and " " for LaTeX, as coeff(n, den) and sep."""
    bits = []
    for exps in sorted(poly, key=lambda e: (-sum(e), e)):
        n = poly[exps]
        var = sep.join(f"{v}^{p}" if p > 1 else v
                       for v, p in zip(names, exps) if p)
        if not var:
            bits.append(coeff(n, den))
        elif n == den:
            bits.append(var)
        elif n == -den:
            bits.append(f"-{var}")
        else:
            bits.append(f"{coeff(n, den)}{sep}{var}")
    return _join_signed(bits) if bits else "0"


def fmt_term(q: int, shift: Vec, denom, names) -> str:
    head = str(q)
    e = fmt_linear(shift, names)
    if e != "0":
        head = f"{head}*e^({e})" if head != "1" else f"e^({e})"
    tail = " ".join(f"(1 - e^(-({fmt_linear(v, names)})))" + (f"^{p}" if p > 1 else "")
                    for v, p in denom)
    return f"{head} / [{tail}]" if tail else head


def render_reduced_text(rf) -> str:
    names = _varnames(len(rf.source[0]))
    return "\n".join(fmt_term(q, c, d, names) for c, d, q in listing(rf.grouped))


def render_reduced_latex(rf) -> str:
    names = _varnames(len(rf.source[0]))
    parts = []
    for c, d, q in listing(rf.grouped):
        num = f"{abs(q)} e^{{{fmt_linear(c, names)}}}"
        den = "".join(f"(1-e^{{-({fmt_linear(v, names)})}})^{{{p}}}" for v, p in d)
        parts.append(f"{'-' if q < 0 else ''}\\frac{{{num}}}{{{den}}}")
    return _join_signed(parts)


def _latex_frac(n: int, d: int) -> str:
    """n / d in lowest terms, as LaTeX; d > 0."""
    g = gcd(n, d)
    if g == d:
        return str(n // g)
    return f"{'-' if n < 0 else ''}\\frac{{{abs(n) // g}}}{{{d // g}}}"


def render_closed_text(cf: ClosedForm) -> str:
    names = _varnames(len(cf.source[0]))
    lines = []
    for basis, offset, poly in cf.numerators:
        cone = ", ".join(str(b) for b in basis)
        lines.append(f"[{_fmt_poly(poly, cf.denominator, names, _ratio, '*')}]  on  "
                     f"{offset} + N*{{{cone}}}")
    return "\n".join(lines)


def render_closed_latex(cf: ClosedForm) -> str:
    names = _varnames(len(cf.source[0]))
    parts = []
    for basis, offset, poly in cf.numerators:
        cone = ",".join("(" + ",".join(str(c) for c in b) + ")" for b in basis)
        shift = ", ".join(f"{n} - ({v})" for n, v in zip(names, offset))
        text = _fmt_poly(poly, cf.denominator, names, _latex_frac, " ")
        parts.append(f"\\left({text}\\right)\\, t_{{\\{{{cone}\\}}}}({shift})")
    return " + ".join(parts)


# ------------------------------------------------------------- JSON schema

def closed_form_to_json(cf: ClosedForm) -> dict:
    return {
        "dimension": len(cf.source[0]),
        "vectors": [list(v) for v in cf.source],
        "pieces": [
            {
                "basis": [list(b) for b in basis],
                "offset": list(offset),
                "poly": [
                    {"exponents": list(e), "coeff": _ratio(poly[e], cf.denominator)}
                    for e in sorted(poly)
                ],
            }
            for basis, offset, poly in cf.numerators
        ],
    }


def _ratio(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, without making the Fraction."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def closed_form_from_json(data: dict) -> ClosedForm:
    """The ClosedForm that closed_form_to_json wrote: each distinct
    coefficient "n" or "n/d" is split into ints once, and the numerators
    are summed over L, the lcm of the d's, into quasipoly._canonical.
    ValueError names a coefficient that is not of that form or whose d is
    0."""
    ratios = {t: _parse_ratio(t) for t in {m["coeff"] for p in data["pieces"] for m in p["poly"]}}
    L = lcm(*(d for _, d in ratios.values()))
    acc: dict[tuple, dict[Vec, int]] = {}
    for p in data["pieces"]:
        poly = acc.setdefault((tuple(map(tuple, p["basis"])), tuple(p["offset"])), {})
        for m in p["poly"]:
            n, d = ratios[m["coeff"]]
            e = tuple(m["exponents"])
            poly[e] = poly.get(e, 0) + n * (L // d)
    return _canonical(data["vectors"], L, acc)


_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _parse_ratio(text) -> tuple[int, int]:
    """(n, d) of a coefficient written "n" or "n/d"; ValueError unless it
    is one, with d > 0."""
    m = _RATIO.fullmatch(text) if isinstance(text, str) else None
    if m is None:
        raise ValueError(f"malformed coefficient {text!r}")
    n, d = int(m[1]), int(m[2] or 1)
    if d == 0:
        raise ValueError(f"coefficient {text!r} has a zero denominator")
    return n, d


def reduced_to_json(rf) -> dict:
    return {
        "dimension": len(rf.source[0]),
        "vectors": [list(v) for v in rf.source],
        "terms": [
            {
                "coeff": str(q),
                "shift": list(c),
                "denominators": [{"vector": list(v), "power": p} for v, p in d],
            }
            for c, d, q in listing(rf.grouped)
        ],
    }


# ---------------------------------------------------------------- commands

def _read_vectors(args) -> tuple[Vec, ...]:
    """The system in args.input, a path or "-" for standard input (file
    descriptor 0, left open): read whole as bytes, decoded as strict UTF-8
    and parsed.  InputError names the source when reading or decoding fails."""
    stdin = not args.input or args.input == "-"
    source = "standard input" if stdin else args.input
    try:
        with open(0 if stdin else args.input, "rb", closefd=not stdin) as fh:
            text = fh.read().decode()
    except OSError as exc:
        raise InputError(f"cannot read {source}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {source}: {exc}")
    return parse_vectors(text).vectors


def _parse_point(text: str, dim: int) -> Vec:
    try:
        point = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise InputError(f"invalid point: {text!r}")
    if len(point) != dim:
        raise InputError(f"point has {len(point)} coordinates, expected {dim}")
    return point


def _parse_box(text: str, dim: int) -> tuple[Vec, Vec]:
    try:
        lo, hi = (int(t) for t in text.split(":"))
    except ValueError:
        raise InputError(f"invalid box: {text!r} (expected lo:hi)")
    if hi < lo:
        raise InputError("box upper corner below lower corner")
    return (lo,) * dim, (hi,) * dim


def cmd_count(args) -> int:
    X = _read_vectors(args)
    alpha = _parse_point(args.point, len(X[0]))
    if args.engine == "brute":
        value = brute_force_count(X, alpha)
    elif args.engine == "recursion":
        value = dm_count(X, alpha)
    else:
        value = eval_closed(closed_form(X), alpha)
    print(value)
    return 0


def cmd_render(args) -> int:
    """reduce and closed-form: build the object and print it in args.format
    with the renderer build_parser's table gives."""
    print(args.renders[args.format](args.build(_read_vectors(args))))
    return 0


def cmd_check(args) -> int:
    """verify and bench: one cross_check on args.box, printed by args.report."""
    X = _read_vectors(args)
    return args.report(cross_check(X, *_parse_box(args.box, len(X[0])), seed=args.seed))


def print_verify(report) -> int:
    npts = report.totals["brute"]
    if report.ok:
        print(f"OK: {npts} points, 0 mismatches")
        return 0
    print(f"FAIL: {npts} points, {len(report.mismatches)} mismatches")
    for alpha, b, r, c in report.mismatches:
        print(f"  at {alpha}: brute={b} recursion={r} closed={c}")
    return 3


def print_bench(report) -> int:
    print(f"{'engine':<12}{'points':>8}{'seconds':>12}")
    for eng in ("brute", "recursion", "closed"):
        print(f"{eng:<12}{report.totals[eng]:>8}{report.timings[eng]:>12.4f}")
    if not report.ok:
        print(f"{len(report.mismatches)} mismatches!")
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dtpower",
        description="Count nonnegative integer solutions of sum(beta_i * a_i) = alpha.",
        epilog="exit codes: 0 success, 2 invalid input or usage, 3 verification "
               "failure, 4 broken internal invariant (a bug; please report it), "
               "5 valid input too large: a term, memo or node budget exceeded, "
               "an inversion table that could pass the term budget, "
               "a verify box of more points than the memo budget, "
               "a coordinate past the packed-shift bound, "
               "or a walk deeper than Python's recursion limit; "
               "141 output pipe closed by its reader")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", nargs="?", default="-",
                       help="vector file, one integer vector per line (default: stdin)")

    p = sub.add_parser("count", help="count solutions at one lattice point")
    p.add_argument("--point", required=True, help="target point, e.g. 2 or 1,3")
    p.add_argument("--engine", choices=["brute", "recursion", "closed"],
                   default="closed")
    common(p)
    p.set_defaults(func=cmd_count)

    def dumps(to_json):
        return lambda obj: json.dumps(to_json(obj))

    # command -> (help, build, {format: render}), all run by cmd_render
    printers = {
        "reduce": ("print the toric reduction", toric_reduce,
                   {"text": render_reduced_text, "json": dumps(reduced_to_json),
                    "latex": render_reduced_latex}),
        "closed-form": ("print the closed form", closed_form,
                        {"text": render_closed_text, "json": dumps(closed_form_to_json),
                         "latex": render_closed_latex}),
    }
    for name, (help_, build, renders) in printers.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--format", choices=list(renders), default="text")
        common(p)
        p.set_defaults(func=cmd_render, build=build, renders=renders)

    box_help = ("per-coordinate range lo:hi; the default holds 19^s points, past the "
                "memo budget from dimension 5 on")
    p = sub.add_parser("verify", help="cross-check all engines on a box")
    p.add_argument("--box", default="-6:12", help=box_help)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_check, report=print_verify)

    p = sub.add_parser("bench", help="time all engines on a box")
    p.add_argument("--box", default="-6:12", help=box_help)
    common(p)
    p.set_defaults(func=cmd_check, report=print_bench, seed=0)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # a command keeps most of what it builds until it ends, so each pass of
    # the cyclic collector would walk the same objects again, for nothing
    collecting = gc.isenabled()
    gc.disable()
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader is gone: stdout goes to devnull so that the flush at
        # exit stays silent, and the status is a shell's for SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: internal invariant broken: {exc}", file=sys.stderr)
        return 4
    except BudgetError as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return 5
    except RecursionError:
        print("error: budget exceeded: the walk goes deeper than Python's recursion "
              f"limit of {sys.getrecursionlimit():,} frames", file=sys.stderr)
        return 5
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
