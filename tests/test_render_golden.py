"""The text and LaTeX output of `reduce` and `closed-form`, pinned byte for
byte against tests/golden/<system>-<command>-<format>.txt, and the
reduction's renderers against their term-by-term reference."""

import json
from pathlib import Path

import pytest

from conftest import EX1, EX2, STRESS_B, pinned_inputs
from dtpower import toric
from dtpower.cli import (_join_signed, _varnames, fmt_linear, main,
                         reduced_to_json, render_reduced_latex,
                         render_reduced_text)
from dtpower.expalg import DenomFactor, make_sum, make_term
from dtpower.toric import toric_reduce

GOLDEN = Path(__file__).parent / "golden"

# MIXED3D has negative and fractional coefficients, squares and mixed
# monomials in its pieces, and a negative reduced term.
SYSTEMS = {
    "ex1": EX1,
    "ex2": EX2,
    "mixed3d": ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 2, 1), (1, 0, 0)),
}


@pytest.mark.parametrize("fmt", ["text", "latex"])
@pytest.mark.parametrize("command", ["reduce", "closed-form"])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_output_matches_golden(name, command, fmt, tmp_path, capsys):
    spec = tmp_path / f"{name}.txt"
    spec.write_text("".join(" ".join(map(str, v)) + "\n" for v in SYSTEMS[name]))
    assert main([command, "--format", fmt, str(spec)]) == 0
    golden = GOLDEN / f"{name}-{command}-{fmt}.txt"
    assert capsys.readouterr().out == golden.read_text()


# The reduction's renderers as they read ReducedForm.sum, term by term,
# before they read toric.listing of rf.grouped: the reference below, over
# terms that expalg.make_sum sorts on its own, so that neither side's order
# comes from toric.listing.

def reference_terms(rf):
    return make_sum(make_term(q, c, [DenomFactor(v, p) for v, p in d])
                    for d, num in rf.grouped.items() for c, q in num.items()).terms


def reference_fmt_term(term, names) -> str:
    head = str(term.num.coeff)
    e = fmt_linear(term.num.shift, names)
    if e != "0":
        head = f"{head}*e^({e})" if head != "1" else f"e^({e})"
    tail = " ".join(
        f"(1 - e^(-({fmt_linear(f.vector, names)})))^{f.power}" if f.power > 1
        else f"(1 - e^(-({fmt_linear(f.vector, names)})))"
        for f in term.denom)
    return f"{head} / [{tail}]" if tail else head


def reference_text(rf) -> str:
    names = _varnames(len(rf.source[0]))
    return "\n".join(reference_fmt_term(t, names) for t in reference_terms(rf))


def reference_latex(rf) -> str:
    names = _varnames(len(rf.source[0]))
    parts = []
    for t in reference_terms(rf):
        q = t.num.coeff
        num = f"{abs(q)} e^{{{fmt_linear(t.num.shift, names)}}}"
        den = "".join(
            f"(1-e^{{-({fmt_linear(f.vector, names)})}})^{{{f.power}}}"
            for f in t.denom)
        parts.append(f"{'-' if q < 0 else ''}\\frac{{{num}}}{{{den}}}")
    return _join_signed(parts)


def reference_json(rf) -> dict:
    return {
        "dimension": len(rf.source[0]),
        "vectors": [list(v) for v in rf.source],
        "terms": [
            {
                "coeff": str(t.num.coeff),
                "shift": list(t.num.shift),
                "denominators": [
                    {"vector": list(f.vector), "power": f.power} for f in t.denom
                ],
            }
            for t in reference_terms(rf)
        ],
    }


class TestListing:
    """reduce renders toric.listing of rf.grouped and never builds rf.sum."""

    def test_renderers_match_the_term_by_term_reference(self):
        inputs = pinned_inputs()
        assert len(inputs) == 100
        for label, X in inputs:
            rf = toric_reduce(X)
            assert render_reduced_text(rf) == reference_text(rf), label
            assert render_reduced_latex(rf) == reference_latex(rf), label
            assert json.dumps(reduced_to_json(rf)) == json.dumps(reference_json(rf)), label

    @pytest.mark.parametrize("fmt", ["text", "json", "latex"])
    @pytest.mark.parametrize("X", [EX2, STRESS_B], ids=["ex2", "stressB"])
    def test_reduce_builds_no_terms(self, X, fmt, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("reduce went through ReducedForm.sum")

        monkeypatch.setattr(toric, "_to_sum", refuse)
        spec = tmp_path / "sys.txt"
        spec.write_text("".join(" ".join(map(str, v)) + "\n" for v in X))
        assert main(["reduce", "--format", fmt, str(spec)]) == 0
        assert capsys.readouterr().out.strip()
