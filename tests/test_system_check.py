"""Every entry point that takes a system X rejects an invalid one the same
way, through linalg.check_system: the library with ValueError, the CLI with
exit 2 and the same message."""

import pytest

from dtpower.cli import main
from dtpower.engines import DMContext, brute_force_box, brute_force_count, cross_check
from dtpower.linalg import check_system
from dtpower.quasipoly import closed_form
from dtpower.toric import toric_reduce

INVALID = {
    "empty": ([], "no vectors"),
    "ragged": ([(1, 0), (0,)], "ragged"),
    "zero vector": ([(1, 0), (0, 0)], "zero vector"),
    "rank-deficient": ([(1, 0), (2, 0)], "rank-deficient"),
    "not pointed": ([(1,), (-1,)], "not pointed"),
}


def run_cli(X, tmp_path, capsys):
    f = tmp_path / "sys.txt"
    f.write_text("".join(" ".join(map(str, v)) + "\n" for v in X))
    code = main(["reduce", str(f)])
    return code, capsys.readouterr().err


ENTRY_POINTS = {
    "toric_reduce": toric_reduce,
    "cross_check": lambda X: cross_check(X, (0, 0), (1, 1)),
    "closed_form": closed_form,
}


@pytest.mark.parametrize("case", sorted(INVALID))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS) + ["dtpower reduce"])
def test_invalid_system_rejected(entry, case, tmp_path, capsys):
    X, fragment = INVALID[case]
    if entry == "dtpower reduce":
        code, err = run_cli(X, tmp_path, capsys)
        assert code == 2
        assert err.startswith("error: ") and fragment in err
    else:
        with pytest.raises(ValueError, match=fragment):
            ENTRY_POINTS[entry](X)


def test_valid_system_gives_its_certificate():
    X = [(1, 0), (0, 1), (-1, 2)]
    cert = check_system(X)
    assert all(cert.pairing(a) >= 1 for a in X)


def test_dm_context_takes_a_pointed_rank_deficient_system():
    # the removal identity counts subsystems such as {(1,0), (2,0)}; both
    # engines take the certificate from X itself
    X = [(1, 0), (2, 0)]
    ctx = DMContext(X)
    table = brute_force_box(X, (0, 0), (5, 1))
    for a in range(6):
        assert ctx.count((a, 0)) == brute_force_count(X, (a, 0)) == table[(a, 0)] == a // 2 + 1
    assert ctx.count((1, 1)) == brute_force_count(X, (1, 1)) == 0
    assert (1, 1) not in table


@pytest.mark.parametrize("engine", [
    lambda X: brute_force_box(X, (0,), (3,)),
    lambda X: brute_force_count(X, (3,)),
    DMContext,
], ids=["brute_force_box", "brute_force_count", "DMContext"])
def test_brute_and_recursion_reject_a_system_that_is_not_pointed(engine):
    with pytest.raises(ValueError, match="not pointed"):
        engine([(1,), (-1,)])
