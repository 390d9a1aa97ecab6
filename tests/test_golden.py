"""Golden outputs: the ROADMAP invariants as tier-1 tests.

Each file under tests/golden/ holds one output, one line per entry:

  * family_grid.txt: str(identity_family(name, (p, m))) for cor2_6,
    cor2_7, thm2_8 and thm2_9 with p 2-5 and m 0-2 (48 lines);
  * reductions.txt: sv_text(reduce_quadratic(spec)) for the 20 covered
    specs of weight 13 or less, the h family then the l family, p and
    then m ascending;
  * suite25.txt: tag, status and digitsAgreed of the 25-digit suite,
    tab-separated (41 rows).

A deliberate change of any of these rebuilds the files with
`PYTHONPATH=src python tests/test_golden.py`, and the diff is the review
artifact. The first two files must also keep their SHA-256 prefixes.
"""
import hashlib
from pathlib import Path

from eulersum.algebra import sv_text
from eulersum.reduce import identity_family, reduce_quadratic

GOLDEN = Path(__file__).parent / "golden"
HASHES = {
    "family_grid.txt": "3988bde694c1048c",
    "reductions.txt": "34cc0811304a6851",
}


def family_grid() -> str:
    return "".join(str(identity_family(name, (p, m))) + "\n"
                   for name in ("cor2_6", "cor2_7", "thm2_8", "thm2_9")
                   for p in range(2, 6) for m in range(3))


def reductions() -> str:
    return "".join(
        sv_text(reduce_quadratic(f"{k}({p})*{k}({p + 2 * m + 1})/n alt"))
        + "\n"
        for k in "hl" for p in range(2, 6) for m in range(6 - p))


def suite_table(reports) -> str:
    return "".join(f"{r.provenance}\t{r.status}\t{r.digits_agreed}\n"
                   for r in reports)


def _golden(name: str) -> str:
    return (GOLDEN / name).read_text()


def test_golden_family_grid():
    assert family_grid() == _golden("family_grid.txt")


def test_golden_reductions():
    assert reductions() == _golden("reductions.txt")


def test_golden_hashes():
    for name, want in HASHES.items():
        digest = hashlib.sha256(_golden(name).encode()).hexdigest()
        assert digest[:16] == want, name


def test_golden_suite25(suite25):
    assert suite_table(suite25) == _golden("suite25.txt")


if __name__ == "__main__":
    from eulersum.verify import run_suite

    GOLDEN.mkdir(exist_ok=True)
    for name, text in (("family_grid.txt", family_grid()),
                       ("reductions.txt", reductions()),
                       ("suite25.txt", suite_table(run_suite(25)))):
        (GOLDEN / name).write_text(text)
