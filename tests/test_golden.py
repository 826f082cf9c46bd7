"""Golden outputs: ``nf``, ``nf --system``, ``automaton --json`` and the DOT
file of fixed terms, the ``eval-cm`` value of fixed one-letter terms, and
the ``check SUITE --seed 1`` text report of each suite in
``checks.SUITES``, byte for byte as ``data/golden.txt`` holds them.

Terms hash by identity, so a solve step, a matrix row or a DOT listing
taken in the hash order of terms would change these bytes between runs;
``test_determinism.py`` compares them under two hash seeds. The five-fold
product's outputs (87 KB of system, 120 KB of DOT) are kept as SHA-256
digests. The check reports pin each suite's draws and verdicts, so a
suite change that moves a report, or a new suite, fails here until the
file is rewritten. A change that alters an output on purpose rewrites
the file with ``PYTHONPATH=src python tests/test_golden.py`` and lists
what changed.
"""

import contextlib
import hashlib
import io
import re
import tempfile
from pathlib import Path

import pytest

from synka import checks, cli

GOLDEN = Path(__file__).parent / "data" / "golden.txt"

_PRODUCT = "(a+b;a)*"
# Terms whose outputs are kept in full, then those kept as digests.
TERMS = ("a", "0", "a + a;b", "H(a*)", " & ".join([_PRODUCT] * 2), " & ".join([_PRODUCT] * 3),
         "(a;b)* & (b;a)*")
DIGESTED = (" & ".join([_PRODUCT] * 5),)
# Terms whose countermodel value is kept: the dagger, stars of finite sets
# (one reaching threshold 60, one of period 2) and a product with a star.
EVAL_CM = ("a* & a*", "(a;a;a + a;a;a;a;a)*", "(a;a;a;a;a;a;a + a;a;a;a;a;a;a;a;a;a;a)*",
           "(a;a;a;a + a;a;a;a;a;a)*", "(a;a;a)* & a;a;a;a", "0*", "(1 + a;a)*")
# Suites whose seed-1 report is kept, after the terms.
SUITES = tuple(checks.SUITES)
SUBJECTS = TERMS + DIGESTED + EVAL_CM + SUITES


def _run(argv: list[str], code: int = 0) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == code, argv
    return out.getvalue()


def _outputs(term: str) -> list[tuple[str, str]]:
    """Each golden output of ``term``, a term or a suite's name, after its
    label."""
    if term in SUITES:
        return [("check --seed 1", _run(["check", term, "--seed", "1"]))]
    if term in EVAL_CM:
        return [("eval-cm", _run(["eval-cm", term]))]
    with tempfile.TemporaryDirectory() as scratch:
        dot = Path(scratch) / "automaton.dot"
        _run(["automaton", term, "--dot", str(dot)])
        outputs = [("nf", _run(["nf", term])), ("nf --system", _run(["nf", "--system", term])),
                   ("automaton --json", _run(["automaton", "--json", term])),
                   ("dot", dot.read_text(encoding="utf-8"))]
    if term in DIGESTED:
        return [(label, "sha256 %s\n" % hashlib.sha256(text.encode()).hexdigest())
                for label, text in outputs]
    return outputs


def _text() -> str:
    """The golden file as its outputs make it now."""
    return "".join("### %s: %s\n%s" % (label, term, text)
                   for term in SUBJECTS for label, text in _outputs(term))


def _blocks() -> dict[str, str]:
    """The golden file's outputs, each after its ``label: term`` header."""
    parts = re.split(r"^### (.*)\n", GOLDEN.read_text(encoding="utf-8"), flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


@pytest.mark.parametrize("term", SUBJECTS)
def test_outputs_match_the_golden_file(term):
    golden = _blocks()
    for label, text in _outputs(term):
        assert text == golden["%s: %s" % (label, term)], label


def test_the_file_holds_no_stale_or_extra_block():
    assert GOLDEN.read_text(encoding="utf-8") == _text()


if __name__ == "__main__":
    GOLDEN.write_text(_text(), encoding="utf-8")
