"""Outputs that must not depend on the hash seed: terms hash by identity
and letter sets by ``PYTHONHASHSEED``. Run as ``PYTHONPATH=src python
tests/test_determinism.py``, this file prints them in a fixed order; the
test runs it under two hash seeds and compares. A change keeps them when
``PYTHONHASHSEED=0`` runs print the same at its parent and at itself.
"""

import json
import subprocess
import sys
from pathlib import Path

import test_golden
from synka import checks, parse_term, unfold
from test_cli import _env


def _print(argv: list[str], code: int = 0) -> str:
    """Print what ``synka argv`` prints, and return it."""
    text = test_golden._run(argv, code)
    print(text, end="")
    return text


def main() -> None:
    print(test_golden._text(), end="")
    for suite in checks.SUITES:
        _print(["check", suite, "--seed", "1", "--json"])
    # equiv searches breadth first over symbols in sorted order, so the
    # shortest witness it prints does not depend on the seed.
    for left, right in [("(a+b)* & (a+b)*", "(a+b)*"), ("(a;b)* & (c+d)*", "(a & c ; b & d)*"),
                        ("(a+b+c+d)* & (a+b+c+d)*", "(a+b+c+d)* & (a+b)*"),
                        ("(a+b)*;a" + ";(a+b)" * 8, "(a*;b*)*;a" + ";(a+b)" * 8 + " + b" + ";b" * 8)]:
        _print(["equiv", "--json", left, right], 1)
    # unfold prints the continuations of all its symbols in one walk over a
    # set of terms, so its summands must still come out sorted.
    empty_part, summands = unfold(parse_term(" & ".join(["(a+b+c+d+e+f)*"] * 3)))
    print(empty_part)
    for symbol, target in summands:
        print(symbol, target)
    # Congruence decides the power pair within ten examined pairs, and the
    # commuted pair, whose successors have equal sides by 1 & e = e, at once.
    tail = ";a" + ";(a+b)" * 14
    _print(["equiv", "--cap", "10", "(a+b)*" + tail, "(a*;b*)*" + tail])
    _print(["equiv", "--cap", "1", "(a & b + a + 1) & (c* + d)*", "(c* + d)* & (a & b + a + 1)"])
    # equiv-deep is left out: it takes seconds per seed to generate.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import corpus

    for seed in (1, 2, 3):
        for request in corpus.generate("nf-cm", seed):
            normal = json.loads(_print(["nf", "--json", request["term"]]))["normal_form"]
            _print(["eval-cm", "--json", request["term"]])
            _print(["eval-cm", "--json", normal])
        for request in corpus.generate("equiv-wide", seed):
            _print(["equiv", "--json", request["left"], request["right"]],
                   0 if request["equivalent"] else 1)


def test_outputs_do_not_depend_on_the_hash_seed():
    runs = [subprocess.Popen([sys.executable, __file__], stdout=subprocess.PIPE, text=True,
                             env=_env(PYTHONHASHSEED=seed)) for seed in ("0", "7")]
    first, second = (run.communicate()[0] for run in runs)
    assert [run.returncode for run in runs] == [0, 0]
    assert first and first == second


if __name__ == "__main__":
    main()
