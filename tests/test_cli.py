import hashlib
import json
import random
import os
import string
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from synka import checks
from synka.countermodel import UnaryLang
from synka.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_inline(capsys):
    code, out, _ = run(capsys, "parse", "a&b")
    assert code == 0
    assert out == "a & b\n"


def test_parse_syntax_error_exit_code(capsys):
    code, out, err = run(capsys, "parse", "a &")
    assert code == 2
    assert out == ""
    assert "offset 3" in err


def test_parse_unknown_letter(capsys):
    code, _, err = run(capsys, "parse", "a + z", "--alphabet", "ab")
    assert code == 2
    assert "unknown letter" in err


def test_member_unknown_letter_in_the_word(capsys):
    code, out, err = run(capsys, "member", "{a}{b,z}", "a ; b", "--alphabet", "ab")
    assert (code, out) == (2, "")
    assert err == "error: unknown letter 'z' in the word (not in declared alphabet)\n"
    code, out, _ = run(capsys, "member", "{a}{b}", "a ; b", "--alphabet", "ab")
    assert (code, out) == (0, "member\n")


def test_parse_file(tmp_path, capsys):
    path = tmp_path / "terms.txt"
    path.write_text("# header\na & b\nH(a) ; b # note\n", encoding="utf-8")
    code, out, _ = run(capsys, "parse", "--file", str(path))
    assert code == 0
    assert out.splitlines() == ["a & b", "H(a) ; b"]


def test_equiv_positive(capsys):
    code, out, _ = run(capsys, "equiv", "a* & a*", "a*")
    assert code == 0
    assert out.strip() == "equivalent"


def test_equiv_negative_with_witness(capsys):
    code, out, _ = run(capsys, "equiv", "(a+b)* & (a+b)*", "(a+b)*")
    assert code == 1
    assert out.strip() == "not equivalent, witness {a,b}"


def test_equiv_json(capsys):
    code, out, _ = run(capsys, "equiv", "--json", "(a+b)* & (a+b)*", "(a+b)*")
    assert code == 1
    payload = json.loads(out)
    assert payload == {"command": "equiv", "equivalent": False, "witness": "{a,b}"}


def test_member(capsys):
    code, out, _ = run(capsys, "member", "{a,b}", "a & b")
    assert code == 0
    assert out.strip() == "member"
    code, out, _ = run(capsys, "member", "{a}", "a & b")
    assert code == 1
    assert out.strip() == "not a member"
    code, out, _ = run(capsys, "member", "eps", "1")
    assert code == 0


def test_nf(capsys):
    code, out, _ = run(capsys, "nf", "a & b")
    assert code == 0
    assert out.strip() == "a & b"


def test_nf_system(capsys):
    code, out, _ = run(capsys, "nf", "a", "--system")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("state a")
    assert lines[-1] == "a"


def test_nf_json_reports_states(capsys):
    code, out, _ = run(capsys, "nf", "--json", "--system", "(a+b;a)* & (a+b;a)*")
    assert code == 0
    payload = json.loads(out)
    assert payload["states"] == 6
    assert len(payload["system"]) == 6


def test_nf_json_reports_one_state_for_a_product_star(capsys):
    # (a & b)* steps on {a,b} to itself; built as 1 & 1, the continuation
    # of a & b would make (1 & 1) ; (a & b)* a second state.
    code, out, _ = run(capsys, "nf", "--json", "(a & b)*")
    assert code == 0
    assert json.loads(out)["states"] == 1


@pytest.mark.parametrize("term, counts", [
    ("(a+b;a)* & (a+b;a)*", (6, 2, 16)),
    ("a & b", (2, 1, 1)),
])
def test_automaton_json_counts(capsys, term, counts):
    code, out, _ = run(capsys, "automaton", "--json", term)
    assert code == 0
    payload = json.loads(out)
    assert (payload["states"], payload["accepting"], payload["transitions"]) == counts


def test_automaton_dot(tmp_path, capsys):
    target = tmp_path / "out.dot"
    code, out, _ = run(capsys, "automaton", "a & b", "--dot", str(target))
    assert code == 0
    assert "states: " in out
    text = target.read_text(encoding="utf-8")
    assert text.startswith("digraph {")
    assert "doublecircle" in text


def test_eval_cm(capsys):
    code, out, _ = run(capsys, "eval-cm", "a* & a*")
    assert code == 0
    assert out.strip() == "dagger"
    code, out, _ = run(capsys, "eval-cm", "a*")
    assert code == 0
    assert out.strip() == "{} + {0} mod 1 from 0"


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_nf_prints_its_normal_form_once(capsys, monkeypatch, mode):
    # The printed normal form serves the JSON payload and the text line alike.
    printed = []

    def print_term(term):
        printed.append(str(term))
        return printed[-1]

    monkeypatch.setattr("synka.cli.print_term", print_term)
    code, _, _ = run(capsys, "nf", *mode, "a + a")
    assert code == 0
    assert sorted(printed) == ["a", "a + a"]


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_eval_cm_prints_its_value_once(capsys, monkeypatch, mode):
    printed = []
    to_text = UnaryLang.__str__

    def counted(value):
        printed.append(to_text(value))
        return printed[-1]

    monkeypatch.setattr(UnaryLang, "__str__", counted)
    code, _, _ = run(capsys, "eval-cm", *mode, "a*")
    assert code == 0
    assert printed == ["{} + {0} mod 1 from 0"]


@pytest.mark.parametrize("argv, message", [
    (["check", "derivatives", "--bound", "-1"], "error: bound must be nonnegative\n"),
    (["parse", "--file", "missing/terms.txt"], None),
    (["automaton", "a", "--dot", "missing/out.dot"], None),
])
def test_refused_input_is_one_error_line(capsys, monkeypatch, tmp_path, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    if message is not None:
        assert err == message
    assert not (tmp_path / "missing").exists()


def test_eval_cm_rejects_h(capsys):
    code, _, err = run(capsys, "eval-cm", "H(a)")
    assert code == 2
    assert "H" in err


def test_check_suite_passes_and_is_deterministic(capsys):
    code, first, _ = run(capsys, "check", "axioms", "--iters", "5", "--seed", "9")
    assert code == 0
    assert "suite axioms:" in first
    code, second, _ = run(capsys, "check", "axioms", "--iters", "5", "--seed", "9")
    assert code == 0
    assert first == second


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "fundamental", "--iters", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "check"
    assert payload["suite"] == "fundamental"
    assert payload["passed"] is True
    assert payload["results"][0]["runs"] == 5


def test_check_all_suites_quick(capsys):
    for suite in checks.SUITES:
        code, out, _ = run(capsys, "check", suite, "--iters", "3")
        assert code == 0, (suite, out)
    # A suite that walked all 2^26 - 1 symbols of 26 letters would not answer.
    for suite in ("axioms", "derivatives", "fundamental", "normalform"):
        code, out, _ = run(capsys, "check", suite, "--seed", "1", "--alphabet", string.ascii_lowercase)
        assert code == 0, (suite, out)


def test_deep_chain_is_a_resource_error(capsys):
    # A ``;``-chain's states need O(1) new nodes each, whether it is written
    # nested to the right or to the left, so ``equiv``, ``nf`` and
    # ``automaton`` answer a chain of any length. A sum nested to the right
    # by written parentheses builds its transition table by recursion,
    # which overflows at 3000 levels.
    for length in (600, 3000, 5000):
        chain = ";".join("ab"[i % 2] for i in range(length))
        code, out, err = run(capsys, "equiv", chain, chain + " ; 1")
        assert (code, out, err) == (0, "equivalent\n", "")
    rng = random.Random(5)
    letters = [rng.choice("ab") for _ in range(5000)]
    # The chain is its own normal form.
    assert run(capsys, "nf", ";".join(letters)) == (0, " ; ".join(letters) + "\n", "")
    # One state per suffix, so a numbering that drops or repeats one shows.
    code, out, err = run(capsys, "nf", "--json", ";".join(letters))
    assert (code, json.loads(out)["states"], err) == (0, 5001, "")
    assert run(capsys, "automaton", ";".join(letters)) == (
        0, "states: 5001\naccepting: 1\ntransitions: 5000\n", "")
    left = "(" * 4998 + letters[0] + " ; " + ") ; ".join(letters[1:])
    assert run(capsys, "automaton", left) == (
        0, "states: 5001\naccepting: 1\ntransitions: 5000\n", "")
    assert run(capsys, "equiv", left, ";".join(letters)) == (0, "equivalent\n", "")
    letters = ["ab"[i % 2] for i in range(3000)]
    code, out, err = run(capsys, "nf", " + (".join(letters) + ")" * 2999)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("operator, edges", [("+", 2), ("&", 1)])
def test_flat_sum_and_product_of_5000_operands(capsys, operator, edges):
    # The parser nests a flat sum or product to the left, and its tables are
    # built bottom up along that spine, so no call recurses deeply.
    term = f" {operator} ".join("ab"[i % 2] for i in range(5000))
    assert run(capsys, "equiv", term, term + " + 0") == (0, "equivalent\n", "")
    code, out, err = run(capsys, "nf", "--json", term)
    assert (code, json.loads(out)["states"], err) == (0, 2, "")
    assert run(capsys, "member", "{a}{b}", term) == (1, "not a member\n", "")
    assert run(capsys, "automaton", term) == (
        0, "states: 2\naccepting: 1\ntransitions: %d\n" % edges, "")


def test_deep_nesting_parses(capsys):
    # The parser keeps explicit stacks, so nesting is not bounded by the
    # recursion limit.
    for depth in (300, 5000):
        code, out, err = run(capsys, "parse", "(" * depth + "a" + ")" * depth)
        assert (code, out, err) == (0, "a\n", "")


def test_out_of_memory_is_a_resource_error(capsys, monkeypatch):
    def exhaust(term):
        raise MemoryError

    monkeypatch.setattr("synka.normalform.build_system", exhaust)
    code, out, err = run(capsys, "nf", "a")
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"


@pytest.mark.parametrize("iters", ["0", "-3"])
def test_check_rejects_nonpositive_iters(capsys, iters):
    with pytest.raises(SystemExit) as exit_info:
        main(["check", "axioms", "--iters", iters])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == ""
    assert "--iters" in captured.err


def test_check_prints_counterexamples(capsys, monkeypatch):
    # With every equivalence answered "no", each equation fails, and the
    # report shows the kept instances under the FAIL line and in JSON.
    monkeypatch.setattr("synka.checks.equiv",
                        lambda *args, **kwargs: SimpleNamespace(equivalent=False, witness=()))
    code, out, _ = run(capsys, "check", "axioms", "--iters", "2")
    assert code == 1
    lines = out.splitlines()
    fail = lines.index(next(line for line in lines if line.startswith("FAIL axiom plus-comm:")))
    assert lines[fail + 1].startswith("    ") and " != " in lines[fail + 1]
    code, out, _ = run(capsys, "check", "axioms", "--iters", "2", "--json")
    assert code == 1
    result = json.loads(out)["results"][0]
    assert result["failures"] == 2 and len(result["details"]) == 2
    assert all(" != " in detail for detail in result["details"])
    # The whole report, whose details show the draws and the substitution,
    # pinned by its digest.
    code, out, _ = run(capsys, "check", "axioms", "--seed", "1", "--iters", "2")
    assert code == 1
    assert out.count("\n") == 88
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "54c1a785efe198efa828933d4f8103e69326b79a695af75289202961a2b5111b")


@pytest.mark.parametrize("argv", [["parse", "--cap", "5", "a"], ["equiv", "--seed", "1", "a", "a"],
                                  ["nf", "--bound", "3", "a"], ["eval-cm", "--iters", "2", "a"],
                                  ["check", "axioms", "--bound", "3"],
                                  ["check", "normalform", "--bound", "3"],
                                  ["check", "countermodel", "--alphabet", "xyz"]])
def test_command_rejects_flags_it_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_equiv_cap(capsys):
    code, out, err = run(capsys, "equiv", "--cap", "1", "(a+b;a)* & (a+b;a)*", "(a+b;a)*")
    assert (code, out) == (2, "")
    assert "exceeded 1 determinized state pairs" in err


def test_equiv_rejects_nonpositive_cap(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["equiv", "--cap", "-1", "a", "b"])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == ""
    assert "--cap" in captured.err and "at least 1" in captured.err


def test_check_rejects_empty_alphabet(capsys):
    code, out, err = run(capsys, "check", "axioms", "--alphabet", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["parse", "a"], ["member", "{a}", "a"], ["equiv", "a", "a"],
                                  ["nf", "a"], ["automaton", "a"], ["eval-cm", "a"],
                                  ["check", "axioms", "--iters", "1"]])
@pytest.mark.parametrize("alphabet, bad", [("A", "A"), ("a,b", ",")])
def test_every_command_validates_the_alphabet(capsys, argv, alphabet, bad):
    code, out, err = run(capsys, *argv, "--alphabet", alphabet)
    assert (code, out) == (2, "")
    assert err == "error: letters must be single characters a-z, got %r\n" % bad


def test_equiv_over_the_cap_is_one_error_line(capsys):
    code, out, err = run(capsys, "equiv", "--cap", "2", "(a+b)*;a;(a+b);(a+b);(a+b)",
                         "(a*;b*)*;a;(a+b);(a+b);(a+b)")
    assert (code, out) == (2, "")
    assert err == ("error: equivalence check exceeded 2 determinized state pairs;"
                   " --cap N raises the limit\n")


def test_other_runtime_errors_propagate(capsys, monkeypatch):
    # Only StateLimitError among runtime errors is a resource error; any
    # other one is a bug and must not be reported as an exit code.
    def broken(*args, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr("synka.equivalence.equiv", broken)
    with pytest.raises(RuntimeError, match="broken"):
        main(["equiv", "a", "a"])


_USAGE = "usage: synka [-h] {parse,member,equiv,nf,automaton,eval-cm,check} ..."
_EQUIV_USAGE = "usage: synka equiv [-h] [--alphabet LETTERS] [--json] [--cap N] left right"

# Each command and its help line, as ``synka -h`` lists them.
_COMMAND_HELP = [
    ("parse", "parse and reprint a term"),
    ("member", "decide word membership"),
    ("equiv", "decide language equivalence"),
    ("nf", "print an equivalent normal form"),
    ("automaton", "build the term's automaton"),
    ("eval-cm", "evaluate an H-free term in the one-letter model"),
    ("check", "run a property suite"),
]


@pytest.mark.parametrize("argv, code", [([], 2), (["-h"], 0), (["-h", "equiv"], 0), (["bogus"], 2),
                                        (["equiv", "-h"], 0), (["equiv", "a", "b", "--bogus"], 2)])
def test_usage_and_help_are_those_of_the_parser_for_every_command(capsys, monkeypatch, argv, code):
    # Only the usage line, the command list and the exit code are pinned:
    # the rest of argparse's page layout differs between Python versions.
    # argparse wraps to the width in COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        main(argv)
    captured = capsys.readouterr()
    assert exited.value.code == code
    page = (captured.out if code == 0 else captured.err).splitlines()
    usage = {("equiv", "-h"): _EQUIV_USAGE}.get(tuple(argv), _USAGE)
    assert page[0] == usage
    if code == 0 and usage == _USAGE:
        commands = dict(_COMMAND_HELP)
        listed = [tuple(line.split(None, 1)) for line in page
                  if line.startswith("    ") and line.split()[0] in commands]
        assert listed == _COMMAND_HELP


def _env(**extra):
    """A fresh interpreter's environment: ``src`` on its path, and ``extra``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                **extra)


def _fresh_run(*argv):
    """Run ``main(argv)`` in a fresh interpreter; return the names in
    ``sys.modules`` when it is done."""
    code = ("import sys, synka.cli; synka.cli.main(sys.argv[1:]); "
            "print(*sorted(sys.modules), sep='\\n', file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=_env(), check=True)
    return set(done.stderr.split())


def test_help_and_a_suite_run_under_optimized_bytecode():
    # python -OO strips docstrings, so the help lines live in the command table.
    def synka(*argv):
        return subprocess.run([sys.executable, "-OO", "-m", "synka.cli", *argv], capture_output=True,
                              text=True, env=_env(COLUMNS="80"), check=True).stdout

    lines = [line.split() for line in synka("--help").splitlines()]
    assert [name for name, text in _COMMAND_HELP if [name, *text.split()] not in lines] == []
    synka("check", "countermodel", "--seed", "1")


def test_parse_starts_with_the_parser_only():
    loaded = _fresh_run("parse", "1")
    assert {m for m in loaded if m.startswith("synka")} <= {
        "synka", "synka.cli", "synka.syntax", "synka.terms"}
    assert not loaded & {"dataclasses", "inspect", "json", "string"}


def test_equiv_starts_without_checks_or_normal_forms():
    loaded = _fresh_run("equiv", "a", "a")
    assert "synka.equivalence" in loaded
    assert not loaded & {"synka.checks", "synka.countermodel", "synka.normalform", "dataclasses"}


def test_closed_stdout_exits_quietly():
    # The system of the six-fold product prints about 466 KB, more than a
    # pipe holds, so the command is still writing when the reader leaves.
    term = " & ".join(["(a+b;a)*"] * 6)
    proc = subprocess.Popen([sys.executable, "-m", "synka.cli", "nf", "--system", term],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env())
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")
