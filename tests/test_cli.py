import json

import pytest

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
    for suite in ("axioms", "derivatives", "fundamental", "normalform", "countermodel"):
        code, out, _ = run(capsys, "check", suite, "--iters", "3")
        assert code == 0, (suite, out)


@pytest.mark.parametrize("iters", ["0", "-3"])
def test_check_rejects_nonpositive_iters(capsys, iters):
    with pytest.raises(SystemExit) as exit_info:
        main(["check", "axioms", "--iters", iters])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == ""
    assert "--iters" in captured.err
