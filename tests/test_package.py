import importlib
import re
import shlex
from pathlib import Path

import pytest

import synka
from synka import checks, cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_every_public_name_resolves_to_its_home_module():
    for name in synka.__all__:
        home = importlib.import_module("synka." + synka._HOME[name])
        assert getattr(synka, name) is getattr(home, name), name


def test_dir_lists_the_public_names():
    listed = dir(synka)
    assert "__all__" in listed
    assert set(synka.__all__) <= set(listed)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from synka import *", namespace)
    assert set(synka.__all__) <= set(namespace)
    assert namespace["equiv"] is synka.equivalence.equiv


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        synka.no_such_name
    assert not hasattr(synka, "no_such_name")


def test_check_choices_are_the_suites():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    suite = next(a for a in sub.choices["check"]._actions if a.dest == "suite")
    assert list(suite.choices) == list(checks.SUITES)


def test_records_keep_their_fields_defaults_and_repr():
    result = synka.EquivResult(True)
    assert repr(result) == "EquivResult(equivalent=True, witness=None)"
    assert bool(result) and not synka.EquivResult(False, ())
    assert synka.classify(synka.parse_term("a")) == synka.Fragments(sl=True, ska=True, nsf=True)
    assert synka.Ops(plus=1, dot=2, sync=3, star=4, zero=5, one=6).h is None
    system = synka.LinearSystem(states=(), matrix={}, vector={})
    assert repr(system) == "LinearSystem(states=(), matrix={}, vector={})"
    with pytest.raises(AttributeError):
        result.equivalent = False


def test_readme_python_blocks_run():
    # So that the library example cannot drift from the code.
    exec("\n".join(re.findall(r"```python\n(.*?)```", README, re.S)), {})


def test_readme_command_lines_run(tmp_path, monkeypatch):
    # Every ``synka`` line of the command-line block, as written, with the
    # terms.txt it names. Exit 1 is a negative verdict; more is a failure.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "terms.txt").write_text("a & b\n(a+b)* ; H(a)\n", encoding="utf-8")
    block = README.split("## Command line\n")[1].split("```sh\n")[1].split("```")[0]
    lines = [line for line in block.splitlines() if line.startswith("synka ")]
    assert lines
    for line in lines:
        assert cli.main(shlex.split(line, comments=True)[1:]) <= 1, line
