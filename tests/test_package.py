import importlib

import pytest

import synka
from synka import checks, cli


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
