"""Synchronous regular expressions: parsing, bounded semantics, partial
derivatives, equivalence, normal forms, and the one-letter model.

``import synka`` loads no submodule. Each public name lives in the module
that ``_HOMES`` lists it under, and the first lookup of the name on the
package (``synka.equiv``, or ``from synka import equiv``) imports that
module and keeps the name here, so a program pays only for the modules it
uses. A submodule named in ``_HOMES`` is itself imported on first lookup.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "countermodel": (
        "DAGGER", "Dagger", "ModelElement", "UnaryLang", "eval_cm",
    ),
    "derivatives": (
        "explore", "member", "nullable", "step", "to_dot", "transitions", "unfold",
        "unfold_as_term",
    ),
    "equivalence": ("DEFAULT_PAIR_CAP", "EquivResult", "StateLimitError", "equiv"),
    "language": (
        "BoundMismatchError", "BoundedLang", "SyncWord", "format_word", "lang_concat", "lang_h",
        "lang_star", "lang_sync", "lang_union", "parse_word", "sem_bounded", "word_sync",
    ),
    "normalform": (
        "LinearSystem", "NotGuardedError", "build_system", "format_system", "solve",
        "to_normal_form",
    ),
    "semilattice": ("SymSet", "canonical_atom", "nonempty_subsets", "parse_symset", "sl_value"),
    "syntax": (
        "Fragments", "TermSyntaxError", "UnknownLetterError", "classify", "parse_term",
        "parse_term_file", "print_term",
    ),
    "terms": (
        "Atom", "H", "HTermError", "One", "Ops", "Plus", "Seq", "Star", "Sync", "Term", "Zero",
        "evaluate", "letters", "size",
    ),
}

# Each public name's home module.
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOMES:
        return import_module("." + name, __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
