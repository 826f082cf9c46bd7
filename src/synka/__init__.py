"""Synchronous regular expressions: parsing, bounded semantics, partial
derivatives, equivalence, normal forms, and the one-letter model."""

from .countermodel import (
    DAGGER,
    Dagger,
    HTermError,
    ModelElement,
    UnaryLang,
    ValuationError,
    cm_dot,
    cm_plus,
    cm_star,
    cm_sync,
    eval_cm,
    model_leq,
)
from .derivatives import (
    Automaton,
    accepts,
    build_automaton,
    derive,
    nullable,
    reachable_terms,
    step,
    to_dot,
    transitions,
    unfold,
    unfold_as_term,
)
from .equivalence import (
    DEFAULT_PAIR_CAP,
    EquivResult,
    StateLimitError,
    equiv,
    member,
)
from .language import (
    BoundedLang,
    BoundMismatchError,
    SyncWord,
    format_word,
    lang_concat,
    lang_h,
    lang_star,
    lang_sync,
    lang_union,
    parse_word,
    pi_lang,
    pi_word,
    sem_bounded,
    word_sync,
)
from .normalform import (
    LinearSystem,
    NotGuardedError,
    build_system,
    format_system,
    solve,
    to_normal_form,
)
from .semilattice import (
    SymSet,
    canonical_atom,
    is_sl_term,
    nonempty_subsets,
    normalize_sl,
    parse_symset,
    sl_equal,
    sl_value,
)
from .syntax import (
    Fragments,
    TermSyntaxError,
    UnknownLetterError,
    classify,
    parse_term,
    parse_term_file,
    print_term,
)
from .terms import Atom, H, One, Plus, Seq, Star, Sync, Term, Zero, h_free, letters, size

__version__ = "0.1.0"

__all__ = [
    "Atom", "Automaton", "BoundMismatchError", "BoundedLang", "DAGGER",
    "DEFAULT_PAIR_CAP", "Dagger", "EquivResult", "Fragments", "H",
    "HTermError", "LinearSystem", "ModelElement", "NotGuardedError", "One",
    "Plus", "Seq", "Star", "StateLimitError", "SymSet", "Sync", "SyncWord",
    "Term", "TermSyntaxError", "UnaryLang", "UnknownLetterError",
    "ValuationError", "Zero", "accepts", "build_automaton", "build_system",
    "canonical_atom", "classify", "cm_dot", "cm_plus", "cm_star", "cm_sync",
    "derive", "equiv", "eval_cm", "format_system", "format_word", "h_free",
    "is_sl_term", "lang_concat", "lang_h", "lang_star", "lang_sync",
    "lang_union", "letters", "member", "model_leq", "nonempty_subsets",
    "normalize_sl", "nullable", "parse_symset", "parse_term",
    "parse_term_file", "parse_word", "pi_lang", "pi_word", "print_term",
    "reachable_terms", "sem_bounded", "size", "sl_equal", "sl_value",
    "solve", "step", "to_dot", "to_normal_form", "transitions", "unfold",
    "unfold_as_term", "word_sync",
]
