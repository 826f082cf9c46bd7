"""Command line front end.

Exit codes: 0 for success (or "equivalent" / "is a member"), 1 for a
negative verdict or a failed property suite, 2 for usage, syntax or
resource errors, and 141 when the reader of the output closed it. A term
nested too deeply for Python's recursion limit, an equivalence check past
its state-pair cap, or a call that runs out of memory, is a resource error.

Each command is one entry of ``_COMMANDS``, its help line and its handler;
``_add_arguments`` declares its arguments, and one parser holds them all.

Most calls finish in well under a millisecond, so start-up is most of
their time, and each command loads only the modules it runs. At start
only ``syntax`` (with ``terms``) is loaded, as every command parses a
term; each handler imports the rest of what it calls when it runs.
``checks`` and ``inspect`` load only for ``check``, and ``json`` only
for ``--json``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .syntax import parse_term, parse_term_file, print_term
from .terms import sorted_letters

# The names of ``checks.SUITES``, listed here so that building the parser
# does not load the suites.
_SUITE_NAMES = ("axioms", "derivatives", "fundamental", "normalform", "countermodel")


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _add_arguments(command: str, p: argparse.ArgumentParser) -> None:
    """Add the arguments that ``command`` reads, besides the common ones."""
    if command == "parse":
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("term", nargs="?", help="term text")
        group.add_argument("--file", help="file with one term per line")
    elif command == "member":
        p.add_argument("word", help="word literal, e.g. {a,b}{c} or eps")
        p.add_argument("term")
    elif command == "equiv":
        p.add_argument("left")
        p.add_argument("right")
        p.add_argument("--cap", type=_at_least_one, default=None, metavar="N",
                       help="state-pair cap for the equivalence check, at least 1")
    elif command == "nf":
        p.add_argument("term")
        p.add_argument("--system", action="store_true", help="also dump the linear system")
    elif command == "automaton":
        p.add_argument("term")
        p.add_argument("--dot", metavar="PATH", help="write a Graphviz DOT file")
    elif command == "eval-cm":
        p.add_argument("term")
    else:  # check
        p.add_argument("suite", choices=_SUITE_NAMES)
        p.add_argument("--bound", type=int, default=None, metavar="N",
                       help="word length bound for the bounded-semantics suites "
                            "(default: per suite)")
        p.add_argument("--seed", type=int, default=0, metavar="N", help="random seed")
        p.add_argument("--iters", type=_at_least_one, default=None, metavar="N",
                       help="instances per property, at least 1 (default: per suite)")


def _build_parser() -> argparse.ArgumentParser:
    """The command line parser: a subparser for each command of
    ``_COMMANDS``, listed with its help line, with the arguments that
    ``_add_arguments`` declares."""
    # The flags every command reads; each command adds its own.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alphabet", metavar="LETTERS",
                        help="declare the alphabet; other letters are rejected")
    common.add_argument("--json", action="store_true", help="emit a JSON report")

    parser = argparse.ArgumentParser(
        prog="synka",
        description="Work with synchronous regular expressions: parse them, "
                    "decide equivalence, extract normal forms, export automata, "
                    "and evaluate terms in the one-letter model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _) in _COMMANDS.items():
        _add_arguments(name, sub.add_parser(name, parents=[common], help=help_line))
    return parser


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        import json

        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _cmd_parse(args) -> int:
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as handle:
            terms = parse_term_file(handle.read(), args.alphabet)
        rendered = [print_term(t) for t in terms]
        _emit(args, {"command": "parse", "terms": rendered}, rendered)
        return 0
    term = parse_term(args.term, args.alphabet)
    rendered = print_term(term)
    _emit(args, {"command": "parse", "term": rendered}, [rendered])
    return 0


def _cmd_member(args) -> int:
    from .derivatives import member as word_member
    from .language import format_word, parse_word

    word = parse_word(args.word)
    if args.alphabet is not None:
        unknown = sorted(set().union(*word).difference(args.alphabet))
        if unknown:
            raise ValueError("unknown letter %r in the word (not in declared alphabet)"
                             % unknown[0])
    term = parse_term(args.term, args.alphabet)
    verdict = word_member(word, term)
    _emit(
        args,
        {"command": "member", "word": format_word(word), "term": print_term(term),
         "member": verdict},
        ["member" if verdict else "not a member"],
    )
    return 0 if verdict else 1


def _cmd_equiv(args) -> int:
    from .equivalence import DEFAULT_PAIR_CAP, equiv
    from .language import format_word

    left = parse_term(args.left, args.alphabet)
    right = parse_term(args.right, args.alphabet)
    result = equiv(left, right, pair_cap=DEFAULT_PAIR_CAP if args.cap is None else args.cap)
    if result.equivalent:
        _emit(args, {"command": "equiv", "equivalent": True, "witness": None},
              ["equivalent"])
        return 0
    witness = format_word(result.witness)
    _emit(args, {"command": "equiv", "equivalent": False, "witness": witness},
          ["not equivalent, witness %s" % witness])
    return 1


def _cmd_nf(args) -> int:
    from .normalform import build_system, format_system, solve

    term = parse_term(args.term, args.alphabet)
    system = build_system(term)
    normal = solve(system)[term]
    payload = {"command": "nf", "term": print_term(term), "normal_form": print_term(normal),
               "states": len(system.states)}
    lines = []
    if args.system:
        table = format_system(system)
        payload["system"] = table.splitlines()
        lines.extend(table.splitlines())
    lines.append(print_term(normal))
    _emit(args, payload, lines)
    return 0


def _cmd_automaton(args) -> int:
    from .derivatives import explore, nullable, to_dot

    term = parse_term(args.term, args.alphabet)
    automaton = explore(term)
    accepting = sum(map(nullable, automaton.states))
    transition_count = sum(len(targets) for row in automaton.rows for _, targets in row)
    payload = {
        "command": "automaton",
        "term": print_term(term),
        "states": len(automaton.states),
        "accepting": accepting,
        "transitions": transition_count,
        "dot": args.dot,
    }
    lines = [
        "states: %d" % len(automaton.states),
        "accepting: %d" % accepting,
        "transitions: %d" % transition_count,
    ]
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(to_dot(automaton))
        lines.append("wrote %s" % args.dot)
    _emit(args, payload, lines)
    return 0


def _cmd_eval_cm(args) -> int:
    from .countermodel import eval_cm

    term = parse_term(args.term, args.alphabet)
    value = eval_cm(term)
    _emit(args, {"command": "eval-cm", "term": print_term(term), "value": str(value)},
          [str(value)])
    return 0


def _suite_options(args) -> dict:
    """The suite flags given on the command line, by parameter name."""
    options = {"iters": args.iters, "alphabet": args.alphabet, "bound": args.bound}
    return {name: value for name, value in options.items() if value is not None}


def _cmd_check(args) -> int:
    from .checks import SUITES

    results = SUITES[args.suite](args.seed, **_suite_options(args))
    lines = []
    for r in results:
        lines.append(r.line())
        lines.extend("    %s" % detail for detail in r.details)
    failed = [r for r in results if not r.passed]
    lines.append("suite %s: %d checks, %d failed" % (args.suite, len(results), len(failed)))
    payload = {
        "command": "check",
        "suite": args.suite,
        "seed": args.seed,
        "results": [
            {"name": r.name, "runs": r.runs, "failures": r.failures,
             "note": r.note, "passed": r.passed, "details": r.details}
            for r in results
        ],
        "passed": not failed,
    }
    _emit(args, payload, lines)
    return 0 if not failed else 1


# Each command's help line and handler, in the order the help lists them.
# The help lines are kept here, not in the handlers' docstrings, which
# ``python -OO`` strips.
_COMMANDS = {
    "parse": ("parse and reprint a term", _cmd_parse),
    "member": ("decide word membership", _cmd_member),
    "equiv": ("decide language equivalence", _cmd_equiv),
    "nf": ("print an equivalent normal form", _cmd_nf),
    "automaton": ("build the term's automaton", _cmd_automaton),
    "eval-cm": ("evaluate an H-free term in the one-letter model", _cmd_eval_cm),
    "check": ("run a property suite", _cmd_check),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "check":
        import inspect

        from .checks import SUITES

        accepted = inspect.signature(SUITES[args.suite]).parameters
        unread = ["--" + name for name in _suite_options(args) if name not in accepted]
        if unread:
            parser.error("unrecognized arguments: %s (the %s suite does not read them)"
                         % (" ".join(unread), args.suite))
    try:
        if args.alphabet is not None:
            sorted_letters(args.alphabet)
        code = _COMMANDS[args.command][1](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (as ``head`` does): stop quietly, with the
        # status a shell reports for SIGPIPE, and send the output still
        # buffered to the null device so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        # A refused input, an unreadable file, or a search past its limit
        # (``StateLimitError`` is also a ``ValueError``).
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RecursionError:
        print("error: term nested too deeply (Python recursion limit %d)"
              % sys.getrecursionlimit(), file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
