"""Command line front end.

Exit codes: 0 for success (or "equivalent" / "is a member"), 1 for a
negative verdict or a failed property suite, 2 for usage, syntax or
resource errors.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from .checks import SUITES
from .countermodel import eval_cm
from .derivatives import build_automaton, to_dot
from .equivalence import DEFAULT_PAIR_CAP, StateLimitError, equiv
from .equivalence import member as word_member
from .language import format_word, parse_word
from .normalform import build_system, format_system, to_normal_form
from .syntax import parse_term, parse_term_file, print_term


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alphabet", metavar="LETTERS",
                        help="declare the alphabet; other letters are rejected")
    common.add_argument("--bound", type=int, default=4, metavar="N",
                        help="word length bound for bounded-semantics checks")
    common.add_argument("--seed", type=int, default=0, metavar="N",
                        help="random seed for check suites")
    common.add_argument("--iters", type=int, default=None, metavar="N",
                        help="instances per property in check suites, at least 1 "
                             "(default: per suite)")
    common.add_argument("--cap", type=int, default=DEFAULT_PAIR_CAP, metavar="N",
                        help="state-pair cap for the equivalence check")
    common.add_argument("--json", action="store_true", help="emit a JSON report")

    parser = argparse.ArgumentParser(
        prog="synka",
        description="Work with synchronous regular expressions: parse them, "
                    "decide equivalence, extract normal forms, export automata, "
                    "and evaluate terms in the one-letter model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common], help="parse and reprint a term")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("term", nargs="?", help="term text")
    group.add_argument("--file", help="file with one term per line")

    p = sub.add_parser("member", parents=[common], help="decide word membership")
    p.add_argument("word", help="word literal, e.g. {a,b}{c} or eps")
    p.add_argument("term")

    p = sub.add_parser("equiv", parents=[common], help="decide language equivalence")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("nf", parents=[common], help="print an equivalent normal form")
    p.add_argument("term")
    p.add_argument("--system", action="store_true", help="also dump the linear system")

    p = sub.add_parser("automaton", parents=[common], help="build the term's automaton")
    p.add_argument("term")
    p.add_argument("--dot", metavar="PATH", help="write a Graphviz DOT file")

    p = sub.add_parser("eval-cm", parents=[common],
                       help="evaluate an H-free term in the one-letter model")
    p.add_argument("term")

    p = sub.add_parser("check", parents=[common], help="run a property suite")
    p.add_argument("suite", choices=list(SUITES))
    return parser


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
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
    word = parse_word(args.word)
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
    left = parse_term(args.left, args.alphabet)
    right = parse_term(args.right, args.alphabet)
    result = equiv(left, right, pair_cap=args.cap)
    if result.equivalent:
        _emit(args, {"command": "equiv", "equivalent": True, "witness": None},
              ["equivalent"])
        return 0
    witness = format_word(result.witness)
    _emit(args, {"command": "equiv", "equivalent": False, "witness": witness},
          ["not equivalent, witness %s" % witness])
    return 1


def _cmd_nf(args) -> int:
    term = parse_term(args.term, args.alphabet)
    normal = to_normal_form(term)
    payload = {"command": "nf", "term": print_term(term), "normal_form": print_term(normal)}
    lines = []
    if args.system:
        table = format_system(build_system(term))
        payload["system"] = table.splitlines()
        lines.extend(table.splitlines())
    lines.append(print_term(normal))
    _emit(args, payload, lines)
    return 0


def _cmd_automaton(args) -> int:
    term = parse_term(args.term, args.alphabet)
    automaton = build_automaton(term)
    transition_count = sum(len(ts) for ts in automaton.transitions.values())
    payload = {
        "command": "automaton",
        "term": print_term(term),
        "states": len(automaton.states),
        "accepting": len(automaton.accepting),
        "transitions": transition_count,
        "dot": args.dot,
    }
    lines = [
        "states: %d" % len(automaton.states),
        "accepting: %d" % len(automaton.accepting),
        "transitions: %d" % transition_count,
    ]
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(to_dot(automaton))
        lines.append("wrote %s" % args.dot)
    _emit(args, payload, lines)
    return 0


def _cmd_eval_cm(args) -> int:
    term = parse_term(args.term, args.alphabet)
    value = eval_cm(term)
    _emit(args, {"command": "eval-cm", "term": print_term(term), "value": str(value)},
          [str(value)])
    return 0


def _cmd_check(args) -> int:
    suite = SUITES[args.suite]
    options = {"iters": args.iters, "alphabet": args.alphabet, "bound": args.bound}
    accepted = inspect.signature(suite).parameters
    results = suite(args.seed, **{name: value for name, value in options.items()
                                  if value is not None and name in accepted})
    lines = [r.line() for r in results]
    failed = [r for r in results if not r.passed]
    lines.append("suite %s: %d checks, %d failed" % (args.suite, len(results), len(failed)))
    payload = {
        "command": "check",
        "suite": args.suite,
        "seed": args.seed,
        "results": [
            {"name": r.name, "runs": r.runs, "failures": r.failures,
             "note": r.note, "passed": r.passed}
            for r in results
        ],
        "passed": not failed,
    }
    _emit(args, payload, lines)
    return 0 if not failed else 1


_COMMANDS = {
    "parse": _cmd_parse,
    "member": _cmd_member,
    "equiv": _cmd_equiv,
    "nf": _cmd_nf,
    "automaton": _cmd_automaton,
    "eval-cm": _cmd_eval_cm,
    "check": _cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.iters is not None and args.iters < 1:
        parser.error("argument --iters: must be at least 1, got %d" % args.iters)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, StateLimitError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
