"""One timed pass over a request corpus, in a fresh interpreter.

Run as ``python3 bench/worker.py --trace 0|1 < corpus.json`` (the JSON
that ``corpus.py`` prints), or ``python3 bench/worker.py --probe`` for the
deep-input probe. Prints one JSON object on stdout.

The pass runs the requests one after another (a closed loop with one
client) at the interpreter's default recursion limit, as the command line
does. Each request goes from parsing its text to printing its result:

* equiv: ``parse_term`` both sides, ``unfold`` both, ``equiv``, then
  ``format_word`` of the witness when there is one;
* nf: ``parse_term``, ``unfold``, ``build_system``, ``solve``,
  ``print_term`` of the normal form, then ``eval_cm`` of the term and of
  its normal form.

Between requests, at most every 50 ms, the pass times one run of a fixed
reference loop that does not call the program (``reference.py``). The
benchmark divides each request's time by the reference's time around it,
so that a host that slows down for a while slows both and the ratio holds
(see ``run.py``). Peak RSS is read when the loop ends. Only then are the
outputs checked against the expected answers, with the bounded semantics
as the oracle.
With ``--trace 1`` every call into the program is recorded as a span
whose parent is its request's span; spans stay in memory until the end.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import string
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import synka  # noqa: E402
from synka.countermodel import DAGGER, eval_cm  # noqa: E402
from synka.derivatives import unfold  # noqa: E402
from synka.equivalence import equiv  # noqa: E402
from synka.language import format_word, parse_word, sem_bounded  # noqa: E402
from synka.normalform import build_system, solve  # noqa: E402
from synka.syntax import classify, parse_term, print_term  # noqa: E402

from corpus import lang_digest  # noqa: E402
from reference import time_reference  # noqa: E402

LETTERS = frozenset(string.ascii_lowercase)
# Characters that stand for one constructor node in a printed term
# (parentheses and blanks are not nodes).
NODE_CHARS = LETTERS | frozenset("01+;&*H")


def nodes(printed: str) -> int:
    return sum(ch in NODE_CHARS for ch in printed)


# Shortest gap between two runs of the reference loop.
REFERENCE_EVERY_NS = 50_000_000


def untraced(name, fn, *args):
    return fn(*args)


class Tracer:
    """Records ``(request, name, start_ns, end_ns)`` for every call."""

    def __init__(self):
        self.spans: list[tuple[int, str, int, int]] = []
        self.request = -1

    def call(self, name, fn, *args):
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append((self.request, name, start, time.perf_counter_ns()))


def run_equiv(req: dict, call) -> dict:
    left = call("syntax.parse", parse_term, req["left"])
    right = call("syntax.parse", parse_term, req["right"])
    summands = len(call("derivatives.unfold", unfold, left)[1])
    summands += len(call("derivatives.unfold", unfold, right)[1])
    result = call("equivalence.equiv", equiv, left, right)
    witness = None if result.equivalent else call("syntax.print", format_word, result.witness)
    return {"equivalent": result.equivalent, "witness": witness, "summands": summands,
            "output": witness or ""}


def run_nf(req: dict, call) -> dict:
    term = call("syntax.parse", parse_term, req["term"])
    summands = len(call("derivatives.unfold", unfold, term)[1])
    system = call("normalform.build_system", build_system, term)
    normal = call("normalform.solve", solve, system)[term]
    printed = call("syntax.print", print_term, normal)
    value = call("countermodel.eval", eval_cm, term)
    nf_value = call("countermodel.eval", eval_cm, normal)
    return {"value": value, "nf_value": nf_value, "summands": summands, "system": system,
            "output": printed}


HANDLERS = {"equiv": run_equiv, "nf": run_nf}


def check(req: dict, out: dict) -> str | None:
    """Why the output is wrong, or None when it is right."""
    if req["kind"] == "equiv":
        if out["equivalent"] != req["equivalent"]:
            return "verdict %s, expected %s" % (out["equivalent"], req["equivalent"])
        if out["equivalent"]:
            return None
        word = parse_word(out["witness"])
        if len(word) != req["witness_len"]:
            return "witness length %d, shortest is %d" % (len(word), req["witness_len"])
        sides = [word in sem_bounded(parse_term(req[side]), len(word)) for side in ("left", "right")]
        return None if sides[0] != sides[1] else "witness %s in both or neither" % out["witness"]
    normal = parse_term(out["output"])
    if not classify(normal).nsf:
        return "normal form outside the normal-form grammar"
    if lang_digest(sem_bounded(normal, req["bound"]).words) != req["lang"]:
        return "normal form differs from the term within length %d" % req["bound"]
    for value in (out["value"], out["nf_value"]):
        if value is not DAGGER and [n for n in range(req["bound"] + 1) if n in value] != req["lengths"]:
            return "model value %s disagrees with word lengths %s" % (value, req["lengths"])
    return None


def counts(requests: list[dict], outputs: list[dict]) -> dict:
    """Per-layer operation counts of a traced pass."""
    total = dict.fromkeys((
        "syntax.input_nodes", "derivatives.symbols", "derivatives.summands",
        "equivalence.equivalent", "equivalence.inequivalent", "equivalence.witness_symbols",
        "normalform.system_states", "normalform.system_nodes", "normalform.nf_nodes",
        "countermodel.dagger", "countermodel.gap"), 0)
    for req, out in zip(requests, outputs):
        if out is None:
            continue
        texts = [req["left"], req["right"]] if req["kind"] == "equiv" else [req["term"]]
        total["syntax.input_nodes"] += sum(nodes(t) for t in texts)
        total["derivatives.symbols"] += sum(2 ** len(LETTERS.intersection(t)) - 1 for t in texts)
        total["derivatives.summands"] += out["summands"]
        if req["kind"] == "equiv":
            total["equivalence.equivalent" if out["equivalent"] else "equivalence.inequivalent"] += 1
            total["equivalence.witness_symbols"] += out["witness"].count("{") if out["witness"] else 0
            continue
        system = out["system"]
        total["normalform.system_states"] += len(system.states)
        entries = map(str, [*system.matrix.values(), *system.vector.values()])
        total["normalform.system_nodes"] += sum(nodes(e) for e in entries if e != "0")
        total["normalform.nf_nodes"] += nodes(out["output"])
        total["countermodel.dagger"] += out["value"] is DAGGER
        total["countermodel.gap"] += out["value"] != out["nf_value"]
    return total


def run_pass(requests: list[dict], traced: bool) -> dict:
    tracer = Tracer() if traced else None
    call = tracer.call if traced else untraced
    outputs: list[dict | None] = []
    times: list[tuple[int, int]] = []
    references: list[tuple[int, int]] = []
    errors: list[str] = []

    gc.collect()
    for _ in range(3):
        references.append(time_reference())
    for index, req in enumerate(requests):
        handler = HANDLERS[req["kind"]]
        start = time.perf_counter_ns()
        if traced:
            tracer.request = index
        try:
            out = handler(req, call)
            if not traced:
                # Only the traced counts need the system; holding it would
                # add to peak_rss_mb.
                out.pop("system", None)
        except Exception as exc:  # a failed request is counted, the loop goes on
            out = None
            errors.append("%s: %s: %s" % (req["family"], type(exc).__name__, str(exc)[:200]))
        end = time.perf_counter_ns()
        if traced:
            tracer.spans.append((index, "request", start, end))
        outputs.append(out)
        times.append((start, end))
        if end - references[-1][1] >= REFERENCE_EVERY_NS:
            references.append(time_reference())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = len(errors)
    for req, out in zip(requests, outputs):
        if out is None:
            continue
        try:
            problem = check(req, out)
        except Exception as exc:  # an output the oracle cannot read is wrong
            problem = "check raised %s: %s" % (type(exc).__name__, str(exc)[:200])
        if problem:
            failed += 1
            errors.append("%s: %s" % (req["family"], problem))

    result = {
        "requests": len(requests),
        "failed": failed,
        "errors": errors[:10],
        "requests_ns": times,
        "reference_ns": references,
        "peak_rss_mb": peak_rss_mb,
        "output_chars": sum(len(out["output"]) for out in outputs if out),
    }
    if traced:
        result["spans"] = tracer.spans
        result["counts"] = counts(requests, outputs)
    return result


def probe_inputs() -> list[dict]:
    """Deep inputs that overflowed the default recursion limit when this
    benchmark was written: ``;``-chains of 340-600 letters against the same
    chain followed by ``1``, and a letter in 200-400 nested parentheses
    against the bare letter. All pairs are equivalent."""
    out = []
    for length in (340, 400, 500, 600):
        word = " ; ".join("ab"[i % 2] for i in range(length))
        out.append({"kind": "equiv", "family": "chain%d" % length, "left": word,
                    "right": word + " ; 1", "equivalent": True, "witness_len": None})
    for depth in (200, 250, 300, 400):
        out.append({"kind": "equiv", "family": "parens%d" % depth,
                    "left": "(" * depth + "a" + ")" * depth, "right": "a",
                    "equivalent": True, "witness_len": None})
    return out


def probe() -> dict:
    failures = []
    for req in probe_inputs():
        try:
            problem = check(req, run_equiv(req, untraced))
        except Exception as exc:  # such as RecursionError
            problem = type(exc).__name__
        if problem:
            failures.append("%s: %s" % (req["family"], problem))
    return {"deep_failures": len(failures), "errors": failures}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="run the deep-input probe")
    args = parser.parse_args()
    if Path(synka.__file__).resolve().parent != SRC / "synka":
        print("error: imported synka from %s, not %s" % (synka.__file__, SRC), file=sys.stderr)
        return 2
    if args.probe:
        result = probe()
    else:
        result = run_pass(json.load(sys.stdin)["requests"], bool(args.trace))
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
