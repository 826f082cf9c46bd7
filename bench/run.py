"""Run one workload of the synka benchmark and print its metrics.

    python3 bench/run.py --workload equiv-deep --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src``. The steps are:

1. set-up time (``--trace 0`` only): fresh interpreters that import synka
   and run ``synka parse 1`` through ``synka.cli.main``, each scaled by
   reference samples taken just before it;
2. the seeded corpus and its expected answers, made by ``corpus.py`` in a
   process of its own;
3. timed passes over the whole corpus, each in a fresh ``worker.py``
   process, until ``--seconds`` are used up. With ``--trace 1`` untraced
   and traced passes alternate, and the deep-input probe runs once. With
   ``--trace 0`` two more set-up starts run before each pass.

Every pass checks every output. Every pass runs the same requests in the
same order, so each request is timed once per pass.

Times are reported in reference milliseconds. Between requests each pass
times a fixed reference loop that does not call the program
(``reference.py``), every 50 ms. Every time the pass measured is scaled
by ``REFERENCE_MS`` over the median time of the loop in the seconds
around it (``Scaler``). On a shared host the speed of a core drifts by a
third or more over seconds and minutes, as other tenants come and go;
such a drift slows the loop and the program alike, and the scaling takes
it out. A request's latency is then the median of its scaled times over
the passes. The readable lines give the loop's measured time next to the
metrics.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, holding the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
The lines before it repeat the metrics for a reader. A traced run also
writes its spans to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import time_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("equiv-deep", "equiv-wide", "nf-cm")
# Set-up starts before each pass, and fewest in a run.
SETUP_PER_PASS = 2
SETUP_RUNS = 15
# Reference samples taken in this process before each set-up start.
SETUP_REFERENCES = 3
# Nominal time of reference.reference(): times are scaled to a host on which
# it takes this long, about its time on the 2-vCPU VM of the baseline.
REFERENCE_MS = 3.0
# A time is scaled by the reference samples taken within this distance of
# it, and by at least this many samples.
NEAR_NS = 1_000_000_000
NEAR_SAMPLES = 5
# Every run must end well inside three minutes.
DEADLINE_S = 170

LAYER_TIMES = (
    ("syntax.parse_ms", "syntax.parse"), ("syntax.print_ms", "syntax.print"),
    ("derivatives.unfold_ms", "derivatives.unfold"), ("equivalence.equiv_ms", "equivalence.equiv"),
    ("normalform.build_system_ms", "normalform.build_system"),
    ("normalform.solve_ms", "normalform.solve"), ("countermodel.eval_ms", "countermodel.eval"),
)


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts the benchmark's child processes against one checkout."""

    def __init__(self, seconds: int):
        self.started = time.monotonic()
        self.seconds = seconds
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def python(self, args: list[str], stdin: bytes | None = None) -> bytes:
        """Run ``python3 args`` to completion and return its stdout."""
        try:
            done = subprocess.run(
                [sys.executable, *args], input=stdin, stdout=subprocess.PIPE,
                env=self.env, cwd=ROOT, timeout=max(self.remaining(), 1), check=False)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("%s did not finish before the deadline" % args[0]) from exc
        if done.returncode != 0:
            raise BenchError("%s exited with code %d" % (args[0], done.returncode))
        return done.stdout

    def setup_start(self) -> float:
        """Wall time of a fresh interpreter running ``synka parse 1``, in
        reference seconds."""
        code = "import synka, synka.cli; synka.cli.main(['parse', '1'])"
        samples = [end - start for start, end in
                   (time_reference() for _ in range(SETUP_REFERENCES))]
        start = time.perf_counter()
        if self.python(["-c", code]).strip() != b"1":
            raise BenchError("synka parse 1 printed the wrong term")
        return (time.perf_counter() - start) * REFERENCE_MS * 1e6 / statistics.median(samples)

    def corpus(self, workload: str, seed: int) -> bytes:
        return self.python([str(BENCH / "corpus.py"), "--workload", workload, "--seed", str(seed)])

    def worker(self, corpus: bytes, traced: bool) -> dict:
        return json.loads(self.python([str(BENCH / "worker.py"), "--trace", str(int(traced))], corpus))

    def passes(self, corpus: bytes, modes: tuple[bool, ...],
               setup: list[float] | None = None) -> list[dict[bool, dict]]:
        """Run rounds of passes, one pass per entry of ``modes`` (traced or
        not), while another round fits in ``--seconds``; at least one
        round. Every other round runs the modes in reverse order, so that
        neither mode always goes first. With ``setup``, each round starts
        with ``SETUP_PER_PASS`` set-up starts, whose times are appended to
        it; the set-up samples then come from the whole run, as the passes
        do."""
        rounds: list[dict[bool, dict]] = []
        start = time.monotonic()
        while True:
            if setup is not None:
                setup.extend(self.setup_start() for _ in range(SETUP_PER_PASS))
            order = modes[::-1] if len(rounds) % 2 else modes
            rounds.append({traced: self.worker(corpus, traced) for traced in order})
            used = time.monotonic() - start
            if used + used / len(rounds) > self.seconds:
                return rounds


def scale(results: list[dict]) -> float:
    """Factor from measured to reference time, over the whole of
    ``results``."""
    return REFERENCE_MS * 1e6 / statistics.median(
        end - start for r in results for start, end in r["reference_ns"])


class Scaler:
    """Factor from measured to reference time for an interval of one pass,
    from the reference samples near it."""

    def __init__(self, result: dict):
        samples = sorted(((start + end) / 2, end - start) for start, end in result["reference_ns"])
        self.middles = [middle for middle, _ in samples]
        self.times = [duration for _, duration in samples]

    def __call__(self, start: int, end: int) -> float:
        low = bisect.bisect_left(self.middles, start - NEAR_NS)
        high = bisect.bisect_right(self.middles, end + NEAR_NS)
        if high - low < NEAR_SAMPLES:
            centre = bisect.bisect_left(self.middles, (start + end) / 2)
            low = max(0, min(centre - NEAR_SAMPLES // 2, len(self.times) - NEAR_SAMPLES))
            high = low + NEAR_SAMPLES
        return REFERENCE_MS * 1e6 / statistics.median(self.times[low:high])


def median_scaled(results: list[dict], intervals) -> list[float]:
    """The ``(start, end)`` pairs of ``intervals(result)`` as durations in
    reference ns, for every pass; then the element-wise median over the
    passes."""
    scaled = []
    for result in results:
        scaler = Scaler(result)
        scaled.append([(end - start) * scaler(start, end) for start, end in intervals(result)])
    return [statistics.median(column) for column in zip(*scaled)]


def end_to_end_metrics(results: list[dict], setup: list[float]) -> dict:
    """Latencies in reference ns, one per request; the throughput is that
    of a pass in which every request took its latency."""
    latency = median_scaled(results, lambda r: r["requests_ns"])
    return {
        "setup_s": (statistics.median(setup), "s"),
        "requests_per_s": (len(latency) / (sum(latency) / 1e9), "1/s"),
        "request_p50_ms": (statistics.median(latency) / 1e6, "ms"),
        "request_p90_ms": (statistics.quantiles(latency, n=10)[8] / 1e6, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
        # Every pass prints the same characters; checked in run().
        "output_chars": (results[0]["output_chars"], "chars"),
    }


def layer_metrics(traced: list[dict], untraced: list[dict], probe: dict) -> dict:
    """Per-layer metrics from the traced passes: summed span self times (a
    call span has no children, so its self time is its duration; each span
    is scaled and taken as its median over the passes, as latencies are),
    the pass's counts, and the tracing overhead of the request spans
    against the untraced latencies."""
    spans = traced[0]["spans"]
    times = median_scaled(traced, lambda r: [(start, end) for _, _, start, end in r["spans"]])
    metrics = {}
    for metric, layer in LAYER_TIMES:
        metrics[metric] = (sum(t for t, span in zip(times, spans) if span[1] == layer) / 1e6, "ms")
    for name, value in traced[0]["counts"].items():
        metrics[name] = (value, "count")
    metrics["syntax.deep_failures"] = (probe["deep_failures"], "count")
    plain = sum(median_scaled(untraced, lambda r: r["requests_ns"]))
    with_spans = sum(t for t, span in zip(times, spans) if span[1] == "request")
    metrics["harness.trace_overhead_frac"] = ((with_spans - plain) / plain, "ratio")
    return metrics


def write_spans(path: Path, result: dict) -> None:
    """One JSON line per span; a call's parent is its request's span."""
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for index, (request, name, start, end) in enumerate(result["spans"]):
            top = name == "request"
            handle.write(json.dumps({
                "id": "r%d" % request if top else "s%d" % index,
                "parent": None if top else "r%d" % request,
                "request": request, "name": name, "start_ns": start, "end_ns": end}) + "\n")


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[dict], list[str]]:
    runner = Runner(seconds)
    corpus = runner.corpus(workload, seed)
    problems: list[str] = []
    if trace:
        rounds = runner.passes(corpus, (False, True))
        untraced = [r[False] for r in rounds]
        traced = [r[True] for r in rounds]
        results = untraced + traced
        if any(r["counts"] != traced[0]["counts"] for r in traced):
            problems.append("per-layer counts differ between traced passes")
        if any([s[:2] for s in r["spans"]] != [s[:2] for s in traced[0]["spans"]] for r in traced):
            problems.append("traced passes made different calls")
        probe = json.loads(runner.python([str(BENCH / "worker.py"), "--probe"]))
        metrics = layer_metrics(traced, untraced, probe)
        write_spans(BENCH / "out" / ("trace-%s-seed%d.jsonl" % (workload, seed)), traced[0])
    else:
        # One untimed start writes the bytecode cache.
        runner.setup_start()
        setup: list[float] = []
        results = [r[False] for r in runner.passes(corpus, (False,), setup)]
        while len(setup) < SETUP_RUNS:
            setup.append(runner.setup_start())
        metrics = end_to_end_metrics(results, setup)
    if len({r["output_chars"] for r in results}) != 1:
        problems.append("passes printed different outputs")
    return metrics, results, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="time for the timed passes; at least one pass runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "synka" / "__init__.py").is_file():
        print("error: no synka sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    try:
        metrics, results, problems = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    attempted = sum(r["requests"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        problems.extend(r["errors"])
    print("%s seed %d: %d passes of %d requests, %d failed (error_rate %.4g fraction)"
          % (args.workload, args.seed, len(results), results[0]["requests"], failed,
             failed / attempted))
    print("  reference loop: %.4g ms measured (median), %.4g ms nominal"
          % (REFERENCE_MS / scale(results), REFERENCE_MS))
    for problem in problems[:10]:
        print("  problem: %s" % problem)
    for name, (value, unit) in metrics.items():
        print("  %-30s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
