"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` is the timed run: end-to-end metrics with no shims
installed.  ``--trace 1`` is the separate traced run: after a warm-up
pass it alternates untraced passes (shims removed) and traced passes
(shims installed) of the same operations and reports per-layer
self times and counts per traced pass, the unattributed remainder and
the tracing overhead; its spans are written to
``.perfbench/trace-<workload>-seed<seed>.json``.

The program is imported from ``src/`` of the checkout.  Every answer is
checked (see ``workloads.py``); an operation that raises or answers
wrongly is counted as failed and the run goes on.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when anything failed or
disagreed with its reference, 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
REFERENCES = os.path.join(HERE, "references.json")
OUTPUT = os.path.join(ROOT, ".perfbench")

#: cold starts per run for ``setup_s`` (median reported)
SETUP_PROBES = 5
#: a run stops after this many seconds of passes even when a workload
#: has not reached its minimum sample count, so it ends within 180 s
MAX_MEASURE_S = 120.0

#: The host's speed drifts by 20-50% over seconds to minutes with
#: nothing else running (see README.md), so each timed operation is
#: scaled by the speed of a fixed pure-Python loop, which never touches
#: the program, timed just before and just after it: times are reported
#: as if the loop took CALIBRATION_REFERENCE_S.
CALIBRATION_LOOPS = 300_000
CALIBRATION_REFERENCE_S = 0.03
#: operations closer together than this share calibration samples
CALIBRATION_INTERVAL_S = 0.5
#: calibration samples on each side of an operation
CALIBRATION_WINDOW = 2


class Calibration:
    """Samples of the machine's current speed, taken between operations."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.last = float("-inf")

    def sample(self) -> int:
        """Take CALIBRATION_WINDOW samples; returns the mark after them."""
        for _ in range(CALIBRATION_WINDOW):
            began = time.perf_counter()
            total = 0
            for i in range(CALIBRATION_LOOPS):
                total += i * i % 7
            self.last = time.perf_counter()
            self.samples.append(self.last - began)
        return len(self.samples)

    def mark(self) -> int:
        """Sample unless the last samples are recent; returns the mark.

        Samples below the mark were taken before whatever runs next,
        samples from the mark on are taken after it."""
        if time.perf_counter() - self.last >= CALIBRATION_INTERVAL_S:
            self.sample()
        return len(self.samples)

    def factor(self, mark: int) -> float:
        """Scale for a time measured between the samples around ``mark``."""
        window = self.samples[
            max(0, mark - CALIBRATION_WINDOW): mark + CALIBRATION_WINDOW
        ]
        return CALIBRATION_REFERENCE_S / statistics.median(window)


class Record(NamedTuple):
    """One answered operation."""

    kind: str
    seconds: float
    scenarios: int
    pass_number: int
    #: calibration mark taken just before the operation
    mark: int


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit 2."""
    sys.path.insert(0, SOURCE)
    sys.path.insert(0, HERE)
    try:
        import repro
    except ImportError as error:
        sys.stderr.write("perfbench: cannot import the program: %s\n" % error)
        sys.exit(2)
    location = os.path.abspath(repro.__file__)
    if not location.startswith(SOURCE + os.sep):
        sys.stderr.write(
            "perfbench: imported repro from %s, not from %s\n"
            % (location, SOURCE)
        )
        sys.exit(2)


class Run:
    """Counts, timings, digests and reference checks of one run."""

    def __init__(self, workload, references: Dict[str, str]):
        self.workload = workload
        self.references = references
        self.attempted = 0
        self.attempts: Dict[str, int] = defaultdict(int)
        self.failed = 0
        self.errors: List[str] = []
        self.mismatches: List[str] = []
        self.unreferenced: List[str] = []
        self.records: List[Record] = []
        self.passes = 0
        self.pass_digests: List[str] = []
        self.digests: Dict[str, str] = {}

    def run_pass(self, tracer=None, calibration: Optional[Calibration] = None) -> None:
        """Run one pass, recording each answered operation's time."""
        from workloads import sha

        parts: List[bytes] = []
        for op in self.workload.pass_ops():
            self.attempted += 1
            self.attempts[op.kind] += 1
            mark = calibration.mark() if calibration is not None else 0
            try:
                call = op.start()
                if tracer is not None:
                    tracer.active = True
                began = time.perf_counter()
                try:
                    answer = call()
                finally:
                    elapsed = time.perf_counter() - began
                    if tracer is not None:
                        tracer.active = False
                scenarios, material = op.check(answer)
            except Exception as error:  # a failed op must not end the run
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append("%s %s: %s" % (
                        op.kind,
                        op.label,
                        "".join(traceback.format_exception_only(
                            type(error), error
                        )).strip(),
                    ))
                parts.append(b"failed")
                continue
            self.records.append(
                Record(op.kind, elapsed, scenarios, self.passes, mark)
            )
            digest = sha(material)
            parts.append(digest.encode())
            if op.ref is not None:
                self.compare("%s/%s" % (self.workload.family, op.ref), digest)
        self.passes += 1
        pass_digest = sha(b"\n".join(parts))
        if self.pass_digests and pass_digest != self.pass_digests[0]:
            self.mismatches.append(
                "pass %d answers differ from pass 1" % self.passes
            )
        self.pass_digests.append(pass_digest)
        key = self.workload.pass_ref()
        if key is not None:
            self.compare("%s/%s" % (self.workload.family, key), pass_digest)

    def compare(self, key: str, digest: str) -> None:
        self.digests[key] = digest
        expected = self.references.get(key)
        if expected is None:
            if key not in self.unreferenced:
                self.unreferenced.append(key)
        elif expected != digest and key not in self.mismatches:
            self.mismatches.append(key)

    def finished(self, began: float, seconds: float) -> bool:
        """Whole passes are done once the time is spent and the workload
        has its minimum samples (or the run hit its hard limit)."""
        elapsed = time.perf_counter() - began
        return elapsed >= MAX_MEASURE_S or (
            elapsed >= seconds and self.workload.enough(self.attempts)
        )

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.mismatches


def median(values: Iterable[float]) -> Optional[float]:
    values = list(values)
    return statistics.median(values) if values else None


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile: at p99 of 1000 samples, 10 lie beyond."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_seconds(
    workload: str, seed: int, calibration: Calibration
) -> Tuple[List[float], List[float]]:
    """Cold starts: a fresh interpreter imports the program and sets up.

    Returns the scaled and the raw seconds of each cold start."""
    samples = []
    marks = []
    for _ in range(SETUP_PROBES):
        marks.append(calibration.sample())
        began = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=120,
        )
        samples.append(time.perf_counter() - began)
    calibration.sample()
    return [
        seconds * calibration.factor(mark)
        for seconds, mark in zip(samples, marks)
    ], samples


def load_references() -> Dict[str, str]:
    if not os.path.exists(REFERENCES):
        return {}
    with open(REFERENCES, "r", encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def measure(workload, seconds: float, references, calibration) -> Tuple[Run, float]:
    """Timed run: whole passes until the time is spent.

    Also returns the peak RSS as of the first pass boundary at which the
    workload had its minimum samples: the warm ``whatif`` engine grows by
    ~9 MB per pass, so a later reading would depend on machine speed."""
    run = Run(workload, references)
    rss = None
    began = time.perf_counter()
    while not run.finished(began, seconds):
        run.run_pass(calibration=calibration)
        if rss is None and workload.enough(run.attempts):
            rss = peak_rss_mb()
    calibration.sample()
    return run, rss if rss is not None else peak_rss_mb()


def end_to_end(
    run: Run,
    setup: Tuple[List[float], List[float]],
    calibration: Calibration,
    rss_mb: float,
) -> Tuple[Dict, List[str]]:
    """The timed run's metrics from scaled times; ``setup`` holds the
    scaled and the raw cold starts.  Raw values are printed alongside."""
    scaled: Dict[str, List[float]] = defaultdict(list)
    pass_time: Dict[int, float] = defaultdict(float)
    pass_scenarios: Dict[int, int] = defaultdict(int)
    for record in run.records:
        seconds = record.seconds * calibration.factor(record.mark)
        scaled[record.kind].append(seconds)
        pass_time[record.pass_number] += seconds
        pass_scenarios[record.pass_number] += record.scenarios
    every = [value for values in scaled.values() for value in values]
    raw = [record.seconds for record in run.records]
    setup, raw_setup = setup
    setup_s = statistics.median(setup)
    rate = median(
        pass_scenarios[number] / pass_time[number]
        for number in pass_time
        if pass_time[number] > 0
    )
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_ms_p50": {"value": (median(every) or 0.0) * 1e3, "unit": "ms"},
        "scenarios_per_s": {"value": rate or 0.0, "unit": "scenarios/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    lines = [
        "calibration loop median %.2f ms over %d samples; times are scaled "
        "as if it took %.0f ms"
        % (statistics.median(calibration.samples) * 1e3,
           len(calibration.samples), CALIBRATION_REFERENCE_S * 1e3),
        "raw: setup_s %.4f s, op_ms_p50 %.3f ms"
        % (statistics.median(raw_setup), (median(raw) or 0.0) * 1e3),
        "setup_s          %12.4f s      n=%d cold starts"
        % (setup_s, len(setup)),
        "op_ms_p50        %12.3f ms     n=%d operations"
        % (metrics["op_ms_p50"]["value"], len(every)),
        "scenarios_per_s  %12.1f 1/s    n=%d passes, %d scenarios"
        % (metrics["scenarios_per_s"]["value"], len(pass_time),
           sum(pass_scenarios.values())),
        "peak_rss_mb      %12.1f MB"
        % metrics["peak_rss_mb"]["value"],
        "-- named metrics (n/a: not exercised by this workload) --",
    ]

    def ms(values: List[float]) -> Optional[float]:
        value = median(values)
        return None if value is None else value * 1e3

    assessments = scaled.get("assess", [])
    verdicts = scaled.get("verdict", [])
    sweeps = scaled.get("sweep", [])
    named = [
        ("setup_s", "s", setup_s, len(setup)),
        ("assess_s", "s",
         median(pass_time[n] * len(pass_time) / len(assessments)
                for n in pass_time) if assessments else None,
         len(assessments)),
        ("scenarios_per_s", "1/s", rate if sweeps else None, len(sweeps)),
        ("verdict_ms_p50", "ms", ms(verdicts), len(verdicts)),
        ("verdict_ms_p99", "ms",
         percentile(verdicts, 0.99) * 1e3 if len(verdicts) >= 1000 else None,
         len(verdicts)),
        ("resweep_ms_p50", "ms", ms(scaled.get("resweep", [])),
         len(scaled.get("resweep", []))),
        ("explain_ms_p50", "ms", ms(scaled.get("explain", [])),
         len(scaled.get("explain", []))),
        ("peak_rss_mb", "MB", metrics["peak_rss_mb"]["value"], 1),
        ("failed_ratio", "ratio", run.failed / max(1, run.attempted),
         run.attempted),
    ]
    for name, unit, value, samples in named:
        if value is None:
            lines.append("%-16s          n/a" % name)
        else:
            lines.append("%-16s %12.4f %-6s n=%d" % (name, value, unit, samples))
    return metrics, lines


def traced(workload, seconds: float, references, seed: int) -> Tuple[Run, Dict, List[str]]:
    """Untraced and traced passes of the same operations, in pairs.

    A first untraced pass pays the one-time costs and is discarded.
    Untraced passes run with the shims removed, so the overhead ratio
    includes the shims' pass-through cost; each pair swaps which pass
    runs first, and pass times are calibrated as in the timed run, so
    drift over the run favours neither side."""
    import layers

    run = Run(workload, references)
    tracer = layers.Tracer()
    calibration = Calibration()
    #: (untraced pass number, traced pass number)
    pairs: List[Tuple[int, int]] = []

    def untraced_pass() -> int:
        number = run.passes
        run.run_pass(calibration=calibration)
        return number

    def traced_pass() -> int:
        number = run.passes
        restore = layers.install(tracer)
        try:
            run.run_pass(tracer, calibration)
        finally:
            restore()
        return number

    began = time.perf_counter()
    run.run_pass(calibration=calibration)
    while True:
        if len(pairs) % 2 == 0:
            plain = untraced_pass()
            shimmed = traced_pass()
        else:
            shimmed = traced_pass()
            plain = untraced_pass()
        pairs.append((plain, shimmed))
        if run.finished(began, seconds):
            break
    calibration.sample()
    raw: Dict[int, float] = defaultdict(float)
    scaled: Dict[int, float] = defaultdict(float)
    for record in run.records:
        raw[record.pass_number] += record.seconds
        scaled[record.pass_number] += (
            record.seconds * calibration.factor(record.mark)
        )
    passes = len(pairs)
    wall = sum(raw[shimmed] for _plain, shimmed in pairs)
    attributed = sum(tracer.self_s.values())
    metrics: Dict[str, Dict[str, object]] = {}
    for span, name in sorted(layers.SPAN_METRICS.items(), key=lambda kv: kv[1]):
        metrics[name] = {"value": tracer.self_s.get(span, 0.0) / passes, "unit": "s"}
    for name, unit in sorted(layers.COUNTERS.items()):
        metrics[name] = {"value": tracer.counts.get(name, 0) / passes, "unit": unit}
    metrics["unattributed_s"] = {"value": (wall - attributed) / passes, "unit": "s"}
    metrics["trace.wall_s"] = {"value": wall / passes, "unit": "s"}
    metrics["trace.coverage_ratio"] = {
        "value": attributed / wall if wall else 0.0, "unit": "ratio"
    }
    metrics["trace.overhead_ratio"] = {
        "value": median(
            scaled[shimmed] / scaled[plain]
            for plain, shimmed in pairs
            if scaled[plain] > 0
        ) or 0.0,
        "unit": "ratio",
    }
    gaps = layers.stats_gaps(workload.stats_tree())
    untraced = sum(raw[plain] for plain, _shimmed in pairs)
    lines = [
        "per traced pass, %d traced + %d untraced passes after one warm-up:"
        % (passes, passes),
        "trace.overhead_ratio is the median over pairs of calibrated "
        "traced / untraced pass time; raw summed ratio %.3f"
        % (wall / untraced if untraced else 0.0),
    ]
    for name, entry in metrics.items():
        lines.append("%-34s %14.6f %s" % (name, entry["value"], entry["unit"]))
    lines.append("-- counters missing from the program's own statistics tree --")
    lines.extend("missing: %s" % gap for gap in gaps)
    if not gaps:
        lines.append("(none)")
    os.makedirs(OUTPUT, exist_ok=True)
    path = os.path.join(OUTPUT, "trace-%s-seed%d.json" % (workload.name, seed))
    origin = tracer.spans[0][3] if tracer.spans else 0.0
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": workload.name,
                "seed": seed,
                "metrics": metrics,
                "missing": gaps,
                "spans_dropped": tracer.dropped,
                "spans": [
                    [span_id, parent, name, start - origin, end - origin]
                    for span_id, parent, name, start, end in tracer.spans
                ],
            },
            handle,
        )
    lines.append("spans written to %s" % os.path.relpath(path, ROOT))
    return run, metrics, lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(sorted(WORKLOADS))))
    workload = WORKLOADS[args.workload]()
    if args.setup_probe:
        workload.setup(args.seed)
        return 0

    references = load_references()
    if args.trace:
        workload.setup(args.seed)
        run, metrics, lines = traced(workload, args.seconds, references, args.seed)
    else:
        calibration = Calibration()
        setup = setup_seconds(args.workload, args.seed, calibration)
        workload.setup(args.seed)
        run, rss_mb = measure(workload, args.seconds, references, calibration)
        metrics, lines = end_to_end(run, setup, calibration, rss_mb)

    print("workload %s, seed %d, %d passes, %d operations, %d failed"
          % (args.workload, args.seed, run.passes, run.attempted, run.failed))
    for line in lines:
        print(line)
    for error in run.errors:
        print("FAILED %s" % error)
    for key in run.mismatches:
        print("MISMATCH %s disagrees with its reference" % key)
    for key in run.unreferenced:
        print("note: no reference digest recorded for %s" % key)
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
