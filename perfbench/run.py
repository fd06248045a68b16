"""End-to-end and per-layer benchmark for audit campaigns and Fig. 7.

Run from the root of a checkout::

    python3 perfbench/run.py --workload audit-cold --seed 7 --seconds 36 --trace 0

``--trace 0`` times passes over the workload's input list with tracing
off and reports the end-to-end metrics in reference-host seconds (see
:class:`Gauge`); ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics recorded
by ``perfbench/spans.py``.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give a host stamp and every metric by name with its unit.
Wrong output (pinned digest, pass-to-pass repeat, cross-mode
equivalence, or a workload check) prints ``"correct": false`` with no
metrics and exits 1.  Full records, spans included, go to
``.perfbench_runs/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
#: Pinned output digests per workload and seed.
PINS = HERE / "digests.json"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS, simulated_hours  # noqa: E402

#: Setup is timed in this many fresh processes per run (median kept).
SETUP_PROBES = 5
CALIBRATION_N = 2_000_000
#: The host gauge (see :class:`Gauge`): iterations of its arithmetic
#: loop, objects in its memory walk, of which each sample visits
#: ``GAUGE_WALK``, and samples per reading (median kept).
GAUGE_N = 20_000
GAUGE_OBJECTS = 400_000
GAUGE_WALK = 8_000
GAUGE_SAMPLES = 3
#: A typical gauge reading on the reference host: the shared 2-CPU host
#: this benchmark was built on (Python 3.11.7).
GAUGE_REF_S = 0.0015


class CheckFailed(Exception):
    """The program's output is wrong; no numbers are printed."""


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and prove that the
    ``repro`` imported is the one in it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def host_stamp() -> dict:
    """Context for reading the numbers; never used to scale them."""
    begin = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_N):
        acc += i * i % 7
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "loadavg": list(os.getloadavg()),
            "calibration_s": time.perf_counter() - begin}


def rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize()


class Gauge:
    """How fast the host runs Python right now, read next to the work.

    The shared host this benchmark was built on runs for seconds to
    minutes at a time up to 1.8x slower, on both CPUs at once, and CPU
    time slows with wall time; raw times of the same code in two runs
    differ by more than any regression bound, and no run length inside
    the benchmark's time budget averages those phases out.  A reading is
    the median of a few samples, each the geometric mean of an
    arithmetic loop (slows with the core) and a walk over objects in
    shuffled order (slows with the shared caches); together they track
    the program's own slowdown.  The objects are ints, which the garbage
    collector never visits, so the gauge does not change the program's
    collection work.
    """

    def __init__(self) -> None:
        before = rss_bytes()
        objects = [i + (1 << 40) for i in range(GAUGE_OBJECTS)]
        random.Random(0).shuffle(objects)
        self.objects = objects
        self.at = 0
        #: Resident bytes the gauge holds, left out of ``peak_rss_mb``.
        self.footprint = rss_bytes() - before

    def __call__(self) -> float:
        return statistics.median(self.sample() for _ in range(GAUGE_SAMPLES))

    def sample(self) -> float:
        begin = time.perf_counter()
        acc = 0
        for i in range(GAUGE_N):
            acc += i * i % 7
        middle = time.perf_counter()
        for value in self.objects[self.at:self.at + GAUGE_WALK]:
            acc += value
        end = time.perf_counter()
        self.at = (self.at + GAUGE_WALK) % (GAUGE_OBJECTS - GAUGE_WALK)
        return math.sqrt((middle - begin) * (end - middle))


def reference_seconds(seconds: float, readings) -> float:
    """``seconds`` measured while the gauge read ``readings``, as
    seconds on the reference host."""
    return seconds * GAUGE_REF_S / statistics.fmean(readings)


def setup_probe(workload, seed: int) -> None:
    """Child side of a setup measurement: read the gauge, import, build
    the inputs, read it again; report the monotonic instant the inputs
    were ready, the seconds spent on the gauge before, the readings and
    the inputs' digest."""
    begin = time.monotonic()
    gauge = Gauge()
    first = gauge()
    spent = time.monotonic() - begin
    import_program()
    inputs = workload.setup(seed)
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "gauge_s": spent,
                      "gauges": [first, gauge()],
                      "inputs": inputs.digest()}))


def probe_setup(name: str, seed: int, expect: str) -> tuple:
    """``(raw, reference)`` seconds from spawning a fresh interpreter
    until its inputs are ready (the gauge's time left out); the probe
    must build the same inputs as this process."""
    begin = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    if probe["inputs"] != expect:
        raise CheckFailed("a fresh process generated different inputs "
                          "from the same seed")
    raw = probe["ready"] - begin - probe["gauge_s"]
    return raw, reference_seconds(raw, probe["gauges"])


class Runner:
    """Passes of one workload on one seed, with their output checks."""

    def __init__(self, workload, seed: int, pinned) -> None:
        self.gauge = Gauge()
        self.workload = workload
        self.seed = seed
        self.pinned = pinned
        self.inputs = workload.setup(seed)
        self.chunks = workload.chunks(self.inputs)
        self.digest = None
        self.attempted = 0
        self.failed = 0

    def one_pass(self, recorder=None, whole: bool = False) -> tuple:
        """Run the entry point over the input list once; returns
        ``(seconds, gauges, output)``: the time of each call, and the
        host gauge before each call and after the last.  A plain pass
        makes one call per chunk of the list; a traced pass
        (``recorder``) or a ``whole`` one makes a single call on the
        entire list."""
        ops = self.workload.operations(self.inputs)
        self.attempted += ops
        pieces = [self.inputs] if recorder or whole else self.chunks
        seconds, gauges, outputs = [], [], []
        try:
            for piece in pieces:
                gauges.append(self.gauge())
                begin = time.perf_counter()
                if recorder is None:
                    outputs.append(self.workload.run(piece))
                else:
                    outputs.append(recorder.span(spans.ROOT,
                                                 self.workload.run, piece))
                seconds.append(time.perf_counter() - begin)
        except Exception as exc:
            self.failed += ops
            raise CheckFailed(f"entry point raised {exc!r}") from exc
        gauges.append(self.gauge())
        output = self.workload.merge(outputs)
        self.failed += self.workload.failures(output)
        self.verify(output)
        return seconds, gauges, output

    def verify(self, output) -> None:
        digest = self.workload.digest(output)
        if self.digest is not None:
            if digest != self.digest:
                raise CheckFailed("output changed between passes")
            return
        problems = self.workload.check(output)
        if problems:
            raise CheckFailed("; ".join(problems))
        if self.pinned is not None and digest != self.pinned:
            raise CheckFailed(f"output digest {digest} != pinned "
                              f"{self.pinned}")
        self.digest = digest

    def cross_check(self) -> None:
        """Cold serial ≡ warm-start + flock, outside the timed passes."""
        reference = self.workload.reference(self.inputs)
        if reference is not None and reference != self.digest:
            raise CheckFailed(f"{self.workload.name} output differs from a "
                              f"cold serial run_audit of the same inputs")


def timed_run(runner: Runner, seconds: float) -> tuple:
    """End-to-end metrics: chunked passes for ``seconds``, with the
    setup probes spread evenly between them.  Pass and setup times are
    taken in reference-host seconds (:func:`reference_seconds`, the
    gauges of the pass), and the medians over the run are kept; the raw
    medians are printed beside them."""
    workload, inputs = runner.workload, runner.inputs
    expect = inputs.digest()
    passes, probes = [], []
    begin = time.perf_counter()
    while True:
        calls, gauges, _ = runner.one_pass()
        passes.append((calls, gauges))
        elapsed = time.perf_counter() - begin
        if elapsed >= len(probes) * seconds / SETUP_PROBES:
            probes.append(probe_setup(workload.name, runner.seed, expect))
            elapsed = time.perf_counter() - begin
        # Stop before a pass would run past ``seconds``.
        if elapsed + sum(calls) > seconds:
            break
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(workload.name, runner.seed, expect))
    runner.cross_check()
    raw = statistics.median(sum(calls) for calls, _ in passes)
    entry = statistics.median(reference_seconds(sum(calls), gauges)
                              for calls, gauges in passes)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in probes), "s"),
        "schedules_per_s": (workload.operations(inputs) / entry, "1/s"),
        "peak_rss_mb": ((rss_kib * 1024 - runner.gauge.footprint) / 2**20,
                        "MB"),
    }
    shown = {
        "sim_hours_per_s": (simulated_hours(workload, inputs) / entry, "h/s"),
        "failed_frac": (runner.failed / runner.attempted, "ratio"),
        "passes": (len(passes), "count"),
        "raw_setup_s": (statistics.median(r for r, _ in probes), "s"),
        "raw_schedules_per_s": (workload.operations(inputs) / raw, "1/s"),
        "gauge_s": (statistics.median(g for _, gauges in passes
                                      for g in gauges), "s"),
        "gauge_rss_mb": (runner.gauge.footprint / 2**20, "MB"),
    }
    if workload.name == "shrink-flock":
        shown["counterexample_s"] = (entry, "s")
    return metrics, {"passes": passes, "setup_probes": probes,
                     "shown": shown}


def layer_metrics(recorder, report) -> dict:
    """Per-layer metrics of one traced pass (``report`` is the
    ``AuditReport``, or ``None`` for the Fig. 7 sweep)."""
    calls, self_s = recorder.calls(), recorder.self_times()
    counters = recorder.counters
    m = {}
    for layer in spans.LAYERS:
        m[f"{layer}.calls"] = (calls[layer], "count")
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    for key, unit in spans.COUNTERS:
        m[key] = (counters[key], unit)
    views = calls["analysis.view"]
    m["analysis.decodes_per_view"] = (
        counters["snapshot.decode.audit_calls"] / views if views else 0.0,
        "ratio")

    stats = (report.warmstart if report is not None else None) or {}
    shrunk = report.shrunk if report is not None else []
    m["audit.schedules"] = (report.schedules_run if report else 0, "count")
    m["audit.shrink.replays"] = (sum(e["replays"] for e in shrunk), "count")
    m["audit.shrink.memo_hits"] = (sum(e["cache_hits"] for e in shrunk),
                                   "count")
    hits = stats.get("hits", 0)
    m["warmstart.warm_ratio"] = (
        hits / (hits + stats["misses"]) if hits else 0.0, "ratio")
    forked = stats.get("flock_runs", 0)
    m["flock.templates"] = (stats.get("templates_built", 0), "count")
    m["flock.fork_ratio"] = (
        forked / (forked + stats["cold_runs"]) if forked else 0.0, "ratio")

    root = recorder.spans[0]
    m["trace.wall_s"] = (root[spans.END] - root[spans.START], "s")
    m["trace.untraced_s"] = (self_s[spans.ROOT], "s")
    m["trace.tracer_s"] = (self_s[spans.TRACER_BUCKET], "s")
    return m


def traced_run(runner: Runner, seconds: float) -> tuple:
    """Per-layer metrics: untraced and traced passes alternate for
    ``seconds``; the metrics are those of the median traced pass, and
    the tracing overhead is traced minus untraced median time."""
    plain, traced, per_pass, recorded = [], [], [], []
    begin = time.perf_counter()
    # Stop before another pair of passes would run past ``seconds``.
    while not traced or (time.perf_counter() - begin
                         + plain[-1] + traced[-1] <= seconds):
        plain.append(runner.one_pass(whole=True)[0][0])
        recorder = spans.SpanRecorder()
        undo = spans.install(recorder)
        try:
            (wall,), _, output = runner.one_pass(recorder)
        finally:
            undo()
        traced.append(wall)
        report = output if hasattr(output, "schedules_run") else None
        per_pass.append(layer_metrics(recorder, report))
        recorded.append(recorder.spans)
    runner.cross_check()
    # One whole pass, so its self times still add up to its wall time.
    middle = sorted(range(len(traced)), key=traced.__getitem__)[
        (len(traced) - 1) // 2]
    metrics = dict(per_pass[middle])
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(plain), "s")
    return metrics, {"plain_pass_s": plain, "traced_pass_s": traced,
                     "spans": recorded}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the program's own "
                             "default for that entry point)")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if args.setup_probe:
        setup_probe(workload, seed)
        return 0

    with open(PINS, encoding="utf-8") as fh:
        pinned = json.load(fh).get(workload.name, {}).get(str(seed))
    import_program()
    host = host_stamp()
    runner = Runner(workload, seed, pinned)
    try:
        if args.trace:
            metrics, record = traced_run(runner, args.seconds)
        else:
            metrics, record = timed_run(runner, args.seconds)
    except CheckFailed as exc:
        print(f"perfbench: {workload.name} seed {seed}: WRONG OUTPUT: {exc}",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": runner.attempted,
                          "failed": runner.failed, "metrics": {}}))
        return 1

    RUNS.mkdir(exist_ok=True)
    out = RUNS / f"{workload.name}-seed{seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": seed, "host": host,
                   "digest": runner.digest, "metrics": metrics, **record},
                  fh)
    print(json.dumps({"host": host}))
    for name, (value, unit) in {**metrics, **record.get("shown", {})}.items():
        print(f"{workload.name} {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": True, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
