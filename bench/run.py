"""Run one benchmark workload of jalg and report its metrics.

    python3 bench/run.py --workload verify --seed 1 --seconds 32 --trace 0

Run it from the root of a jalg checkout (the directory holding `src/jalg`).
With `--trace 0` it times the workload: set-up several times, then rounds
over the job list until `--seconds` would be exceeded.  The first round
times every job; later rounds time the short jobs, and every job again in
every LONG_EVERY-th round, so each short job is timed many times at moments
spread over the run.  With `--trace 1` it sets up once with tracing on,
runs one untraced and one traced round of every job, and reports per-layer
metrics for one set-up plus one round.

End-to-end times are scaled to a fixed machine speed.  A shared machine's
speed drifts by a third within a minute, so a fixed reference loop (the
speed probe) runs between jobs and every PROBE_TICK_S inside them, outside
the timing, and each stretch of a job between two probes is multiplied by
REF_PROBE_S over the mean of their times.  The unscaled times are printed
and recorded too.

Every job's answer is checked against its pinned value; a wrong answer or
an exception is a failure, never a time.  The last line of standard output
is one JSON object with the metrics named in BENCHMARK.json; a fuller
record goes to bench/results/<commit>/.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUPS = 3  # set-ups per timed run: this process plus two fresh ones
TAIL_BEYOND = 10  # the tail percentile leaves at least this many jobs above it
CHILD_TIMEOUT_S = 120
REF_PROBE_S = 0.002  # the probe's time at the nominal speed times are scaled to
PROBE_EVERY_S = 0.05  # a probe runs before a job when this long has passed since the last
PROBE_TICK_S = 0.04  # time between probes inside a job
# a job that takes this long at nominal speed in the first round is long:
# it is timed again only in every LONG_EVERY-th round
LONG_S = 0.3
LONG_EVERY = 4


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one jalg benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _commit(root):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


# ---------------------------------------------------------------------------
# machine speed


def _probe_once():
    """Fixed work in the mix the library runs: tuple-keyed dict updates,
    tuple arithmetic, ints mod p and Fractions.  About 2 ms."""
    a = {(i, j, k): (7 * i + 3 * j + k + 1) % 13 for i in range(4) for j in range(3) for k in range(3)}
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in a.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % 10007
    q = [Fraction(i, i + 1) for i in range(1, 40)]
    s = Fraction(0)
    for x in q:
        for y in q[::5]:
            s += x * y
    return len(out), s


class Speed:
    """Probe times through a run, used to scale measured times.

    Probes run between jobs and, while `ticking`, every PROBE_TICK_S inside
    a job too, from a SIGALRM handler: a job of a second or more then has a
    speed sample every few hundredths of a second, and its time at nominal
    speed is summed segment by segment.  The time spent in probes inside a
    job is not part of its time."""

    def __init__(self):
        self.times: list[float] = []  # when each probe ended
        self.probes: list[float] = []  # its duration
        self._ticking = False

    def sample(self):
        """A probe between jobs: the median of three runs."""
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            _probe_once()
            runs.append(time.perf_counter() - start)
        self.times.append(time.perf_counter())
        self.probes.append(statistics.median(runs))

    def maybe_sample(self):
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.sample()

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _probe_once()
        end = time.perf_counter()
        self.times.append(end)
        self.probes.append(end - start)
        # re-armed only now, so a slow probe can never interrupt itself,
        # and not at all once the job has ended
        if self._ticking:
            signal.setitimer(signal.ITIMER_REAL, PROBE_TICK_S)

    @contextlib.contextmanager
    def ticking(self):
        signal.signal(signal.SIGALRM, self._tick)
        self._ticking = True
        signal.setitimer(signal.ITIMER_REAL, PROBE_TICK_S)
        try:
            yield
        finally:
            self._ticking = False
            signal.setitimer(signal.ITIMER_REAL, 0)

    def _inside(self, start, end):
        return range(bisect.bisect_right(self.times, start), bisect.bisect_left(self.times, end))

    def raw(self, start, end):
        """Seconds between start and end that were not spent in probes."""
        return end - start - sum(self.probes[k] for k in self._inside(start, end))

    def _smoothed(self, k):
        """Probe k as the median of it and its neighbours: one probe slowed
        by a collection or a preemption must not rescale a whole stretch."""
        return statistics.median(self.probes[max(k - 1, 0) : k + 2])

    def scale(self, start, end):
        """The time between start and end outside probes, at nominal speed:
        each stretch between two probes is scaled by the mean of the two,
        starting from the last probe before start and ending with the
        first after end."""
        inside = self._inside(start, end)
        t, p = start, self._smoothed(inside.start - 1)
        nominal = 0.0
        for k in inside:
            q = self._smoothed(k)
            nominal += (self.times[k] - self.probes[k] - t) / ((p + q) / 2)
            t, p = self.times[k], q
        nominal += (end - t) / ((p + self._smoothed(inside.stop)) / 2)
        return nominal * REF_PROBE_S


# ---------------------------------------------------------------------------
# set-up


def _import_library():
    lib = importlib.import_module("jalg")
    importlib.import_module("jalg.cli")
    return lib


def _timed_setup(args, workdir):
    """(lib, workload, raw seconds, scaled seconds) of one set-up."""
    speed = Speed()
    speed.sample()
    start = time.perf_counter()
    with speed.ticking():
        lib = _import_library()
        workload = workloads.WORKLOADS[args.workload](lib, args.seed, workdir)
    end = time.perf_counter()
    speed.sample()
    return lib, workload, speed.raw(start, end), speed.scale(start, end)


def _setup_in_children(args, root):
    """(raw, scaled) set-up times of fresh processes, one after another."""
    times = []
    for _ in range(SETUPS - 1):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", args.workload, "--seed", str(args.seed)]
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if out.returncode != 0:
            raise RuntimeError(f"set-up in a fresh process failed:\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        times.append((result["raw_s"], result["setup_s"]))
    return times


# ---------------------------------------------------------------------------
# rounds


def _run_round(workload, indices, clear_caches, speed, timings, elapsed, failures, tracer=None):
    """Time each listed job once on fresh objects: append its (start, end)
    to timings[i], or a message to failures if it raised or answered
    wrongly (a failure is never a time), and set elapsed[i] either way.
    Collection, cache clearing and speed probes happen outside the timing.
    Without a tracer, speed probes also run inside each job (`ticking`);
    with one they are left out, as they would land in the spans."""
    for i in indices:
        job = workload.jobs[i]
        if tracer is not None:
            tracer.job = job.name
        clear_caches()
        gc.collect()
        speed.maybe_sample()
        start = time.perf_counter()
        try:
            with speed.ticking() if tracer is None else contextlib.nullcontext():
                answer = job.run()
            end = time.perf_counter()
            ok = job.check(answer)
        except Exception as exc:
            failures.append(f"{job.name}: raised {exc!r}"[:500])
            ok = None
        elapsed[i] = time.perf_counter() - start
        if ok is False:
            failures.append(f"{job.name}: unexpected answer {answer!r}"[:500])
        elif ok:
            timings[i].append((start, end))
    # the last job of the round needs a probe after it
    speed.sample()


def _job_times(timings, speed):
    """(raw, scaled) per-job medians over their timings; None for a job
    that never ran correctly."""
    raw = [statistics.median(speed.raw(s, e) for s, e in t) if t else None for t in timings]
    scaled = [statistics.median(speed.scale(s, e) for s, e in t) if t else None for t in timings]
    return raw, scaled


def _tail(values):
    """(percentile, value): the highest percentile of the sorted values with
    at least TAIL_BEYOND values above it; the maximum for short lists."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    k = n - TAIL_BEYOND
    return 100.0 * k / n, ordered[k - 1]


def _time_metrics(setups, medians):
    """setup_s, wall_s, job_p50_ms, job_tail_ms and the tail percentile from
    set-up times and per-job medians (None for a job that never ran
    correctly).  wall_s, the time to run the job list once, is the sum of
    the per-job medians."""
    timed = [m for m in medians if m is not None]
    if not timed:
        raise RuntimeError("no job gave its pinned answer, so there is nothing to time")
    pct, tail = _tail(timed)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(timed),
        "job_p50_ms": 1000 * statistics.median(timed),
        "job_tail_ms": 1000 * tail,
    }
    return metrics, pct


def _timed(args, root, workdir, record):
    child_setups = _setup_in_children(args, root)
    lib, workload, raw_setup, scaled_setup = _timed_setup(args, workdir)
    clear = lib.catalog.cache_clear
    # set-up objects stay alive for the whole run; freezing them keeps the
    # per-job collections small
    gc.collect()
    gc.freeze()

    n = len(workload.jobs)
    everything = list(range(n))
    speed = Speed()
    timings, elapsed, failures = [[] for _ in range(n)], [0.0] * n, []
    attempted, rounds, short, indices = 0, 0, everything, everything
    started = time.perf_counter()
    while indices:
        round_start = time.perf_counter()
        _run_round(workload, indices, clear, speed, timings, elapsed, failures)
        # probes, collections and cache clearing, per second of job time
        overhead = (time.perf_counter() - round_start) / max(sum(elapsed[i] for i in indices), 1e-9)
        attempted += len(indices)
        rounds += 1
        if rounds == 1:
            _, scaled = _job_times(timings, speed)
            short = [i for i in everything if scaled[i] is None or scaled[i] < LONG_S] or everything
        # the next round: every job if it is due and fits, else the short
        # jobs if they fit, else none
        left = args.seconds - (time.perf_counter() - started)
        candidates = ([everything] if rounds % LONG_EVERY == 0 else []) + [short]
        indices = next((c for c in candidates if overhead * sum(elapsed[i] for i in c) <= left), None)
    raw, scaled = _job_times(timings, speed)
    metrics, pct = _time_metrics([scaled_setup] + [s for _, s in child_setups], scaled)
    raw_metrics, _ = _time_metrics([raw_setup] + [r for r, _ in child_setups], raw)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["fail_ratio"] = len(failures) / attempted
    counts = [len(t) for t in timings]
    record.update(
        rounds=rounds,
        jobs=n,
        long_jobs=n - len(short),
        timings_per_job={"min": min(counts), "median": statistics.median(counts), "max": max(counts)},
        job_tail_pct=pct,
        unscaled=raw_metrics,
        probes=len(speed.probes),
        probe_ms={"median": 1000 * statistics.median(speed.probes), "min": 1000 * min(speed.probes), "max": 1000 * max(speed.probes)},
        setup_samples_s=[raw_setup] + [r for r, _ in child_setups],
        job_timings_ms={
            job.name: [round(1000 * speed.scale(s, e), 3) for s, e in t] for job, t in zip(workload.jobs, timings)
        },
        job_medians_ms={job.name: 1000 * m for job, m in zip(workload.jobs, scaled) if m is not None},
    )
    return metrics, attempted, failures


def _traced(args, workdir, record):
    lib = _import_library()
    clear = lib.catalog.cache_clear
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload = workloads.WORKLOADS[args.workload](lib, args.seed, workdir)
    finally:
        tracer.uninstall()
    gc.collect()
    gc.freeze()
    n = len(workload.jobs)
    speed = Speed()
    plain, traced, elapsed, failures = [[] for _ in range(n)], [[] for _ in range(n)], [0.0] * n, []
    # the untraced round takes the tracer too, so that neither round runs
    # probes inside its jobs and the two are timed alike
    _run_round(workload, range(n), clear, speed, plain, elapsed, failures, tracer)
    tracer.install()
    try:
        _run_round(workload, range(n), clear, speed, traced, elapsed, failures, tracer)
    finally:
        tracer.uninstall()
    missing = [name for name in workload.spans if not tracer.fired(name)]
    if missing:
        raise RuntimeError(f"spans expected on {args.workload} never fired: {missing}")
    _, plain = _job_times(plain, speed)
    _, traced = _job_times(traced, speed)
    # both rounds are summed over the jobs that ran correctly in both
    both = [(p, t) for p, t in zip(plain, traced) if p is not None and t is not None]
    metrics = tracer.metrics()
    metrics["trace_overhead_s"] = sum(t for _, t in both) - sum(p for p, _ in both)
    record.update(
        rounds=2,
        jobs=n,
        untraced_wall_s=sum(p for p, _ in both),
        traced_wall_s=sum(t for _, t in both),
        spans_kept=len(tracer.spans),
        spans_dropped=tracer.dropped,
    )
    return metrics, 2 * n, failures, tracer


# ---------------------------------------------------------------------------
# output

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
    "trace_overhead_s": "s",
}


def _unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _write_spans(path, tracer):
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    jobs = sorted({s[4] for s in tracer.spans})
    job_index = {j: i for i, j in enumerate(jobs)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "fields": ["name", "start", "end", "parent", "job"],
                "names": names,
                "jobs": jobs,
                "dropped": tracer.dropped,
                "spans": [[index[n], s, e, p, job_index[j]] for n, s, e, p, j in tracer.spans],
            },
            fh,
        )


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "jalg" / "__init__.py").is_file():
        print(f"error: {root} is not a jalg checkout (no src/jalg); run from its root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # generated input files live inside the checkout, removed on exit
    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".work-") as workdir:
        if args.setup_only:
            _, _, raw, scaled = _timed_setup(args, workdir)
            print(json.dumps({"raw_s": raw, "setup_s": scaled}))
            return 0
        return _report(args, root, workdir)


def _report(args, root, workdir):
    commit = _commit(root)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "commit": commit,
            "loadavg_start": list(os.getloadavg()),
            "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        },
    }
    tracer = None
    if args.trace:
        metrics, attempted, failures, tracer = _traced(args, workdir, record)
    else:
        metrics, attempted, failures = _timed(args, root, workdir, record)

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"BENCHMARK.json names metrics this run does not produce: {missing}")

    out_dir = BENCH_DIR / "results" / commit
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    record.update(
        attempted=attempted,
        failed=len(failures),
        failures=failures[:20],
        metrics={k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    )
    if tracer is not None:
        spans_path = out_dir / f"{stem}-spans.json"
        _write_spans(spans_path, tracer)
        record["spans_file"] = spans_path.name
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  commit {commit}")
    print(f"rounds {record['rounds']}  jobs {record['jobs']}  attempted {attempted}  failed {len(failures)}")
    for failure in failures[:5]:
        print(f"  FAILED {failure}", file=sys.stderr)
    notes = {
        "setup_s": f"median of {SETUPS} set-ups",
        "wall_s": f"sum of per-job medians over {record['rounds']} rounds",
        "job_tail_ms": f"p{record.get('job_tail_pct', 0):.1f} of {record['jobs']} per-job medians",
        "fail_ratio": f"{len(failures)} of {attempted} jobs",
    }
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        if name in record.get("unscaled", {}):
            note += f"  [unscaled {record['unscaled'][name]:.6f}]"
        print(f"{name:34s} {value:14.6f} {_unit(name)}{note}")
    print(f"result file: {out_dir / (stem + '.json')}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
