"""griglab benchmark: the CLI as users run it, one fresh process per operation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Operations run one at a time (closed loop, one client, `--threads 1`) on the
`grigorchuk` preset, each in a fresh process with cold preset caches.  With
`--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` every round runs untraced and then traced (bench/tracing.py),
and the last line carries the per-layer metrics.  The line before it
records the environment, the code size and the per-round samples.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time

import measure
import tracing
import workloads

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "pass_share": "share",
    "bracket_choices": "count",
    "decided_share": "share",
}
SETUP_RUNS = 15
MIN_ROUNDS = 2
MODULES = (
    "core",
    "words",
    "enumeration",
    "conjugacy",
    "constructions",
    "expressions",
    "width",
    "bounds",
    "cli",
)
PER_LAYER = {
    **{m: tracing.metric_unit(m) for m in tracing.SPAN_METRICS},
    **{m: "count" for m in tracing.MEMO_METRICS},
    "trace.overhead_s": "s",
    "cli.gupta_sidki_3_crashes": "count",
    **{f"{m}.src_lines": "lines" for m in MODULES},
    "failed_share": "share",
    "bracket_gap": "count",
    "inconclusive": "count",
}


class Tally:
    """Operations attempted and failed, and what their checks reported."""

    def __init__(self, preset):
        self.preset = preset
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.searches = 0
        self.inconclusive = 0
        self.bracket_gap = 0
        self.bracket_choices = 1

    def record(self, argv, child, count_searches=True):
        outcome = workloads.check(argv, child.code, child.stdout, child.stderr, self.preset)
        self.attempted += 1
        if count_searches:
            self.searches += outcome.searches
            self.inconclusive += outcome.inconclusive
        if outcome.brackets:
            gaps = [hi - lo for _, lo, hi in outcome.brackets]
            self.bracket_gap = max(self.bracket_gap, sum(gaps))
            self.bracket_choices = max(self.bracket_choices, math.prod(g + 1 for g in gaps))
        if outcome.errors:
            self.fail(argv, outcome.errors)
        return not outcome.errors

    def fail(self, argv, errors):
        self.failed += 1
        self.errors.append({"argv": argv, "errors": errors})


def source_lines():
    pkg = measure.SRC / "griglab"
    return {m: len((pkg / f"{m}.py").read_text(encoding="utf-8").splitlines()) for m in MODULES}


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "seed": seed,
    }


def _commit():
    head = measure.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (measure.ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def _keep_going(started, seconds, walls, min_rounds):
    """Start another round if it should end near the run's time.

    A round may end up to half a round past the time, so runs last about
    `seconds` on average.  Below `min_rounds` it may end up to a quarter of
    the time past it, so that a slow machine gets fewer rounds rather than
    a run far past its time.
    """
    typical = statistics.median(walls)
    ends_at = time.perf_counter() - started + typical
    if len(walls) < min_rounds:
        return ends_at <= 1.25 * seconds
    return ends_at <= seconds + typical / 2


def _round(children):
    return {
        "wall_s": sum(c.wall_s for c in children),
        "cpu_s": sum(c.cpu_s for c in children),
        "peak_rss_mb": max(c.peak_rss_mb for c in children),
    }


def run_plain(name, seed, seconds, tally):
    setup = [measure.run_setup(workloads.PRESET) for _ in range(SETUP_RUNS)]
    if any(s.code != 0 for s in setup):
        raise SystemExit(f"set-up process failed: {setup[0].stderr.strip()}")
    samples = []
    started = time.perf_counter()
    for argvs in workloads.rounds(name, seed):
        children = [measure.run_cli(argv) for argv in argvs]
        for argv, child in zip(argvs, children):
            tally.record(argv, child)
        samples.append(_round(children))
        if not _keep_going(started, seconds, [s["wall_s"] for s in samples], MIN_ROUNDS):
            break
    metrics = {
        k: statistics.median(s[k] for s in samples) for k in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    metrics["setup_s"] = statistics.median(s.wall_s for s in setup)
    metrics["pass_share"] = (tally.attempted - tally.failed) / tally.attempted
    metrics["bracket_choices"] = tally.bracket_choices
    metrics["decided_share"] = (
        (tally.searches - tally.inconclusive) / tally.searches if tally.searches else 1.0
    )
    return metrics, samples


def run_traced(name, seed, seconds, tally):
    measure.WORK.mkdir(exist_ok=True)
    samples, layers = [], []
    started = time.perf_counter()
    for op_id, argvs in enumerate(workloads.rounds(name, seed)):
        plain = [measure.run_cli(argv) for argv in argvs]
        traced, dumps = [], []
        for k, argv in enumerate(argvs):
            spans_path = measure.WORK / f"spans-{os.getpid()}-{op_id}-{k}.json"
            child = measure.run_traced(argv, spans_path, op_id)
            traced.append(child)
            same = (child.code, child.stdout) == (plain[k].code, plain[k].stdout)
            if tally.record(argv, child, count_searches=False) and not same:
                tally.fail(argv, ["traced output differs from the untraced output"])
            try:
                dumps.append(json.loads(spans_path.read_text(encoding="utf-8")))
                spans_path.unlink()
            except (OSError, ValueError) as exc:
                tally.fail(argv, [f"no span file: {exc}"])
        for argv, child in zip(argvs, plain):
            tally.record(argv, child)
        samples.append({"plain": _round(plain), "traced": _round(traced)})
        layers.append(tracing.operation_metrics(dumps))
        walls = [s["plain"]["wall_s"] + s["traced"]["wall_s"] for s in samples]
        if not _keep_going(started, seconds, walls, 1):
            break
    metrics = {m: statistics.median(op[m] for op in layers) for m in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(
        s["traced"]["wall_s"] for s in samples
    ) - statistics.median(s["plain"]["wall_s"] for s in samples)
    metrics["cli.gupta_sidki_3_crashes"] = sum(
        measure.run_cli(argv).code not in (0, 2) for argv in workloads.CRASH_PROBES
    )
    metrics.update((f"{m}.src_lines", n) for m, n in source_lines().items())
    metrics["failed_share"] = tally.failed / tally.attempted
    metrics["bracket_gap"] = tally.bracket_gap
    metrics["inconclusive"] = tally.inconclusive
    return metrics, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (measure.SRC / "griglab" / "cli.py").is_file():
        print(f"error: no griglab sources under {measure.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(measure.SRC))
    from griglab import core

    warm = measure.run_setup(workloads.PRESET)  # fail before any timing if griglab cannot start
    if warm.code != 0:
        print(f"error: griglab does not start:\n{warm.stderr}", file=sys.stderr)
        return 2
    tally = Tally(core.load_preset(workloads.PRESET))
    run = run_traced if args.trace else run_plain
    metrics, samples = run(args.workload, args.seed, args.seconds, tally)
    units = PER_LAYER if args.trace else END_TO_END
    info = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "src_lines": source_lines(),
        "samples": samples,
        "errors": tally.errors,
    }
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
