"""Benchmark of the `untangling` package: one closed-loop client, three workloads.

    python3 bench/run.py --workload ap-service --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from `src/` of that
checkout and nowhere else.  With `--trace 0` the run reports the end-to-end
metrics; with `--trace 1` it reports per-layer metrics from a traced pass
(and the tracing overhead against an untraced pass of the same requests).
Human-readable lines come first; the last line of stdout is one JSON object.
Every response is checked; see bench/README.md for the metrics and the gate.
Times are reported at reference machine speed (see bench/speed.py).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

SETUP_SHARDS = 3        # inputs are generated in this many interleaved, separately timed shards
WARMUP_REQUESTS = 8     # smallest requests, served once after set-up, untimed
CLI_RUNS = 16           # cli_cold_ms is the median over these sequential runs
CLI_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Phase:
    """Closed loop over passes of the request list, one client.

    `latencies` are as measured; `scaled` are the same at reference speed,
    from the speed meter's samples around each request (see speed.py).
    """

    def __init__(self, workload, pool, meter):
        self.workload, self.pool, self.meter = workload, pool, meter
        self.intervals: list[tuple[float, float]] = []
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.first: list = []          # responses of the first pass
        self.problems: list[str] = []  # failures found while serving
        self.passes = 0
        self.elapsed = 0.0

    def run(self, passes: int = 1, tracer=None, requests: list | None = None) -> "Phase":
        """Serve `passes` whole passes; with `requests`, serve just those once
        (a warm-up, or the leading part of a pass)."""
        wl, pool, meter = self.workload, self.pool, self.meter
        single = requests is not None
        meter.start()
        try:
            start = meter.now()
            for _ in range(1 if single else passes):
                ctx = wl.new_pass(pool)
                for i, req in enumerate(requests if single else pool.requests):
                    self._serve(i, req, ctx, tracer)
                if not single:
                    self.problems.extend(wl.end_pass(pool, ctx))
                self.passes += 1
            self.elapsed = meter.now() - start
        finally:
            meter.stop()
        self.latencies = [t1 - t0 for t0, t1 in self.intervals]
        self.scaled = [meter.scaled(t0, t1) for t0, t1 in self.intervals]
        return self

    def _serve(self, i: int, req, ctx: dict, tracer) -> None:
        if tracer is not None:
            tracer.request = len(self.intervals)
        t0 = self.meter.now()
        try:
            if tracer is None:
                resp = self.workload.serve(self.pool, req, ctx)
            else:
                resp = tracer.span(f"request.{req.kind}", self.workload.serve, self.pool, req, ctx)
        except Exception as exc:  # any exception fails the request, the loop goes on
            resp = None
            self.problems.append(f"request {i} ({req.kind}, n={req.n}): {type(exc).__name__}: {exc}")
        self.intervals.append((t0, self.meter.now()))
        if self.passes == 0:
            self.first.append(resp)
        elif resp is not None and resp != self.first[i]:
            self.problems.append(f"request {i} ({req.kind}): response differs from the first pass")

    def prefix_for(self, seconds: float) -> int:
        """How many requests of the first pass were served within `seconds`."""
        total = 0.0
        for i, dt in enumerate(self.latencies[: len(self.pool.requests)]):
            total += dt
            if total >= seconds:
                return i + 1
        return len(self.pool.requests)

    def gate(self) -> list[str]:
        """Every failure of this phase: exceptions, and checks of every response."""
        problems = list(self.problems)
        ok = [(i, r) for i, r in enumerate(self.first) if r is not None]
        verdicts = self.workload.check(
            type(self.pool)([self.pool.requests[i] for i, _ in ok], self.pool.inputs), [r for _, r in ok]
        )
        for (i, _), why in zip(ok, verdicts):
            if why is not None:
                req = self.pool.requests[i]
                # a wrong answer fails every pass that served it
                problems.extend([f"request {i} ({req.kind}, n={req.n}): {why}"] * self.passes)
        return problems

    def moved_total(self) -> int:
        return sum(
            self.workload.moved(req, resp)
            for req, resp in zip(self.pool.requests, self.first)
            if resp is not None
        )


def timed_passes(workload, seconds: float) -> int:
    """Whole passes only, and as many on a fast machine as on a slow one,
    so every run of a workload serves the same request mix."""
    return max(1, round(seconds / workload.pass_s))


def percentile(sorted_xs: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, ceil(pct / 100 * len(sorted_xs)))
    return sorted_xs[rank - 1], len(sorted_xs) - rank


def cli_cold_runs(inputs: list[dict], runs: range) -> tuple[list[float], list[str]]:
    """Wall times, at reference speed, of sequential `untangling check FILE`
    processes on the workload's smallest drawings, so that import and parse
    dominate.  Each runs the CLI through cli_probe.py, which samples the
    machine's speed from inside the process."""
    from checks import crossing_count

    WORK.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    by_n = sorted(inputs, key=lambda inp: inp["n"])
    times, problems = [], []
    for j in runs:
        inp = by_n[j % len(by_n)]
        path, report = WORK / f"cli-{j}.cdr", WORK / f"cli-{j}.json"
        path.write_text(inp["text"], encoding="utf-8")
        report.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "cli_probe.py"), str(report), "check", str(path)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            times.append(CLI_TIMEOUT_S)
            problems.append(f"cli check run {j}: no exit within {CLI_TIMEOUT_S} s")
            continue
        wall = time.perf_counter() - t0
        expect = f"crossings {crossing_count(inp['order'], inp['edges'])}"
        if proc.returncode != 0 or not proc.stdout.startswith(expect + "\n"):
            problems.append(f"cli check run {j}: exit {proc.returncode}, output {proc.stdout[:60]!r}, expected {expect!r}")
        if not report.is_file():
            problems.append(f"cli check run {j}: the probe wrote no report; stderr {proc.stderr[-200:]!r}")
            continue
        probe = json.loads(report.read_text(encoding="utf-8"))
        times.append(speed.at_reference(wall - probe["meter_s"], probe["samples"]))
    return times, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "untangling" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'untangling'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one vCPU for this process and its children: the speed samples then
    # measure the processor that runs the timed work
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    meter = speed.SpeedMeter()
    meter.start()
    try:
        t0 = meter.now()
        # the package and every module the workloads call into
        untangling = importlib.import_module("untangling")
        workloads = importlib.import_module("workloads")
        t1 = meter.now()
        if Path(untangling.__file__).resolve().parent != (SRC / "untangling").resolve():
            print(f"error: imported untangling from {untangling.__file__}, not from {SRC}", file=sys.stderr)
            return 2
        if args.workload not in workloads.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
                  file=sys.stderr)
            return 2
        wl = workloads.WORKLOADS[args.workload]

        specs = wl.plan(args.seed)
        inputs: list = [None] * len(specs)
        marks = [t0, t1]
        for shard in range(SETUP_SHARDS):
            for i in range(shard, len(specs), SETUP_SHARDS):
                inputs[i] = wl.make_input(specs[i])
            marks.append(meter.now())
        pool = wl.assemble(args.seed, inputs)
        Phase(wl, pool, meter).run(requests=wl.warmup(pool)[:WARMUP_REQUESTS])
        marks.append(meter.now())
    finally:
        meter.stop()
    import_s, *shard_s, rest_s = [meter.scaled(a, b) for a, b in zip(marks, marks[1:])]
    setup_s = import_s + SETUP_SHARDS * statistics.median(shard_s) + rest_s
    setup_raw = marks[-1] - marks[0]
    from untangling import almost_planar

    props = pool.properties()
    header = (f"workload {wl.name} seed {args.seed}: closed loop, 1 client, "
              f"{props['requests_per_pass']} requests per pass, {timed_passes(wl, args.seconds)} timed passes")
    print(header)

    if args.trace:
        return _traced(args, wl, pool, props, almost_planar, meter)

    # half of the cold CLI runs before the timed phase and half after, so
    # they sample the machine at two moments of the run
    cli_inputs = wl.cli_inputs(pool)
    cli_s, problems = cli_cold_runs(cli_inputs, range(0, CLI_RUNS // 2))
    phase = Phase(wl, pool, meter).run(passes=timed_passes(wl, args.seconds))
    more_s, more_problems = cli_cold_runs(cli_inputs, range(CLI_RUNS // 2, CLI_RUNS))
    cli_ms = statistics.median(cli_s + more_s) * 1e3
    problems += more_problems + phase.gate()
    attempted = len(phase.latencies) + CLI_RUNS
    failed = min(len(problems), attempted)

    lat = sorted(phase.scaled)
    tail, beyond = percentile(lat, wl.tail_pct)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_rps": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "moved_total": (phase.moved_total(), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cli_cold_ms": (cli_ms, "ms"),
    }
    notes = {
        "setup_s": (f"import {import_s:.3f} s + {SETUP_SHARDS} x median generation shard "
                    f"{statistics.median(shard_s):.3f} s + assemble, warm-up {WARMUP_REQUESTS} requests {rest_s:.3f} s; "
                    f"{setup_raw:.3f} s as measured"),
        "throughput_rps": (f"{len(lat)} requests in {sum(lat):.2f} s, {phase.passes} passes; "
                           f"as measured {len(lat) / sum(phase.latencies):.2f} 1/s over {phase.elapsed:.2f} s"),
        "latency_p50_ms": f"n={len(lat)}",
        "latency_tail_ms": (f"p{wl.tail_pct}, {beyond} samples beyond it, n={len(lat)}; "
                            + ", ".join(f"p{q} {percentile(lat, q)[0] * 1e3:.1f}" for q in (90, 95, 99))),
        "moved_total": "sum of moved vertices over the first pass",
        "cli_cold_ms": f"median of {CLI_RUNS} sequential `untangling check FILE` subprocesses",
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:>12.4f} {unit:<6} {notes.get(name, '')}")
    print(f"  {'failed_ratio':<16} {failed / attempted:>12.4f} {'ratio':<6} {failed} of {attempted} requests failed")
    _print_problems(problems)
    print("inputs " + json.dumps(props))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _traced(args, wl, pool, props, almost_planar, meter) -> int:
    from tracing import LAYER_MAP, Tracer, unit_of

    tracer = Tracer(meter.now)
    before = almost_planar.assertion_failures
    tracer.install()
    try:
        traced = Phase(wl, pool, meter).run(passes=1, tracer=tracer)
    finally:
        tracer.uninstall()
    # the same leading requests again, untraced, for the overhead ratio
    k = traced.prefix_for(args.seconds / 2)
    reference = Phase(wl, pool, meter).run(requests=pool.requests[:k])
    problems = traced.gate() + reference.gate()
    attempted = len(reference.latencies) + len(traced.latencies)
    failed = min(len(problems), attempted)

    overhead = sum(traced.scaled[:k]) / sum(reference.scaled)
    layer = tracer.layer_metrics(almost_planar.assertion_failures - before, overhead)
    spans_path = WORK / f"spans-{wl.name}.tsv"
    tracer.write_spans(spans_path)

    print(f"  one traced pass, {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}; "
          f"overhead measured on its first {k} requests")
    for name, value in layer.items():
        print(f"  {name:<52} {value:>14.6f} {unit_of(name):<6} -> {LAYER_MAP[name]}")
    _print_problems(problems)
    props["targets_scored_max_per_request"] = layer["almost_planar.targets_scored_max"]
    print("inputs " + json.dumps(props))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in layer.items()},
    }))
    return 0


def _print_problems(problems: list[str]) -> None:
    for line in problems[:20]:
        print(f"  FAILED {line}")
    if len(problems) > 20:
        print(f"  ... {len(problems) - 20} more failures")


if __name__ == "__main__":
    sys.exit(main())
