"""dqwalk benchmark: time the CLI end to end and, in a traced run, per layer.

    python3 bench/run.py --workload series-long --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout against src/ (no install needed).
The workload's call stream (see workloads.py) is driven in process through
``dqwalk.cli.main(argv)``, one client, closed loop: a short untimed
warm-up, then rounds until ``--seconds`` of calls have been timed.  Every
call's output is checked after its round, outside the timed region
(checks.py); a call fails on a nonzero exit code, an exception or a failed
check.

``--trace 0`` reports the end-to-end metrics from untraced rounds, with
times scaled to a reference host speed (hostspeed.py; raw times are
printed alongside).
``--trace 1`` alternates untraced and traced rounds and reports per-layer
metrics (tracer.py) plus the tracing overhead.  Both print a table of every
metric they measured, then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics.  The environment, failure reasons
and (traced) spans are written to .bench_out/.
"""

from __future__ import annotations

import env  # first: pins thread counts before numpy loads

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from hostspeed import HostSpeed

# Set-up is timed SETUP_FIRST times before the first round and then once per
# SETUP_EVERY_S of measured time, so that its median, like the round times,
# spans the whole run rather than one moment of the host's drifting speed.
# Its times are scaled with the large-array kernel: in trials, process
# start-up (exec, page faults, imports) tracked it, and not the small one.
SETUP_FIRST = 3
SETUP_EVERY_S = 2.0
SETUP_KERNEL = "large-arrays"
# Untimed calls before timing starts, so one-time lazy set-up (numpy's first
# einsum paths, argparse) is not in the first round.
WARMUP_CALLS = 30
SETUP_TIMEOUT_S = 60
OUT_DIR = os.path.join(env.ROOT, ".bench_out")
TMP_DIR = os.path.join(env.ROOT, ".bench_tmp")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "cli.self_s": "s",
    "channels.build_s": "s",
    "channels.load_s": "s",
    "channels.certify_s": "s",
    "channels.coin_k_s": "s",
    "pauli.sandwich_s": "s",
    "moments.grids_s": "s",
    "moments.recursion_s": "s",
    "moments.node_steps": "count",
    "moments.ns_per_node_step": "ns",
    "moments.flops_computed": "flop/node-step",
    "moments.bytes_computed": "B/node-step",
    "moments.asymptotic_s": "s",
    "brokenline.closed_form_s": "s",
    "brokenline.closed_form_calls": "count",
    "simulator.step_s": "s",
    "simulator.steps": "count",
    "simulator.site_pairs": "count",
    "simulator.ns_per_site_pair": "ns",
    "simulator.moment_direct_s": "s",
    "trace.overhead_frac": "ratio",
}
# Printed in the table, not in the JSON line: fail_frac is 0 on a correct
# run (the JSON carries it as failed / attempted), the sample count is a
# property of the run, and the raw times and host_factor show what the
# host-speed scaling (hostspeed.py) did.
EXTRA_UNITS = {
    "fail_frac": "ratio",
    "query_samples": "count",
    "host_factor": "ratio",
    "raw_setup_s": "s",
    "raw_wall_s": "s",
    "raw_query_p50_ms": "ms",
    "raw_query_p95_ms": "ms",
}

def measure_setup(reps: int, host: HostSpeed) -> list[dict]:
    """Seconds from starting a fresh interpreter until ``import dqwalk.cli``
    returns, once per rep.  CLOCK_MONOTONIC is system wide, so the child's
    reading after the import and the parent's before the spawn compare."""
    code = ("import time, dqwalk.cli; "
            "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))")
    spawns = []
    for _ in range(reps):
        span_start = time.perf_counter()
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", code], env=env.child_env(),
                              capture_output=True, text=True, check=True,
                              timeout=SETUP_TIMEOUT_S)
        seconds = (int(proc.stdout.strip()) - start) / 1e9
        spawns.append({"seconds": seconds, "start": span_start,
                       "end": time.perf_counter()})
        host.after(seconds)
    return spawns


def _read(path: str | None) -> str | None:
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def play_round(cli, calls, host=None, tracer=None) -> list[dict]:
    """Run one round's calls in order; time only ``cli.main`` itself."""
    records = []
    for call in calls:
        if tracer is not None:
            tracer.call_id += 1
        error = None
        start = time.perf_counter()
        try:
            code = cli.main(call.argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crashing call is a failed call; keep going
            code = None
            error = traceback.format_exc(limit=3)
        end = time.perf_counter()
        elapsed = end - start
        if host is not None:
            host.after(elapsed)
        if error is None and code != 0:
            error = f"exit code {code}"
        outputs = {}
        if error is None:
            try:
                outputs = {"out": _read(call.out), "moments_out": _read(call.moments_out)}
            except OSError as exc:
                error = f"missing output: {exc}"
        records.append({"call": call, "seconds": elapsed, "start": start,
                        "end": end, "error": error, "outputs": outputs})
    return records


def check_round(records: list[dict], reference: dict) -> None:
    """Set each record's error from its output check.  Outputs and inputs are
    dropped afterwards (the argv of a failed call is kept), so what a run
    holds does not grow with the number of rounds and inflate peak RSS."""
    import checks

    for rec in records:
        call, outputs = rec.pop("call"), rec.pop("outputs")
        if rec["error"] is None:
            try:
                rec["error"] = checks.check_call(call, outputs, reference)
            except Exception:  # an unparsable output is a failed check
                rec["error"] = "checker raised: " + traceback.format_exc(limit=2)
        if rec["error"] is not None:
            rec["argv"] = call.argv


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes=None, time_setup: bool = True) -> dict:
    """Measure one workload; returns counts, metrics, failures and spans."""
    import checks
    import tracer as tracing
    import workloads
    from dqwalk import cli

    sizes = sizes or workloads.FULL
    reference = checks.load_reference()
    os.makedirs(TMP_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=TMP_DIR)
    tracer = tracing.Tracer() if trace else None
    try:
        host = HostSpeed(workloads.REFERENCE_KERNEL[workload])
        setup_host = HostSpeed(SETUP_KERNEL)
        setup = measure_setup(SETUP_FIRST, setup_host) if time_setup else []
        next_setup = SETUP_EVERY_S
        warmup = workloads.make_round(workload, seed, "warmup", tmpdir, sizes)
        play_round(cli, warmup[:WARMUP_CALLS])
        plain, traced, layer_rounds = [], [], []
        min_rounds = 2 if trace else 1
        index = measured = 0
        while index < min_rounds or measured < seconds:
            calls = workloads.make_round(workload, seed, index, tmpdir, sizes)
            if trace and index % 2 == 1:
                first_span = len(tracer.spans)
                tracer.install()
                try:
                    done = play_round(cli, calls, host, tracer)
                finally:
                    tracer.uninstall()
                traced.append(done)
                layer_rounds.append(tracing.layer_metrics(tracer.spans[first_span:]))
            else:
                done = play_round(cli, calls, host)
                plain.append(done)
            check_round(done, reference)
            measured += sum(r["seconds"] for r in done)
            index += 1
            while time_setup and measured >= next_setup:
                setup += measure_setup(1, setup_host)
                next_setup += SETUP_EVERY_S
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        records = [r for rnd in plain + traced for r in rnd]
        for rec in records:
            rec["scaled"] = rec["seconds"] * host.scale(rec["start"], rec["end"])
        for rec in setup:
            rec["scaled"] = rec["seconds"] * setup_host.scale(rec["start"], rec["end"])
        failures = [{"argv": r["argv"], "reason": r["error"]}
                    for r in records if r["error"] is not None]
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(TMP_DIR)
        except OSError:
            pass  # another run still uses it

    def round_walls(rounds, key="seconds"):
        return [sum(r[key] for r in rnd) for rnd in rounds]

    def timings(key):
        latencies = [r[key] for rnd in plain for r in rnd]
        return (statistics.median(round_walls(plain, key)),
                1e3 * statistics.median(latencies), 1e3 * _percentile(latencies, 95))


    def setup_median(key):
        return statistics.median(s[key] for s in setup) if setup else float("nan")

    raw_wall, raw_p50, raw_p95 = timings("seconds")
    wall, p50, p95 = timings("scaled")
    end_to_end = {
        "setup_s": setup_median("scaled"),
        "wall_s": wall,
        "query_p50_ms": p50,
        "query_p95_ms": p95,
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "fail_frac": len(failures) / len(records),
        "query_samples": sum(len(rnd) for rnd in plain),
        "host_factor": wall / raw_wall,
        "raw_setup_s": setup_median("seconds"),
        "raw_wall_s": raw_wall,
        "raw_query_p50_ms": raw_p50,
        "raw_query_p95_ms": raw_p95,
    }
    layers = {}
    if trace:
        layers = tracing.median_metrics(layer_rounds)
        layers["trace.overhead_frac"] = (
            statistics.median(round_walls(traced, "scaled")) / wall - 1.0)
    return {
        "attempted": len(records),
        "failed": len(failures),
        "end_to_end": end_to_end,
        "extra": extra,
        "layers": layers,
        "failures": failures,
        "setup_samples": [s["seconds"] for s in setup],
        "host_samples": len(host.samples),
        "rounds": {"untraced": len(plain), "traced": len(traced)},
        "round_walls": {"untraced": round_walls(plain), "traced": round_walls(traced)},
        "spans": tracer.dump() if tracer else [],
    }


def _fmt_table(values: dict, units: dict) -> list[str]:
    return [f"  {name:<30} {values[name]:>16.6g} {units[name]}" for name in units
            if name in values]


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not env.have_sources():
        print(f"error: no dqwalk sources under {env.SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    env.add_src_path()

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    environment = env.record()
    print(f"dqwalk benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} rounds={result['rounds']}")
    print("environment: " + json.dumps(environment, sort_keys=True))
    for failure in result["failures"][:10]:
        print(f"FAILED {' '.join(failure['argv'])}: {failure['reason']}")
    print("end to end (untraced rounds):")
    for line in _fmt_table({**result["end_to_end"], **result["extra"]},
                           {**END_TO_END_UNITS, **EXTRA_UNITS}):
        print(line)
    if args.trace:
        print("per layer (median over traced rounds):")
        for line in _fmt_table(result["layers"], LAYER_UNITS):
            print(line)

    os.makedirs(OUT_DIR, exist_ok=True)
    record_path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "environment": environment,
                   **result}, fh)
    print(f"record: {os.path.relpath(record_path, env.ROOT)}")

    values, units = ((result["layers"], LAYER_UNITS) if args.trace
                     else (result["end_to_end"], END_TO_END_UNITS))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
