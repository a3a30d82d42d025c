"""leakyslab benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload spectrum|crosscheck|cli --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ./src.  The
run prints a readable report, then as its last line a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics, measured from spans kept in memory and
written to .bench_out/ at the end.  See bench/README.md.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here: imports included

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5  # set-ups per run: this process plus four fresh interpreters
CLI_IMPORT_SAMPLES = 3
WINDOW_S = 2.0  # op time per window of ops_per_s
# Work counts derived from the arguments of the calls, not measured.
COMPUTED_COUNTS = ("scattering.points", "shift.points", "shift.wavepacket_shift.phase_elems",
                   "bpm.measure_decay.steps", "bpm.measure_decay.cells")


def import_library():
    """Import leakyslab from ./src; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "leakyslab" / "__init__.py").is_file():
        sys.exit(f"error: no leakyslab sources under {src}")
    sys.path.insert(0, str(src))
    import leakyslab

    if Path(leakyslab.__file__).resolve().parent != src / "leakyslab":
        sys.exit(f"error: imported leakyslab from {leakyslab.__file__}, not {src}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("spectrum", "crosscheck", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up and print its time (used for setup_s samples)")
    return p.parse_args(argv)


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k, "unset")
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def setup_samples(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True,
                              timeout=120)
        out.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return out


def per_layer(wl, tracer, ops: int, latencies) -> dict:
    """Per-op self times and work counts from the traced run's spans."""
    import workloads

    self_s = tracer.self_times()
    counts = tracer.counts
    out = {}
    for name in ("resonances.count_leaky_modes", "resonances.refine_all",
                 "scattering.transmission_sweep", "shift.width_sweep", "shift.shift_sweep",
                 "shift.wavepacket_shift", "bpm.measure_decay", "bpm.tapered_mode_column",
                 "fields.mode_profile", "fields.propagate_mode", "fbw.fbw_superposition"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / ops
    for name in COMPUTED_COUNTS:
        out[name] = counts.get(name, 0.0) / ops
    checked = counts.get("checked", 0.0)  # counts made by the checks are per checked input
    out["resonances.roots"] = counts.get("resonances.roots", 0.0) / checked if checked else 0.0
    seeds = counts.get("resonances.seeds", 0.0)
    out["resonances.distinct_ratio"] = counts["resonances.distinct_valid"] / seeds if seeds else 0.0
    steps = counts.get("bpm.measure_decay.steps", 0.0)
    out["bpm.measure_decay.s_per_step"] = (
        self_s.get("bpm.measure_decay", 0.0) / steps if steps else 0.0)
    for kind in workloads.CLI_KINDS:
        calls = counts.get(f"cli.{kind}.calls", 0.0)
        mains = tracer.durations(f"cli.{kind}.main")
        out[f"cli.{kind}.main_s"] = statistics.fmean(mains) if mains else 0.0
        out[f"cli.{kind}.bytes"] = counts.get(f"cli.{kind}.bytes", 0.0) / calls if calls else 0.0
    out["cli.import_s"] = (
        statistics.median(wl.import_seconds() for _ in range(CLI_IMPORT_SAMPLES))
        if wl.name == "cli" else 0.0)
    out["trace.latency_p50_s"] = statistics.median(latencies)
    out["trace.spans_per_op"] = sum(1 for s in tracer.spans if s[4] is not None) / ops
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_library()
    import workloads

    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    workdir = OUT / f"work-{os.getpid()}"
    if args.workload == "spectrum":
        wl = workloads.Spectrum(args.seed, tracer)
    elif args.workload == "crosscheck":
        wl = workloads.Crosscheck(args.seed, tracer)
    else:
        wl = workloads.Cli(args.seed, tracer, ROOT, workdir)
    try:
        wl.setup()
        pool = [wl.next_input() for _ in range(wl.pool_size)]
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, spec, wl, pool, tracer, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def attempt(wl, inp):
    """Run one op: its wall time and its result, or the error it raised."""
    from leakyslab import LeakySlabError

    start = time.perf_counter()
    try:
        with wl.tracer.span("op"):
            result = wl.run(inp)
    except (ValueError, LeakySlabError) as exc:  # a failed op, not a failed run
        result = exc
    return time.perf_counter() - start, result


def verdict(wl, inp, result) -> list:
    """The failures of one op's result; an op that raised has failed."""
    import workloads

    if isinstance(result, Exception):
        return [workloads.Failure("raised", f"{type(result).__name__}: {result}",
                                  wrong_value=False)]
    with wl.tracer.span("check"):
        wl.tracer.count("checked", 1)
        return wl.check(inp, result)


def measure(args, spec, wl, pool, tracer, setup_s) -> int:
    """Cycle over the seeded input pool for ``args.seconds`` and check each input once.

    The ``i``-th op runs ``pool[i % len(pool)]``.  Each input is checked the
    first time it runs; inputs the timed loop did not reach run untimed
    afterwards.  ``attempted`` and ``failed`` count the inputs of the pool,
    so they depend on the seed alone, not on how fast the machine was.
    """
    import workloads

    latencies, kinds, failures = [], [], []
    elapsed = 0.0
    while elapsed < args.seconds or not latencies or len(latencies) % wl.round_size:
        i = len(latencies) % len(pool)
        inp = pool[i]
        kinds.append(getattr(inp, "kind", None))
        tracer.op_id = len(latencies)
        latency, result = attempt(wl, inp)
        latencies.append(latency)
        elapsed += latency
        if tracer.op_id < len(pool):
            found = verdict(wl, inp, result)
            if found:
                failures.append((i, found))
    tracer.op_id = None
    ops = len(latencies)
    wl.tracer = spans.NullTracer()  # the rest of the pool is neither timed nor traced
    for i in range(ops, len(pool)):
        found = verdict(wl, pool[i], attempt(wl, pool[i])[1])
        if found:
            failures.append((i, found))
    if wl.name == "cli":
        peak_rss_mb = wl.peak_rss_mb
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    probe_failures = []
    if args.trace:
        values = per_layer(wl, tracer, ops, latencies)
        table = spec["per_layer"]
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        decay, shift, probe_failures = workloads.accuracy_probe(
            workloads.reference_modes(), spans.NullTracer())
        setups = [setup_s, *setup_samples(args)]
        values = end_to_end(latencies, wl.round_size, len(failures), len(pool), setups,
                            peak_rss_mb, decay, shift)
        table = spec["end_to_end"]

    wrong = [f for _, found in failures for f in found if f.wrong_value] + probe_failures
    report(args, wl, len(pool), elapsed, latencies, kinds, failures, probe_failures, values, table)
    print(json.dumps(result_line(table, values, len(pool), len(failures), correct=not wrong)))
    return 0


def throughput(latencies, round_size: int) -> float:
    """Median ops per second of op time over consecutive windows of the timed loop.

    A window closes once it holds whole rounds and at least ``WINDOW_S`` of
    op time; a shorter tail is dropped unless it is the only window.  The
    median keeps a slow stretch of the machine that covers less than half
    of the run out of the figure, as ``latency_p50_s`` does.
    """
    rates, n, t = [], 0, 0.0
    for latency in latencies:
        n, t = n + 1, t + latency
        if t >= WINDOW_S and n % round_size == 0:
            rates.append(n / t)
            n, t = 0, 0.0
    return statistics.median(rates) if rates else n / t


def end_to_end(latencies, round_size, failed, attempted, setups, peak_rss_mb, decay,
               shift) -> dict:
    """End-to-end metric values of one run; ``failed`` of ``attempted`` pool inputs failed."""
    return {
        "latency_p50_s": statistics.median(latencies),
        "ops_per_s": throughput(latencies, round_size),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - failed / attempted,
        "decay_rel_err": statistics.median(decay),
        "shift_rel_err": statistics.median(shift),
    }


def result_line(table, values, attempted, failed, correct) -> dict:
    """The result object: every metric of ``table`` with the unit BENCHMARK.json gives it."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table},
    }


def report(args, wl, attempted, elapsed, latencies, kinds, failures, probe_failures, values,
           table):
    print(f"# leakyslab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# machine: {json.dumps(machine(), sort_keys=True)}")
    ops = len(latencies)
    print(f"ops={ops} timed={elapsed:.3f} s ops/timed={ops / elapsed:.4f}/s; "
          f"inputs={attempted} failed={len(failures)} "
          f"failed_frac={len(failures) / attempted:.6f}")
    if ops >= 100:  # p90 only with at least ten samples beyond it
        print(f"latency_p90_s={statistics.quantiles(latencies, n=10)[-1]:.6f} s (n={ops})")
    for kind in sorted(set(kinds) - {None}):
        own = [lat for k, lat in zip(kinds, latencies) if k == kind]
        print(f"{kind}: n={len(own)} latency_p50_s={statistics.median(own):.4f}")
    for i, found in failures[:10]:
        for f in found:
            kind = "wrong value" if f.wrong_value else "failed"
            print(f"input {i}: {kind}: {f.check}: {f.detail}")
    for f in probe_failures:
        print(f"accuracy probe: wrong value: {f.check}: {f.detail}")
    if getattr(wl, "errors", None):
        for m, d, s in wl.errors:
            print(f"crosscheck m={m}: decay_rel_err={d:.4f} shift_rel_err={s:.4f}")
    for m in table:
        label = " (computed)" if m["name"] in COMPUTED_COUNTS else ""
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}{label}")
    if args.trace:
        print("dropped: core has no span (under 1% of every workload); "
              "idle layers read 0 on this workload")


if __name__ == "__main__":
    sys.exit(main())
