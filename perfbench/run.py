#!/usr/bin/env python3
"""oridial benchmark: one workload, one seed, operations in one thread.

    python3 perfbench/run.py --workload plain-ladder --seed 1 --seconds 30 --trace 0

Workloads: plain-ladder, equivariant-bicomplex, degree1-roundtrip (see
README.md).  With ``--trace 0`` the run repeats whole rounds of the
workload's operations until ``--seconds`` have passed, checks every
result, and prints the end-to-end metrics.  Operation times are reported in
units of a reference computation timed right before and right after each
operation; the raw seconds go to standard error and the run file.  Set-up
time is measured in fresh interpreters, one after each round and at least
five in all.  With ``--trace 1`` it runs one warm-up round that checks
every result, then one round in which each operation runs untraced and then
traced, and prints the per-layer metrics.  The last line of standard output
is one JSON object; a wrong answer exits 1 without printing it.  Run files
go to ``.perfbench-out/`` at the root of the checkout.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUPS = 5          # fewest fresh-process set-ups per run; setup_s is their median
MIN_OPS = 100       # every run times at least this many operations
MIN_ROUNDS = 3
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def with_units(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json lists under ``kind``, each with its unit."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[kind]}


def import_engine():
    """Import oridial from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(src))
    try:
        import oridial
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import oridial from {src}: {exc}")
    if Path(oridial.__file__).resolve().parent != (src / "oridial").resolve():
        sys.exit(f"perfbench: oridial was imported from {oridial.__file__}, not {src}")


def setup(workload: str, seed: int, outdir: Path, trace: bool = False):
    """Imports, input generation, bundles on disk, warm tree tables.

    With ``trace`` the work after the imports runs under a tracer of its
    own, which is returned too: only here is tree enumeration cold.
    """
    import_engine()
    import inputs
    import workloads

    tracer = None
    if trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        wl = workloads.build(workload, seed)
        inputs.write_bundles(wl.instances, outdir)
        inputs.warm_trees()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wl, tracer


def fresh_setup_seconds(args, outdir: Path) -> float:
    """Time one set-up in a new interpreter, from spawn until it is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
           "--setup-only", str(outdir)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up process failed ({proc.returncode}): {err.strip()[-500:]}")
    return elapsed


def time_reference(refs: list) -> None:
    from reference import reference

    start = time.perf_counter()
    reference()
    refs.append(time.perf_counter() - start)


def run_round(wl, ctx, samples: dict, refs: list, tracer=None, untraced=None) -> int:
    """Advance every chain of the workload to its end; returns operations run.

    A reference is timed after every operation, and each sample keeps the
    index of that reference.  With a tracer, each operation runs twice back
    to back: untraced (its time goes to ``untraced``), then traced, and the
    traced result goes on.
    """
    gc.collect()
    ctx.failed = 0
    chains = wl.chains(ctx)
    random.Random(0).shuffle(chains)   # fixed order, the same for every seed
    pending = [(chain, chain.send(None)) for chain in chains]
    count = 0
    while pending:
        advanced = []
        for chain, op in pending:
            if tracer is not None:
                start = time.perf_counter()
                op.fn()
                untraced[op.key].append(time.perf_counter() - start)
                tracer.install()
            try:
                start = time.perf_counter()
                result = op.fn()
                samples[op.key].append((time.perf_counter() - start, len(refs)))
            finally:
                if tracer is not None:
                    tracer.uninstall()
            count += 1
            time_reference(refs)
            try:
                advanced.append((chain, chain.send(result)))
            except StopIteration:
                pass
        pending = advanced
    return count


def percentile(values: list, share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def measure(args, wl, rundir: Path) -> dict:
    from workloads import Context

    ctx = Context(rundir / "work")
    ctx.workdir.mkdir(parents=True)
    samples, refs = defaultdict(list), []
    time_reference(refs)   # so that every operation has a reference before it
    attempted = failed = rounds = 0
    setups = []
    start = time.perf_counter()
    while (time.perf_counter() - start - sum(setups) < args.seconds or attempted < MIN_OPS
           or rounds < MIN_ROUNDS):
        attempted += run_round(wl, ctx, samples, refs)
        failed += ctx.failed
        rounds += 1
        # one set-up after each round: the host's state lasts about a
        # second, so set-ups spread over the run meet it in several states
        setups.append(fresh_setup_seconds(args, rundir / f"setup-{rounds}"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setups) < SETUPS:
        setups.append(fresh_setup_seconds(args, rundir / f"setup-{len(setups) + 1}"))

    # each operation in units of the mean of the references timed right
    # before and right after it: the host's speed changes within a second,
    # so only adjacent timings share it
    ratios = [[2 * t / (refs[i - 1] + refs[i]) for t, i in v] for v in samples.values()]
    every_ratio = [r for v in ratios for r in v]
    values = {
        "setup_s": statistics.median(setups),
        "wall_ref": sum(statistics.median(v) for v in ratios),
        "op_ref.p50": statistics.median(every_ratio),
        "op_ref.p90": percentile(every_ratio, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }
    # raw seconds follow the host's speed state, so they are recorded, not gated
    per_op = {key: statistics.median(t for t, _ in v) for key, v in samples.items()}
    every_s = [t for v in samples.values() for t, _ in v]
    seconds = {"wall_s": sum(per_op.values()), "op_s.p50": statistics.median(every_s),
               "op_s.p90": percentile(every_s, 0.9)}
    print("perfbench: seconds: " + ", ".join(f"{k} {v:.4g}" for k, v in seconds.items()),
          file=sys.stderr)
    detail = {"rounds": rounds, "operations_per_round": attempted // rounds,
              "reference_s": statistics.median(refs), "setups_s": setups, "seconds": seconds,
              "per_op_median_s": per_op, "samples": samples, "refs": refs}
    return {"attempted": attempted, "failed": failed,
            "metrics": with_units(values, "end_to_end"), "detail": detail}


def traced(args, wl, rundir: Path, setup_tracer) -> dict:
    from layers import Tracer
    from workloads import Context

    ctx = Context(rundir / "work")
    ctx.workdir.mkdir(parents=True)
    run_round(wl, ctx, defaultdict(list), [])   # warm-up; checks every result
    tracer = Tracer()
    spans, untraced = defaultdict(list), defaultdict(list)
    attempted = run_round(wl, ctx, spans, [], tracer, untraced)
    # each operation's untraced twin ran right before it, in the same host state
    untraced_s = sum(v[0] for v in untraced.values())
    traced_s = sum(v[0][0] for v in spans.values())
    share = traced_s / untraced_s - 1
    values = tracer.metrics()
    # the round only looks trees up; the set-up enumerated them cold
    values["trees.enumerate_s"] += setup_tracer.self_s["trees.enumerate"]
    detail = {"untraced_wall_s": untraced_s, "traced_wall_s": traced_s,
              "overhead_s": traced_s - untraced_s, "overhead_share": share}
    print(f"trace overhead: {traced_s - untraced_s:.3f} s ({share:.1%}) on {untraced_s:.3f} s untraced",
          file=sys.stderr)
    return {"attempted": attempted, "failed": ctx.failed,
            "metrics": with_units(values, "per_layer"), "detail": detail}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_only:
        setup(args.workload, args.seed, Path(args.setup_only))
        print("ready", flush=True)
        return 0

    rundir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    wl, setup_tracer = setup(args.workload, args.seed, rundir / "inputs", bool(args.trace))
    setup_s = time.perf_counter() - _STARTED
    from oridial.linalg import kernel_backend
    from verify import CheckFailure

    # the compiled kernels, when built in place, change the figures a lot
    backend = kernel_backend()
    print(f"perfbench: oridial row-reduction backend: {backend}", file=sys.stderr)
    try:
        if args.trace:
            result = traced(args, wl, rundir, setup_tracer)
        else:
            result = measure(args, wl, rundir)
    except CheckFailure as exc:
        print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
        return 1
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "kernel_backend": backend, "main_setup_s": setup_s, **result}
    name = "trace" if args.trace else "run"
    (OUT / f"{name}-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
