"""Benchmark of the memdenoise command line on a synthetic digit corpus.

    python3 perfbench/run.py --workload train_bank --seed 1 --seconds 36 --trace 0

Run it from anywhere inside a checkout; it finds the package in the
checkout's ``src/``. A run writes a seeded procedural corpus (SYNTHETIC,
see corpus.py) and the workload's prerequisite checkpoints, repeating
that set-up SETUP_REPEATS times, then runs passes of the workload's CLI
operations until ``--seconds`` is used up, checking every pass's outputs.
The last line of standard output is one JSON object: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics from
traced passes alternated with untraced ones. ``--workload all`` runs
every workload in turn. Scratch files go to ``.bench_work/<workload>/``.
"""

import os
import sys

# Pinned before numpy is first imported, so every run uses the same
# BLAS thread count whatever the caller's environment says.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
GOLDEN = os.path.join(HERE, "golden.json")
DEFAULT_SEED = 1
SETUP_REPEATS = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "images_per_s": "images/s",
              "peak_rss_mb": "MB"}
# Times of single operations. Each exists on one workload only, so they
# are per-layer metrics (zero elsewhere) and are printed, not gated.
FLOWS = ("train_dense_s", "train_fusion_s", "train_cnn_s", "sweep_s",
         "classify_s")


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    return "ratio" if name.endswith("_frac") else "count"


def reset_peak_rss():
    """Start a new resident-set peak for this process (Linux VmHWM).

    False where the kernel does not allow it; the peak then also covers
    everything the process did before.
    """
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb():
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def environment(seed):
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "seed": seed}


class Pass:
    """One pass over a workload's operations."""

    def __init__(self, times, failed, findings, layer=None, traced_wall=0.0):
        self.times = times            # op name -> seconds
        self.failed = failed          # op name -> reason
        self.findings = findings
        self.layer = layer            # per-layer metrics when traced
        self.traced_wall = traced_wall

    @property
    def wall(self):
        return sum(self.times.values())


def run_pass(workload, ops, tracer):
    from tracing import ROOT_SPAN
    from workloads import invoke
    times, failed = {}, {}
    first = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.install()
    try:
        for op in ops:
            if tracer:
                tracer.begin(ROOT_SPAN)
            start = time.perf_counter()
            ok, message = invoke(op.argv)
            times[op.name] = time.perf_counter() - start
            if tracer:
                tracer.end()
            if not ok:
                failed[op.name] = message
    finally:
        if tracer:
            tracer.uninstall()
    layer, traced_wall = tracer.pass_metrics(first) if tracer else (None, 0.0)
    findings = workload.check()
    for op, message in findings.failures:
        failed.setdefault(op, message)
    return Pass(times, failed, findings, layer, traced_wall)


def fresh_dir(path):
    os.chdir(ROOT)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    os.chdir(path)


def load_golden(name, seed, size):
    """Golden digests for this workload, or None when they do not apply."""
    if seed != DEFAULT_SEED or size != "full":
        return None
    with open(GOLDEN) as f:
        golden = json.load(f)
    return golden["digests"].get(name, {})


def verify_digests(passes, golden):
    """Fail each op whose artifact differs from golden or from pass one."""
    expected = golden if golden is not None else passes[0].findings.digests
    for p in passes:
        found = p.findings
        for path, digest in found.digests.items():
            want = expected.get(path)
            if want is None:
                p.failed.setdefault(found.owner[path],
                                    f"{path}: no golden digest")
            elif digest != want:
                source = "golden" if golden is not None else "first pass"
                p.failed.setdefault(found.owner[path],
                                    f"{path}: digest differs from {source}")


def run_workload(name, seed, seconds, traced, size, golden=True):
    import tracing
    import workloads
    from memdenoise import hwcost

    work = os.path.join(WORK, name)
    workload = workloads.WORKLOADS[name](seed, size)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        fresh_dir(work)
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)

    ops = workload.ops()
    tracer = tracing.Tracer() if traced else None
    passes = []
    # peak_rss_mb covers the measured phase only: not the set-ups, nor
    # workloads run before this one by `--workload all`.
    if not reset_peak_rss():
        print(f"{name}: cannot reset the resident-set peak; peak_rss_mb "
              "covers the whole process", file=sys.stderr)
    start = time.perf_counter()
    while True:
        use = tracer if traced and len(passes) % 2 == 1 else None
        passes.append(run_pass(workload, ops, use))
        elapsed = time.perf_counter() - start
        # Start another pass only if it should end within --seconds.
        if (len(passes) >= (2 if traced else 1)
                and elapsed * (len(passes) + 1) / len(passes) > seconds):
            break
    peak_mb = peak_rss_mb()

    verify_digests(passes, load_golden(name, seed, size) if golden else None)
    attempted = len(ops) * len(passes)
    failed = sum(len(p.failed) for p in passes)
    for i, p in enumerate(passes):
        for op, message in p.failed.items():
            print(f"{name}: pass {i} {op} failed: {message}", file=sys.stderr)

    plain = [p for p in passes if p.layer is None]
    flows = {op.flow: statistics.median(p.times[op.name] for p in plain)
             for op in ops if op.flow}
    wall = statistics.median(p.wall for p in plain)
    if traced:
        layered = [p for p in passes if p.layer is not None]
        metrics = {key: statistics.median(p.layer[key] for p in layered)
                   for key in layered[0].layer}
        metrics.update({flow: flows.get(flow, 0.0) for flow in FLOWS})
        metrics["trace.overhead_frac"] = (
            statistics.median(p.wall for p in layered) / wall - 1.0)
        metrics["hwcost.count_tiles"] = hwcost.count_tiles(*tracing.DENSE_ARRAY)
    else:
        images = sum(op.images for op in ops)
        metrics = {"setup_s": statistics.median(setup_times), "wall_s": wall,
                   "images_per_s": images / wall,
                   "peak_rss_mb": peak_mb}

    record = {
        "workload": name, "size": size, "environment": environment(seed),
        "setup_s": setup_times, "passes": [
            {"traced": p.layer is not None, "times": p.times,
             "failed": p.failed, "traced_wall_s": p.traced_wall,
             "layer": p.layer} for p in passes],
        "flows": flows, "attempted": attempted, "failed": failed,
        "digests": passes[0].findings.digests, "metrics": metrics,
        "absent": sorted(tracer.absent) if tracer else [],
    }
    os.chdir(work)
    with open("result.json", "w") as f:
        json.dump(record, f, indent=1)
    if tracer:
        tracer.write("spans.json")
    os.chdir(ROOT)

    print(f"{name}: env {json.dumps(record['environment'])}")
    print(f"{name}: {len(passes)} passes, ops {attempted} count, "
          f"ops_failed {failed} count")
    shown = dict(metrics) if traced else {**metrics, **flows}
    for key, value in shown.items():
        print(f"{name}: {key} {value:.6g} {unit_of(key)}")
    for key in record["absent"]:
        print(f"{name}: {key} absent (entry point missing)")
    return record


def record_golden(records):
    with open(GOLDEN) as f:
        golden = json.load(f)
    for rec in records:
        golden["digests"][rec["workload"]] = rec["digests"]
    golden["environment"] = records[0]["environment"]
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: tiny inputs that only exercise the paths")
    parser.add_argument("--record-golden", action="store_true",
                        help="store this run's digests as the golden ones "
                             f"(seed {DEFAULT_SEED}, full size)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "memdenoise", "cli.py")):
        print(f"perfbench: no memdenoise sources under {SRC}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import memdenoise
    import workloads
    if not os.path.abspath(memdenoise.__file__).startswith(SRC + os.sep):
        print(f"perfbench: memdenoise imported from {memdenoise.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    if args.record_golden and (args.seed != DEFAULT_SEED or args.size != "full"):
        parser.error(f"--record-golden needs --seed {DEFAULT_SEED} and full size")

    records = [run_workload(name, args.seed, args.seconds, bool(args.trace),
                            args.size, golden=not args.record_golden)
               for name in names]
    if args.record_golden:
        record_golden(records)
    prefix = len(records) > 1
    metrics = {(f"{r['workload']}." if prefix else "") + key:
               {"value": value, "unit": unit_of(key)}
               for r in records for key, value in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
