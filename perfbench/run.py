"""The volumize benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; volumize is imported from its ``src``.
One run sets up, makes one untraced warm-up pass over the workload's
operations, then repeats passes (a closed loop) until ``--seconds`` have
gone by. With ``--trace 0`` it reports the end-to-end metrics that
BENCHMARK.json lists; with ``--trace 1`` it alternates traced and untraced
passes and reports the per-layer metrics. Every operation is checked
(built-in checks, packed-weight round trip, output digests) and counted in
``attempted`` and ``failed``. The last line of standard output is the JSON
result; the lines before it are a readable report. A fuller record, spans
included, goes to ``.perfbench_out/``.
"""

import argparse
import functools
import importlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from statistics import median

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 7


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up once, print 'ready' and exit (times set-up)")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        ap.error("--seed must fit in 64 unsigned bits")
    return args


def import_volumize():
    """The volumize package of this checkout, every layer module imported."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "volumize", "__init__.py")):
        raise ImportError(f"no volumize package under {src}")
    sys.path.insert(0, src)
    import volumize
    from tracer import LAYERS
    for layer in LAYERS + ("config",):
        importlib.import_module(f"volumize.{layer}")
    return volumize


def measure_setup(args):
    """Median wall time of fresh processes that import volumize and build
    the workload's inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return median(times), times


def environment(vz):
    """Backend, versions, CPU count and cache sizes (from /proc and /sys)."""
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            def read(name, index=index):
                with open(os.path.join(base, index, name), encoding="utf-8") as f:
                    return f.read().strip()
            if read("type") != "Instruction":
                caches[f"L{read('level')}"] = read("size")
        except OSError:
            continue
    return {
        "backend": vz.backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2": caches.get("L2", ""),
        "l3": caches.get("L3", ""),
    }


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def load_recorded_digests(workload, seed):
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as f:
        return json.load(f).get(workload, {}).get(str(seed), {})


def check_pass(results, reference, recorded):
    """Fail an operation whose output bytes differ from the warm-up pass or
    from the digest recorded for this seed."""
    for i, r in enumerate(results):
        if reference is not None and r.digest != reference[i].digest:
            r.ok, r.note = False, "output differs from the warm-up pass"
        if r.name in recorded and r.digest != recorded[r.name]:
            r.ok, r.note = False, "output differs from the recorded digest"
    return results


def measure_untraced(vz, wl, deadline, check, spool):
    """Passes with the step clock until the deadline.

    Pass times are reported at their slow quartile and step times at p75
    and p90, the figures that hold still while the host's speed drifts
    (README, "Bounds and run length"); the medians go to the report.

    Returns (passes, {metric: (value, sample count)}, report figures)."""
    from steps import StepClock
    from workloads import pass_rate, pass_seconds, percentiles_ms
    clock = StepClock(vz, spool)
    clock.install()
    passes = []
    try:
        while not passes or time.perf_counter() < deadline:
            passes.append(check(wl.run_pass()))
            clock.collect_workers()
    finally:
        clock.uninstall()
    seconds = [pass_seconds(p) for p in passes]
    rates = [pass_rate(p) for p in passes]
    p50, p75, p90 = percentiles_ms(clock.steps, (50, 75, 90))
    n, n_steps = len(passes), len(clock.steps)
    values = {
        "wall_s_p75": (float(np.percentile(seconds, 75)), n),
        "samples_per_s_p25": (float(np.percentile(rates, 25)), n),
        "step_ms_p75": (p75, n_steps),
        "step_ms_p90": (p90, n_steps),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }
    medians = [("wall_s_p50", median(seconds), "s", n),
               ("step_ms_p50", p50, "ms", n_steps)]
    return passes, values, medians + wl.extra_metrics(passes, clock), seconds


def measure_traced(vz, wl, deadline, check, spool):
    """Traced and untraced passes in turn until the deadline, at least one
    of each.

    Returns (passes, {metric: (value, sample count)}, census, spans)."""
    from layers import analyse
    from tracer import Tracer
    from workloads import pass_seconds
    tracer = Tracer(vz, spool)
    traced, untraced, spans = [], [], []
    while not traced or not untraced or time.perf_counter() < deadline:
        if len(traced) <= len(untraced):
            tracer.install()
            try:
                results = wl.run_pass()
            finally:
                tracer.uninstall()
            spans.extend(tracer.take())
            traced.append(check(results))
        else:
            untraced.append(check(wl.run_pass()))
    per_layer, census, self_sum = analyse(spans, len(traced), wl.workers)
    traced_wall = median(pass_seconds(p) for p in traced)
    untraced_wall = median(pass_seconds(p) for p in untraced)
    per_layer.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.self_sum_s": self_sum,
    })
    values = {name: (v, len(traced)) for name, v in per_layer.items()}
    return traced + untraced, values, census, spans


def print_report(args, environment_record, wanted, values, extras, ops, census):
    failed = [r for r in ops if not r.ok]
    print(f"volumize benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {len(ops)} operations, {len(failed)} failed")
    print("env " + json.dumps(environment_record, sort_keys=True))
    rows = [(m["name"], values[m["name"]][0], m["unit"], values[m["name"]][1])
            for m in wanted]
    for name, value, unit, n in rows + extras:
        print(f"  {name:<42} {value:>16.6g} {unit:<14} n={n}")
    for r in failed:
        print(f"  FAILED {r.name}: {r.note}")
    for row in census[:12]:
        print(f"  census {row['kernel']:<20} {str(row['shapes']):<32} "
              f"calls={row['calls']:g} self_s={row['self_s']:.4f} "
              f"flops={row['flops_computed']:g} bytes={row['bytes_computed']:g}")


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        vz = import_volumize()
    except ImportError as exc:
        print(f"cannot import volumize from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]

    if args.setup_probe:
        workload_cls(vz, args.seed, None).inputs()
        print("ready", flush=True)
        return 0

    setup_s, setup_samples = measure_setup(args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    spool = os.path.join(run_dir, "spool")
    os.makedirs(spool)
    wl = workload_cls(vz, args.seed, os.path.join(run_dir, "work"))
    wl.inputs()
    recorded = load_recorded_digests(args.workload, args.seed)

    reference = check_pass(wl.run_pass(), None, recorded)
    deadline = time.perf_counter() + args.seconds
    check = functools.partial(check_pass, reference=reference, recorded=recorded)
    census, spans, pass_s = [], None, []
    if args.trace:
        passes, values, census, spans = measure_traced(vz, wl, deadline, check, spool)
        extras = []
    else:
        passes, values, extras, pass_s = measure_untraced(vz, wl, deadline, check, spool)
        values["setup_s"] = (setup_s, len(setup_samples))
    ops = reference + [r for p in passes for r in p]
    attempted = len(ops)
    failed = sum(1 for r in ops if not r.ok)
    extras.append(("failed_ops_frac", failed / attempted, "ratio", attempted))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    environment_record = environment(vz)
    print_report(args, environment_record, wanted, values, extras, ops, census)

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment_record,
        "digests": {r.name: r.digest for r in reference},
        "attempted": attempted, "failed": failed,
        "failures": [{"op": r.name, "note": r.note} for r in ops if not r.ok],
        "setup_samples_s": setup_samples,
        "metrics": {k: {"value": v, "n": n} for k, (v, n) in values.items()},
        "workload_metrics": {name: {"value": v, "unit": u, "n": n}
                             for name, v, u, n in extras},
        "pass_s": pass_s,
        "census": census,
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    if spans is not None:
        with open(os.path.join(OUT, f"spans-{tag}.jsonl"), "w", encoding="utf-8") as f:
            for span in spans:
                f.write(json.dumps(span) + "\n")
    shutil.rmtree(run_dir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
