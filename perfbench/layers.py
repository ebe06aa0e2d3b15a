"""Per-layer metrics and the kernel shape census, derived from spans.

Every figure is per traced pass: totals over the traced passes divided by
their number, so counts repeat exactly from run to run. Flops and bytes of
a kernel call are computed from its argument shapes (float64, each array
counted once), not measured.
"""

from collections import defaultdict
from math import prod
from statistics import median

from tracer import LAYERS, label

# (flops, bytes) of one call from the argument shapes
_LINEAR_WORK = {
    "matmul_nn": lambda a, b: (2 * a[0] * a[1] * b[1],
                               8 * (a[0] * a[1] + b[0] * b[1] + a[0] * b[1])),
    "matmul_tn": lambda a, b: (2 * a[0] * a[1] * b[1],
                               8 * (a[0] * a[1] + b[0] * b[1] + a[1] * b[1])),
    "matmul_nt": lambda a, b: (2 * a[0] * a[1] * b[0],
                               8 * (a[0] * a[1] + b[0] * b[1] + a[0] * b[0])),
    "matvec": lambda a, x: (2 * a[0] * a[1], 8 * (a[0] * a[1] + a[1] + a[0])),
    "matvec_t": lambda a, x: (2 * a[0] * a[1], 8 * (a[0] * a[1] + a[0] + a[1])),
    "colsum": lambda m: (m[0] * m[1], 8 * (m[0] * m[1] + m[1])),
}
# elementwise kernels that return a new array the size of their first input
_RETURNS_ARRAY = ("clip_sq_values", "clip_sq_cv_values")


def kernel_shapes(name, info):
    """Argument shapes of a kernel span; some spans carry counts as well."""
    return info[0] if name in ("kernels.volumize", "kernels.clip_sq_cv_values") else info


def kernel_work(kernel, shapes):
    if kernel in _LINEAR_WORK:
        return _LINEAR_WORK[kernel](*shapes)
    elems = sum(prod(s) for s in shapes)
    if kernel in _RETURNS_ARRAY:
        elems += prod(shapes[0])
    return 0, 8 * elems


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Span key -> duration minus the part its children cover."""
    children = defaultdict(list)
    for key, parent, _, t0, t1, _, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    return {key: (t1 - t0) - _covered(children.get(key, ()), t0, t1)
            for key, _, _, t0, t1, _, _ in spans}


def analyse(spans, n_passes, workers):
    """(per-layer metrics, census rows, sum of self times) per pass."""
    own = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    by_name = defaultdict(list)
    census = {}
    for span in spans:
        key, parent, name, t0, t1, _, info = span
        self_s[name] += own[key]
        calls[name] += 1
        by_name[name].append(span)
        if name.startswith("kernels.") and info is not None:
            kernel = name.split(".", 1)[1]
            shapes = kernel_shapes(name, info)
            row = census.setdefault((kernel, shapes), [0, 0.0, 0, 0])
            flops, nbytes = kernel_work(kernel, shapes)
            row[0] += 1
            row[1] += own[key]
            row[2] += flops
            row[3] += nbytes

    k = float(n_passes)
    m = {}

    def fn(name, *stats):
        for stat in stats:
            if stat == "self_s":
                m[f"{name}.self_s"] = self_s[name] / k
            elif stat == "calls":
                m[f"{name}.calls"] = calls[name] / k

    def work(name):
        kernel = name.split(".", 1)[1]
        flops = nbytes = 0
        for (kname, _), row in census.items():
            if kname == kernel:
                flops += row[2]
                nbytes += row[3]
        m[f"{name}.flops"] = flops / k
        m[f"{name}.bytes"] = nbytes / k

    for kernel in ("matmul_nn", "matmul_tn", "matmul_nt"):
        fn(f"kernels.{kernel}", "self_s", "calls")
        work(f"kernels.{kernel}")
    fn("kernels.colsum", "self_s", "calls")
    fn("net.loss_and_grad", "self_s")
    for kernel in ("adam_update", "laprop_update", "volumize"):
        fn(f"kernels.{kernel}", "self_s", "calls")
    fn("optimizers.step", "self_s")
    fn("volumization.apply_volumization", "self_s")
    vol = by_name["kernels.volumize"]
    scanned = sum(s[6][2] for s in vol)
    m["volumization.crossed_frac"] = sum(s[6][1] for s in vol) / scanned if scanned else 0.0
    fn("training.evaluate", "self_s")
    fn("net.forward", "self_s")

    fn("kernels.clip_sq_cv_values", "self_s", "calls")
    m["kernels.clip_sq_cv_values.bytes"] = sum(
        kernel_work("clip_sq_cv_values", s[6][0])[1] for s in by_name["kernels.clip_sq_cv_values"]) / k
    fn("kernels.clip_sq_values", "self_s")
    cv = by_name["kernels.clip_sq_cv_values"]
    drawn = sum(prod(s[6][0][0]) for s in cv)
    m["theory.mc.crossing_frac"] = sum(s[6][1] for s in cv) / drawn if drawn else 0.0
    fn("linalg.sample_uniform", "self_s")

    fn("kernels.flow_iter_identity", "self_s", "calls")
    flows = by_name["theory.gradient_flow_sim"]
    m["theory.gradient_flow_sim.iters"] = (
        sum(s[6] for s in flows) / len(flows) if flows else 0.0)

    fn("spectral.power_iteration_smax", "self_s")
    power = {s[0] for s in by_name["spectral.power_iteration_smax"]}
    matvecs = sum(1 for s in by_name["kernels.matvec"] if s[1] in power)
    m["spectral.power_iteration_smax.iters"] = matvecs / len(power) if power else 0.0
    fn("kernels.matvec", "self_s")
    fn("kernels.matvec_t", "self_s")
    fn("net.empirical_lipschitz", "self_s")

    fn("checkpoint.save_checkpoint", "self_s", "calls")
    m["checkpoint.save_checkpoint.bytes"] = sum(
        s[6] for s in by_name["checkpoint.save_checkpoint"]) / k
    fn("quantizer.quantize_network", "self_s")
    fn("quantizer.save_quantized_weights", "self_s")
    m["quantizer.save_quantized_weights.bytes"] = sum(
        s[6] for s in by_name["quantizer.save_quantized_weights"]) / k
    fn("csvio.write_csv", "self_s")
    m["csvio.write_csv.bytes"] = sum(s[6] for s in by_name["csvio.write_csv"]) / k

    fn("sweep.run_cell", "self_s")
    cells = [s[4] - s[3] for s in by_name["sweep.run_cell"]]
    m["sweep.cell_s_p50"] = median(cells) if cells else 0.0
    sweeps = sum(s[4] - s[3] for s in by_name["sweep.run_sweep"])
    m["sweep.worker_busy_frac"] = sum(cells) / (workers * sweeps) if sweeps else 0.0

    fn("data.gen_blobs", "self_s")

    for layer in LAYERS:
        prefix = label(layer) + "."
        m[f"{label(layer)}.self_s"] = sum(
            v for name, v in self_s.items() if name.startswith(prefix)) / k

    rows = [{"kernel": kernel, "shapes": [list(s) for s in shapes],
             "calls": row[0] / k, "self_s": row[1] / k,
             "flops_computed": row[2] / k, "bytes_computed": row[3] / k}
            for (kernel, shapes), row in census.items()]
    rows.sort(key=lambda r: -r["self_s"])
    return m, rows, sum(own.values()) / k
