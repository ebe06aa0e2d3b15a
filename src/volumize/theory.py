"""Teacher-student lab for wall-constrained linear regression.

Setup: teacher weights u ~ Unif(-a, a) per coordinate, labels shift the
effective target to u' = u + eta with eta either Unif(-sigma, sigma) or
Cauchy(scale sigma). Inputs are whitened, so the student's residual flow
is w' = -(w - u'), one coordinate at a time; the lab models only that case.
A student trained to convergence with a hard clip (alpha = 0) at walls +-V
lands exactly at w = clip(u', -V, V); its per-parameter generalization
error is E[(w - u)^2].

Closed form (uniform noise, 0 <= sigma <= a, c = a - V):

    V >= a+sigma            sigma^2/3
    a-sigma <= V < a+sigma  sigma^2/3 + (c+sigma)^3 (c-sigma) / (12 a sigma)
    0 <= V < a-sigma        sigma^2/3 + c (c^2 - sigma^2) / (3 a)

derived by integrating the crossing tails of (clip(u+eta, V) - u)^2. Sanity
anchors: V=0 gives a^2/3 (constant student), V -> inf gives sigma^2/3 (no
walls), the minimum sits at V* = a - sigma/2 with value
(1 - 27 sigma/(64 a)) * sigma^2/3, and the curve returns to sigma^2/3 at
both V = a-sigma and V = a+sigma, staying strictly below in between.

Monte-Carlo estimates use the same clip semantics on fresh draws. For
uniform noise the estimator subtracts the known-mean control
variate eta^2 (adding back sigma^2/3), which leaves exactly the crossing
contribution to be sampled; near V = a+sigma that shrinks the standard
error by orders of magnitude and is what makes three-sigma interval checks
feasible at sane sample counts.

Every point of an MC grid draws from its own stable_hash-derived Philox
stream, so the points are independent tasks. estimate_points maps an
estimator over them through _pool.map_ordered, on one forked worker per
available CPU (the affinity mask, capped by a cgroup CPU quota):
_clip_curves, which builds mc_curves' curves and fig4b's wall curve, maps
the clip_error_mc points of all its curves through one such call, and
theorem3 maps its weight_decay_error_mc points the same way. The results,
and so the CSV bytes, never depend on that count. Once a point fails no
further point starts, and the error raised is the one the in-process loop
would raise.

A gradient flow runs in the calling process. From _kernels._BLOCK
coordinates up, and when a CPU is spare, it is split with one forked
helper process over three buffers in shared memory, w, the teacher u and
u' (flow_space). The helper owns the upper part of the coordinates from
the draw to the error, the caller the lower part: each draws its part of
u and u' from cursors on the flow's stream (SeededRng.ahead), updates it
on every iteration, and sums its part of (w - u)**2. The parts meet at
numpy's pairwise split point, so the error is np.mean's, and the caller's
stream ends where one whole draw leaves it. So the caller touches only
its part of the buffers, and the bits are those of one process. A table
of flows (flow_curve, theorem3) runs its flows one after another in one
space, so it forks one helper. theorem3 runs its flows before its
estimates: run beside the split flows, the estimates slowed them.

Both estimators stream through one core, _estimate: it draws, transforms
and sums one block of at most _kernels._BLOCK samples at a time, into u,
eta and value blocks that a process allocates once (_kernels._block), so
an estimate holds a few blocks whatever its n and allocates none after a
process's first. The bits are those of whole-array draws and
sums. clip_error_mc takes its samples in segments of _MC_CHUNK,
weight_decay_error_mc in one segment of n. A segment draws its teacher
values and then its noise, so a block reads u from the rng and eta from a
cursor placed the segment's length ahead (SeededRng.ahead). The blocks are
the leaves of numpy's own pairwise-sum tree over the segment
(_tree_moments), so np.sum of each block, added up that tree, gives np.sum
of the whole segment; the segment sums add in order.
"""

import contextlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels, _pool
from .errors import ConfigError, DomainError, NumericError, ShapeError
from .linalg import SeededRng, sample_cauchy, sample_uniform, stable_hash

NOISE_KINDS = ("uniform", "cauchy")
# clip_error_mc's summation segment: the bits of larger n depend on it
_MC_CHUNK = 1 << 22
_FLOW_MAX_STEPS = 100000
_FLOW_TOL = 1e-10


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = "uniform"
    sigma: float = 1.0  # half-width (uniform) or scale (cauchy)

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"noise kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        if self.kind == "uniform" and not 0 <= self.sigma < math.inf:
            raise DomainError(f"uniform noise needs a finite sigma >= 0, got {self.sigma}")
        if self.kind == "cauchy" and not 0 < self.sigma < math.inf:
            raise DomainError(f"cauchy noise needs a finite scale > 0, got {self.sigma}")


@dataclass(frozen=True, eq=False)
class TeacherStudentProblem:
    dim: int
    a: float = 1.0
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self):
        if self.dim <= 0:
            raise DomainError(f"dim must be positive, got {self.dim}")
        if not self.a > 0:
            raise DomainError(f"a must be positive, got {self.a}")

    def draw(self, rng: SeededRng, n: int):
        """n draws of (u, eta): the teacher u ~ Unif(-a, a) first, then the
        noise (zeros when uniform with sigma 0)."""
        u = sample_uniform(rng, -self.a, self.a, n)
        return u, self._draw_noise(rng, n, np.empty(n))

    def _draw_noise(self, rng: SeededRng, n: int, out):
        """n noise draws from rng, written into out and returned: zeros,
        drawing nothing, when sigma is 0 (which only uniform noise allows)."""
        sigma = self.noise.sigma
        if sigma == 0.0:
            out.fill(0.0)
            return out
        if self.noise.kind == "cauchy":
            return sample_cauchy(rng, sigma, n, out=out)
        return sample_uniform(rng, -sigma, sigma, n, out=out)


def _check_uniform_domain(a: float, sigma: float):
    if not a > 0:
        raise DomainError(f"a must be positive, got {a}")
    if not 0 <= sigma <= a:
        raise DomainError(f"uniform closed form needs 0 <= sigma <= a, got sigma={sigma}, a={a}")


def clip_error_closed_form(a: float, sigma: float, vol: float) -> float:
    """Per-parameter error of the clipped student, uniform noise."""
    _check_uniform_domain(a, sigma)
    if not vol >= 0:
        raise DomainError(f"vol must be >= 0, got {vol}")
    base = sigma * sigma / 3.0
    if vol >= a + sigma:
        return base
    c = a - vol
    if vol >= a - sigma:
        # sigma > 0 here: sigma == 0 collapses this branch into the one above
        return base + (c + sigma) ** 3 * (c - sigma) / (12.0 * a * sigma)
    return base + c * (c * c - sigma * sigma) / (3.0 * a)


def optimal_volume(a: float, sigma: float):
    """(argmin V*, minimum error) of the closed-form curve: V* = a - sigma/2."""
    _check_uniform_domain(a, sigma)
    vol = a - sigma / 2.0
    err = (1.0 - 27.0 * sigma / (64.0 * a)) * sigma * sigma / 3.0
    return vol, err


def weight_decay_optimum(a: float, sigma: float):
    """(optimal decay lambda, its error) for multiplicative shrinkage.

    Shrinkage w = u'/(1+lambda) has error (sigma^2 + lambda^2 a^2) /
    (3 (1+lambda)^2), minimized at lambda = sigma^2/a^2 with value
    sigma^2 a^2 / (3 (sigma^2 + a^2)).
    """
    _check_uniform_domain(a, sigma)
    lam = sigma * sigma / (a * a)
    err = sigma * sigma * a * a / (3.0 * (sigma * sigma + a * a))
    return lam, err


def alpha_for_weight_decay(lam: float, step: float) -> float:
    """Per-iteration alpha whose V=0 transform matches decay rate lam.

    An Euler step of size s followed by w <- alpha*w has fixed point
    u' * alpha*s / (1 - alpha + alpha*s); alpha = 1/(1 + lam*s) makes that
    exactly u'/(1 + lam), the continuous-flow shrinkage solution.
    """
    if not lam >= 0:
        raise DomainError(f"lam must be >= 0, got {lam}")
    if not step > 0:
        raise DomainError(f"step must be positive, got {step}")
    return 1.0 / (1.0 + lam * step)


@dataclass(frozen=True)
class McEstimate:
    value: float
    stderr: float
    n_samples: int


def _tree_moments(n: int, leaf) -> tuple:
    """(sum z, sum z*z) over the next n values, with the bits of np.sum.

    leaf(m) gives (np.sum of z, np.sum of z*z) over the next m values, for
    each subtree of at most _kernels._BLOCK values in order. Larger n are
    split as numpy's pairwise sum splits them (_kernels._half)."""
    if n <= _kernels._BLOCK:
        return leaf(n)
    half = _kernels._half(n)
    l1, l2 = _tree_moments(half, leaf)
    r1, r2 = _tree_moments(n - half, leaf)
    return l1 + r1, l2 + r2


def _estimate(problem: TeacherStudentProblem, rng: SeededRng, n: int, segment: int,
              values, offset: float) -> McEstimate:
    """offset + the mean of z = values(u, eta, out) over n samples of
    problem, with its stderr.

    values writes z into out, a block as long as u, and returns it. The
    samples come in segments of `segment`, each drawn as problem.draw draws
    it and summed with the bits of np.sum; the segment sums add in order."""
    if n <= 1:
        raise DomainError(f"need n_samples > 1, got {n}")
    u_buf, eta_buf, z_buf = (_kernels._block(name) for name in ("mc u", "mc eta", "mc z"))
    s1 = 0.0
    s2 = 0.0
    for start in range(0, n, segment):
        k = min(segment, n - start)
        # eta is read from a cursor k draws ahead; noise-free draws take
        # nothing from the stream, so they need none
        noise = rng.ahead(k) if problem.noise.sigma != 0.0 else None

        def leaf(m):
            u = sample_uniform(rng, -problem.a, problem.a, m, out=u_buf[:m])
            eta = problem._draw_noise(noise, m, eta_buf[:m])
            z = values(u, eta, z_buf[:m])
            t1 = float(z.sum())
            z *= z
            return t1, float(z.sum())

        t1, t2 = _tree_moments(k, leaf)
        s1 += t1
        s2 += t2
        if noise is not None:
            rng.set_state(noise.get_state())
    mean = s1 / n
    var = max(s2 - s1 * s1 / n, 0.0) / (n - 1)
    return McEstimate(value=offset + mean, stderr=math.sqrt(var / n), n_samples=n)


def clip_error_mc(problem: TeacherStudentProblem, vol: float, rng: SeededRng,
                  n_samples: int) -> McEstimate:
    """Unbiased MC estimate of E[(clip(u', V) - u)^2] with its stderr.

    The clip is the converged alpha=0 student. Uniform noise uses the eta^2
    control variate; cauchy noise, which has no finite variance, the plain
    estimator."""
    if not vol >= 0:
        raise DomainError(f"vol must be >= 0, got {vol}")
    control_variate = problem.noise.kind == "uniform"
    vol = float(vol)

    def values(u, eta, out):
        # the kernels are elementwise on purpose: the sums are taken in one
        # place, _estimate, on numpy's own pairwise tree
        if control_variate:
            return _kernels.clip_sq_cv_values(u, eta, vol, out=out)
        return _kernels.clip_sq_values(u, eta, vol, out=out)

    sigma = problem.noise.sigma
    offset = sigma * sigma / 3.0 if control_variate else 0.0
    # segments of _MC_CHUNK samples fix the bits for n beyond one segment
    return _estimate(problem, rng, n_samples, _MC_CHUNK, values, offset)


def weight_decay_error_mc(a: float, sigma: float, lam: float, rng: SeededRng,
                          n_samples: int) -> McEstimate:
    """MC estimate of E[(u'/(1+lam) - u)^2] for uniform noise."""
    _check_uniform_domain(a, sigma)
    if not lam >= 0:
        raise DomainError(f"lam must be >= 0, got {lam}")
    problem = TeacherStudentProblem(dim=1, a=a, noise=NoiseSpec("uniform", sigma))

    def values(u, eta, out):
        # ((u + eta)/(1 + lam) - u)**2
        e = np.add(u, eta, out=out)
        e /= 1.0 + lam
        e -= u
        e *= e
        return e

    # one segment of n_samples: u for all of them, then eta
    return _estimate(problem, rng, n_samples, n_samples, values, 0.0)


def estimate_points(estimator, points) -> list:
    """estimator(*args, SeededRng(seed), n_samples) at each (*args, seed,
    n_samples) point, in order: clip_error_mc at (problem, vol, seed, n)
    points, weight_decay_error_mc at (a, sigma, lam, seed, n) ones.

    Point i draws from SeededRng(seed_i) alone, so the points run on every
    available CPU and the estimates are the same at any CPU count."""
    return _pool.map_ordered(
        lambda *point: estimator(*point[:-2], SeededRng(point[-2]), point[-1]),
        points, _pool.available_cpus())


@dataclass(eq=False)
class FlowResult:
    error: float
    iterations: int
    converged: bool


@dataclass(frozen=True, eq=False)
class FlowSpace:
    """The buffers of gradient flows of one dimension, w, the teacher u and
    u' = u + eta, and the helper (a _pool.served process) that takes the
    upper part of each phase of a flow, or None. With a helper the buffers
    are shared with it, and it draws, iterates and reduces coordinates
    [_kernels._half(dim), dim) while the caller does the ones below. Flows
    run in a space one after another; see flow_space."""

    w: np.ndarray
    u: np.ndarray
    u_prime: np.ndarray
    far: object


@contextlib.contextmanager
def flow_space(dim: int):
    """A FlowSpace for flows of dim coordinates, as a context manager.

    The helper is forked when a CPU is spare (_pool.spare_cpu) and the flow
    has at least _kernels._BLOCK coordinates; smaller flows ran slower split
    than whole. It is forked once on entry, with the buffers in shared
    memory (_pool.shared_zeros), so a table of flows pays its start-up once,
    and it has exited when the block is left. The bits of every flow are
    the same with and without it."""
    split = dim >= _kernels._BLOCK and _pool.spare_cpu()
    zeros = _pool.shared_zeros if split else np.zeros
    space = FlowSpace(zeros(dim), zeros(dim), zeros(dim), None)
    if not split:
        yield space
        return
    with _pool.served(_flow_answer(space), "flow helper") as far:
        yield replace(space, far=far)


def _flow_answer(space):
    """The answer of a flow helper over the buffers of space, for its
    coordinates [h, n), h = _kernels._half(n). A request is one of
    ("setup", problem, rng state): _flow_setup, answered with None;
    ("iterate", step, vol, alpha): one iteration (_kernels._flow_part),
    answered with its largest change as a float, which crosses the pipe
    faster than an np.float64; and ("error",): _flow_error. The helper never
    calls flow_iter_identity, so a wrapper on it sees one call per
    iteration."""
    n = len(space.w)
    h = _kernels._half(n)
    w, u_prime = space.w[h:], space.u_prime[h:]

    def answer(request):
        kind, *args = request
        if kind == "iterate":
            return float(_kernels._flow_part(w, u_prime, *args))
        if kind == "setup":
            problem, state = args
            return _flow_setup(problem, SeededRng.from_state(state), space, h, n)
        return _flow_error(space, h, n)

    return answer


def _flow_setup(problem, rng, space, lo, hi):
    """Coordinates [lo, hi) of a flow's start, as problem.draw(rng, n) draws
    them for all n coordinates: u from the stream lo draws on, the noise
    from the one n + lo draws on (none when it is zero) and u' = u + eta,
    each in its buffer, and w = 0. rng does not move."""
    n = len(space.w)
    u, u_prime = space.u[lo:hi], space.u_prime[lo:hi]
    sample_uniform(rng.ahead(lo), -problem.a, problem.a, hi - lo, out=u)
    noise = rng.ahead(n + lo) if problem.noise.sigma != 0.0 else None
    problem._draw_noise(noise, hi - lo, u_prime)
    u_prime += u
    space.w[lo:hi].fill(0.0)


def _flow_error(space, lo, hi):
    """np.sum of (w - u)**2 over coordinates [lo, hi) as a float, formed in
    u's buffer."""
    d = np.subtract(space.w[lo:hi], space.u[lo:hi], out=space.u[lo:hi])
    d *= d
    return float(d.sum())


def gradient_flow_sim(problem: TeacherStudentProblem, vol: float, alpha: float,
                      rng: SeededRng, step: float = 0.1, space=None) -> FlowResult:
    """Explicit-Euler residual flow with the wall transform each iteration.

    Student starts at w = 0 and follows w <- w - step*(w - u'), then the
    transform. Steps outside (0, 2) are rejected (explicit Euler would not
    contract). Stops when the max elementwise change drops below
    _FLOW_TOL, or after _FLOW_MAX_STEPS iterations.

    The flow runs in space, a FlowSpace of problem.dim coordinates that a
    table of flows shares (see flow_space), or in one of its own when space
    is None. rng ends where problem.draw(rng, problem.dim) leaves it.
    """
    if not vol >= 0:
        raise DomainError(f"vol must be >= 0, got {vol}")
    if not -1.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [-1, 1], got {alpha}")
    if not 0 < step < 2.0:
        raise DomainError(f"explicit Euler needs 0 < step < 2, got {step}")
    if space is not None and len(space.w) != problem.dim:
        raise ShapeError(f"a flow of dim {problem.dim} needs a space of that dim, "
                         f"got {len(space.w)}")
    with flow_space(problem.dim) if space is None else contextlib.nullcontext(space) as space:
        return FlowResult(*_flow(problem, float(vol), float(alpha), rng, step, space))


def _flow(problem, vol, alpha, rng, step, space):
    """gradient_flow_sim's flow in space: (error, iterations, converged).

    The caller sets up and reduces coordinates [0, h) and the helper, if
    any, [h, n), each in its own process; the error is the mean of
    (w - u)**2 with the bits of np.mean, since h is where np.sum splits."""
    n, far = problem.dim, space.far
    h = n if far is None else _kernels._half(n)
    if far is not None:
        far.send(("setup", problem, rng.get_state()))
    _flow_setup(problem, rng, space, 0, h)
    if far is not None:
        far.receive("its half of the setup")
    rng.set_state(rng.ahead(2 * n if problem.noise.sigma != 0.0 else n).get_state())

    converged = False
    for it in range(1, _FLOW_MAX_STEPS + 1):
        delta = _kernels.flow_iter_identity(space.w, space.u_prime, step, vol, alpha, far, it)
        if not math.isfinite(delta) or delta > 1e12:
            raise NumericError(f"flow diverged at iteration {it}: max step {delta:.3e}")
        if delta < _FLOW_TOL:
            converged = True
            break
    if far is not None:
        far.send(("error",))
    low = _flow_error(space, 0, h)
    high = 0.0 if far is None else far.receive("its half of the error")
    return (low + high) / n, it, converged


CURVE_CSV_HEADER = ("method", "a", "sigma", "V", "error", "stderr", "n_samples", "seed")


@dataclass(eq=False)
class ErrorCurve:
    """One method's error across a V grid, with CSV-ready metadata."""

    method: str
    a: float
    sigma: float
    vols: np.ndarray
    errors: np.ndarray
    stderrs: np.ndarray
    n_samples: int
    seed: int

    def argmin_vol(self) -> float:
        return float(self.vols[int(np.argmin(self.errors))])

    def rows(self):
        """One CURVE_CSV_HEADER row per V, in order."""
        for v, e, s in zip(self.vols, self.errors, self.stderrs):
            yield dict(zip(CURVE_CSV_HEADER, (self.method, self.a, self.sigma, float(v),
                                              float(e), float(s), self.n_samples, self.seed)))


def closed_form_curve(a: float, sigma: float, vols) -> ErrorCurve:
    vols = np.asarray(vols, dtype=np.float64)
    errs = np.array([clip_error_closed_form(a, sigma, v) for v in vols])
    return ErrorCurve("closed_form", a, sigma, vols, errs, np.zeros_like(errs), 0, 0)


def _clip_curves(method: str, problems, vols, seeds, tag: str, n_samples: int) -> list:
    """A clip_error_mc ErrorCurve called method across the V grid vols for
    each (problem, seed) pair, in order. Point i of a curve draws from
    stable_hash(seed, tag, i), and the points of every curve go through one
    estimate_points call."""
    vols = np.asarray(vols, dtype=np.float64)
    ests = estimate_points(clip_error_mc, [
        (problem, float(v), stable_hash(seed, tag, i), n_samples)
        for problem, seed in zip(problems, seeds, strict=True) for i, v in enumerate(vols)])
    curves = []
    for k, (problem, seed) in enumerate(zip(problems, seeds)):
        part = ests[k * len(vols):(k + 1) * len(vols)]
        curves.append(ErrorCurve(method, problem.a, problem.noise.sigma, vols,
                                 np.array([est.value for est in part], dtype=np.float64),
                                 np.array([est.stderr for est in part], dtype=np.float64),
                                 n_samples, seed))
    return curves


def mc_curves(a: float, sigmas, vols, seeds, n_samples: int) -> list:
    """mc_curve for each (sigma, seed) pair, in order, all from one
    _clip_curves call. The noise is uniform."""
    problems = [TeacherStudentProblem(dim=1, a=a, noise=NoiseSpec("uniform", sigma))
                for sigma in sigmas]
    return _clip_curves("monte_carlo", problems, vols, seeds, "mc-curve", n_samples)


def mc_curve(a: float, sigma: float, vols, seed: int, n_samples: int) -> ErrorCurve:
    """MC error across a V grid, uniform noise; each point gets a
    seed-derived substream."""
    return mc_curves(a, [sigma], vols, [seed], n_samples)[0]


def flow_curve(a: float, sigma: float, vols, seed: int, dim: int) -> ErrorCurve:
    """Gradient-flow error across a V grid with common random numbers.

    The flow is the hard clip (alpha 0) under uniform noise. Every V point
    replays the same teacher draw (same derived stream), so the curve's
    shape, and in particular its argmin, is not washed out by independent
    sampling noise between neighboring grid points.
    """
    vols = np.asarray(vols, dtype=np.float64)
    problem = TeacherStudentProblem(dim=dim, a=a, noise=NoiseSpec("uniform", sigma))
    errs = np.empty_like(vols)
    with flow_space(dim) as space:
        for i, v in enumerate(vols):
            errs[i] = gradient_flow_sim(problem, float(v), 0.0,
                                        SeededRng(stable_hash(seed, "flow-curve")),
                                        space=space).error
    se = np.zeros_like(errs)
    return ErrorCurve("gradient_flow", a, sigma, vols, errs, se, dim, seed)


def unregularized_prefix_errors(rng: SeededRng, scale: float, prefix_ns):
    """Truncated-sample mean of eta^2 over growing prefixes of one stream.

    The population mean does not exist for cauchy noise, so these estimates
    have no limit; they grow (erratically) with sample count, which is the
    behavior the comparison table records. The stream is drawn and summed
    one block at a time: each block's cumulative sum starts from the last
    one's total, so the sums are those of one sequential cumsum."""
    n_max = max(prefix_ns)
    csum_at = {}
    total = 0.0
    block = np.empty(min(n_max, _kernels._BLOCK))
    for start in range(0, n_max, _kernels._BLOCK):
        m = min(_kernels._BLOCK, n_max - start)
        sq = sample_cauchy(rng, scale, m, out=block[:m])
        sq *= sq
        sq[0] += total
        np.cumsum(sq, out=sq)
        for n in prefix_ns:
            if start < n <= start + m:
                csum_at[n] = sq[n - 1 - start]
        total = sq[-1]
    return [float(csum_at[n] / n) for n in prefix_ns]


def cauchy_comparison(a: float = 1.0, scale: float = 1.0,
                      n_samples: int = 10**6, seed: int = 0) -> list:
    """Heavy-tail showdown: no regularization vs shrinkage vs walls, as
    ErrorCurves in CSV order.

    One "unregularized" curve per prefix size of one stream, each a single
    point at V = inf: the (divergent) truncated-sample estimate, stderr nan.
    Weight decay has no finite optimum when the noise variance does not
    exist; its "weight_decay" curve is the constant-model limit a^2/3
    exactly, at V = 0. The "volumization" curve holds clip-MC estimates at
    each V of fig4b's grid, 0.05 to 2.0 in steps of 0.05; all remain
    bounded.
    """
    if not a > 0:
        raise DomainError(f"a must be positive, got {a}")
    prefix_ns = sorted({10**4, 10**5, min(10**6, n_samples), n_samples})
    prefix_ns = [n for n in prefix_ns if n <= n_samples]
    unreg = unregularized_prefix_errors(SeededRng(stable_hash(seed, "unreg")), scale, prefix_ns)
    curves = [ErrorCurve("unregularized", a, scale, np.array([math.inf]), np.array([est]),
                         np.array([math.nan]), n, seed) for n, est in zip(prefix_ns, unreg)]
    curves.append(ErrorCurve("weight_decay", a, scale, np.zeros(1), np.array([a * a / 3.0]),
                             np.zeros(1), 0, seed))
    problem = TeacherStudentProblem(dim=1, a=a, noise=NoiseSpec("cauchy", scale))
    return curves + _clip_curves("volumization", [problem],
                                 np.round(np.arange(0.05, 2.0001, 0.05), 10), [seed], "vol",
                                 n_samples)
