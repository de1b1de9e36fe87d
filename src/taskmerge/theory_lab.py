"""Synthetic quadratic multi-task ensembles with exactly computable losses.

Each task t is a scalar-output linear model around its fine-tuned weights:
f(theta) differs from the target by g_t . (theta - theta_t), with squared
error loss L_t(theta) = 1/2 (g_t . (theta - theta_t))^2. The gradient g_t is
tied to the task vector by a per-task positive constant, g_t = delta_t *
tau_t, and distinct task vectors are constructed orthogonal. On such
ensembles the loss increase of a merged model over each fine-tuned model is
an exact quadratic form (the Hessian g g^T is constant, so no Taylor
remainder), which makes every bound and the closed-form coefficient rule
checkable against brute force.

All randomized suites derive per-trial seeds deterministically from a root
seed; two runs with the same arguments produce identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import metagpt_coefficients
from .errors import ValidationError
from .task_vectors import TaskVectorStats


@dataclass
class QuadraticTask:
    theta: np.ndarray  # fine-tuned weights, theta0 + tau
    tau: np.ndarray  # task vector
    delta: float  # gradient scale: g = delta * tau
    g: np.ndarray

    @property
    def sq_norm(self) -> float:
        return float(self.tau @ self.tau)


@dataclass
class QuadraticEnsemble:
    theta0: np.ndarray
    tasks: list[QuadraticTask]

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def dim(self) -> int:
        return self.theta0.size

    @property
    def delta0(self) -> float:
        return max(t.delta for t in self.tasks)

    @property
    def sq_norms(self) -> np.ndarray:
        return np.array([t.sq_norm for t in self.tasks])


def make_ensemble(
    num_tasks: int,
    dim: int,
    seed: int,
    delta_range: tuple[float, float] = (0.5, 2.0),
    norm_range: tuple[float, float] = (0.5, 2.0),
) -> QuadraticEnsemble:
    """Random ensemble with exactly orthogonal task vectors.

    Task directions come from a QR orthonormalization of a Gaussian matrix,
    then get scaled to norms drawn from ``norm_range``; orthogonality
    requires num_tasks <= dim.
    """
    if not 1 <= num_tasks <= dim:
        raise ValidationError(f"need 1 <= T <= m, got T={num_tasks}, m={dim}")
    return _random_ensemble(num_tasks, dim, seed, delta_range, norm_range)


def make_correlated_ensemble(
    num_tasks: int,
    dim: int,
    seed: int,
    pairwise_cos: float,
    delta_range: tuple[float, float] = (0.5, 2.0),
    norm_range: tuple[float, float] = (0.5, 2.0),
) -> QuadraticEnsemble:
    """Ensemble whose task vectors share a common component, giving every
    pair the same cosine similarity. Used to probe what breaks when the
    orthogonality assumption fails; not a valid input elsewhere."""
    if not 0.0 <= pairwise_cos < 1.0:
        raise ValidationError("pairwise_cos must be in [0, 1)")
    if not 1 <= num_tasks < dim:
        raise ValidationError(
            f"need 1 <= T < m for the shared component, got T={num_tasks}, m={dim}")
    return _random_ensemble(num_tasks, dim, seed, delta_range, norm_range, pairwise_cos)


def _random_ensemble(
    num_tasks: int, dim: int, seed: int, delta_range, norm_range, pairwise_cos: float | None = None
) -> QuadraticEnsemble:
    # one generator draws theta0, a QR basis of T columns (T + 1 when the
    # tasks share a component), then the norms and the deltas, in that order
    if min(delta_range) <= 0 or min(norm_range) <= 0:
        raise ValidationError("delta_range and norm_range must be positive")
    rng = np.random.default_rng(seed)
    theta0 = rng.standard_normal(dim)
    shared = pairwise_cos is not None
    q, _ = np.linalg.qr(rng.standard_normal((dim, num_tasks + shared)))
    if shared:
        q = math.sqrt(1.0 - pairwise_cos) * q[:, :-1] + math.sqrt(pairwise_cos) * q[:, -1:]
    norms = rng.uniform(*norm_range, size=num_tasks)
    deltas = rng.uniform(*delta_range, size=num_tasks)
    tasks = []
    for t in range(num_tasks):
        tau = q[:, t] * norms[t]
        tasks.append(QuadraticTask(theta0 + tau, tau, float(deltas[t]), deltas[t] * tau))
    return QuadraticEnsemble(theta0, tasks)


def exact_loss(e: QuadraticEnsemble, t: int, theta: np.ndarray) -> float:
    """1/2 (g_t . (theta - theta_t))^2, the task-t loss at theta."""
    task = e.tasks[t]
    r = float(task.g @ (theta - task.theta))
    return 0.5 * r * r


def merged_theta(e: QuadraticEnsemble, lambdas: np.ndarray) -> np.ndarray:
    """theta0 plus the coefficient-weighted sum of task vectors."""
    lambdas = _check_lambdas(e, lambdas)
    out = e.theta0.copy()
    for lam, task in zip(lambdas, e.tasks):
        out += lam * task.tau
    return out


def h_vector(e: QuadraticEnsemble, t: int, lambdas: np.ndarray) -> np.ndarray:
    """The merged-minus-finetuned displacement written in task vectors:
    sum_{k != t} lambda_k tau_k - (1 - lambda_t) tau_t."""
    lambdas = _check_lambdas(e, lambdas)
    out = -(1.0 - lambdas[t]) * e.tasks[t].tau
    for k, task in enumerate(e.tasks):
        if k != t:
            out += lambdas[k] * task.tau
    return out


def exact_tld(e: QuadraticEnsemble, t: int, lambdas: np.ndarray) -> float:
    """Task-t loss difference, merged minus fine-tuned, evaluated literally."""
    return exact_loss(e, t, merged_theta(e, lambdas)) - exact_loss(e, t, e.tasks[t].theta)


def tld_quadratic(e: QuadraticEnsemble, t: int, lambdas: np.ndarray) -> float:
    """The same loss difference via the quadratic form 1/2 (g_t . h_t)^2.

    On quadratic losses the two routes are mathematically identical; the
    pair forms the dual-route oracle."""
    task = e.tasks[t]
    r = float(task.g @ h_vector(e, t, lambdas))
    return 0.5 * r * r


def tld_bound(e: QuadraticEnsemble, t: int, lambdas: np.ndarray) -> float:
    """Data-free upper bound on the task-t loss difference:
    (delta_t^2 / 2) ||tau_t||^2 [ (1 - lambda_t)^2 ||tau_t||^2
                                  + sum_{k != t} lambda_k^2 ||tau_k||^2 ]."""
    lambdas = _check_lambdas(e, lambdas)
    task = e.tasks[t]
    sq = e.sq_norms
    cross = float(np.sum(lambdas**2 * sq)) - lambdas[t] ** 2 * sq[t]
    own = (1.0 - float(lambdas[t])) ** 2 * sq[t]
    return 0.5 * task.delta**2 * sq[t] * (cross + own)


def ald(e: QuadraticEnsemble, lambdas: np.ndarray) -> float:
    """Average loss difference over tasks: the merging objective."""
    return math.fsum(exact_tld(e, t, lambdas) for t in range(e.num_tasks)) / e.num_tasks


def ald_bound(e: QuadraticEnsemble, lambdas: np.ndarray) -> float:
    """Sum of the per-task bounds; dominates the average loss difference on
    orthogonal ensembles (the 1/T prefactor is dropped, every term >= 0)."""
    return math.fsum(tld_bound(e, t, lambdas) for t in range(e.num_tasks))


def ald_lambda_term(e: QuadraticEnsemble, t: int, lambda_t):
    """All terms of the decoupled objective containing lambda_t:
    (delta0^2 / 2) ||tau_t||^2 [ (1 - lambda_t)^2 ||tau_t||^2
                                 + lambda_t^2 sum_{j != t} ||tau_j||^2 ].

    A scalar quadratic in lambda_t; its vertex is the closed-form
    coefficient. ``lambda_t`` may be a float or an array of candidates,
    which gives the term at each."""
    sq = e.sq_norms
    rest = float(np.sum(sq)) - sq[t]
    own = (1.0 - lambda_t) ** 2 * sq[t]
    return 0.5 * e.delta0**2 * sq[t] * (own + lambda_t**2 * rest)


def closed_form_lambda(e: QuadraticEnsemble) -> np.ndarray:
    """Norm-proportional coefficients ||tau_t||^2 / sum_k ||tau_k||^2, as the
    engine's ``metagpt_coefficients`` computes them for a merge."""
    stats = TaskVectorStats([str(t) for t in range(e.num_tasks)], e.sq_norms.tolist())
    return np.array(metagpt_coefficients(stats).lambdas)


def grid_search_lambda(e: QuadraticEnsemble, step: float = 1e-4) -> np.ndarray:
    """For each task independently, the grid point in {0, step, ..., 1}
    minimizing its decoupled objective term; ties resolve to the smaller
    value. Serves as the brute-force oracle for the closed form."""
    if not 0.0 < step <= 0.1:
        raise ValidationError("step must be in (0, 0.1]")
    grid = np.linspace(0.0, 1.0, round(1.0 / step) + 1)
    # argmin takes the first, i.e. smallest, lambda on ties
    return np.array([grid[int(np.argmin(ald_lambda_term(e, t, grid)))]
                     for t in range(e.num_tasks)])


def verify_hessian_identity(e: QuadraticEnsemble, t: int, seed: int = 0) -> dict:
    """Check the constant-Hessian structure numerically.

    Central finite differences of the loss around theta_t are compared to
    the outer product g_t g_t^T on sampled coordinate pairs, and the
    gradient-scale link delta_t * tau_t - g_t is measured (zero by
    construction). Returns both residuals.
    """
    task = e.tasks[t]
    m = e.dim
    theta = task.theta
    h = 1e-4

    # the pairs (i, j), i <= j, numbered row by row; row i starts at
    # starts[i], so a sampled number maps back to its pair without listing
    # all m(m+1)/2 of them
    count = m * (m + 1) // 2
    if count > 256:
        idx = np.random.default_rng(seed).choice(count, size=256, replace=False)
        diagonal = [(i, i) for i in range(min(m, 8))]
    else:
        idx, diagonal = np.arange(count), []
    rows = np.arange(m)
    starts = rows * m - rows * (rows - 1) // 2
    i_of = np.searchsorted(starts, idx, side="right") - 1
    pairs = list(zip(i_of.tolist(), (i_of + idx - starts[i_of]).tolist())) + diagonal

    def loss_at(offset: np.ndarray) -> float:
        return exact_loss(e, t, theta + offset)

    max_err = 0.0
    ei = np.zeros(m)
    ej = np.zeros(m)
    for i, j in pairs:
        ei[:] = 0.0
        ej[:] = 0.0
        ei[i] = h
        ej[j] = h
        if i == j:
            fd = (loss_at(ei) - 2.0 * loss_at(np.zeros(m)) + loss_at(-ei)) / (h * h)
        else:
            fd = (
                loss_at(ei + ej) - loss_at(ei - ej) - loss_at(-ei + ej) + loss_at(-ei - ej)
            ) / (4.0 * h * h)
        max_err = max(max_err, abs(fd - task.g[i] * task.g[j]))

    grad_link = float(np.linalg.norm(task.delta * task.tau - task.g))
    return {"max_hessian_abs_err": max_err, "grad_link_err": grad_link}


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

#: the two TLD routes agree when |a-b| <= RTOL*max(|a|,|b|) + ATOL; the
#: absolute slack only matters where both values sit at the float-noise
#: floor (coefficients within ~1e-7 of the corner lambda_t = 1, where the
#: loss difference itself vanishes)
_ROUTE_RTOL = 1e-12
_ROUTE_ATOL = 1e-16


def _routes_agree(a: float, b: float) -> tuple[bool, float]:
    gap = abs(a - b)
    budget = _ROUTE_RTOL * max(abs(a), abs(b)) + _ROUTE_ATOL
    return gap <= budget, gap / budget


def _draw_ensemble(rng: np.random.Generator, dim: int | None, tasks: int | None):
    # 2 to 8 tasks, and no more than a given dim holds
    most = 8 if dim is None else min(8, dim)
    t = tasks if tasks is not None else int(rng.integers(min(2, most), most + 1))
    m = dim if dim is not None else int(rng.integers(max(8, t), max(128, t) + 1))
    return make_ensemble(t, m, seed=int(rng.integers(0, 2**63)))


def _lemma1(e: QuadraticEnsemble, lambdas: np.ndarray, rng: np.random.Generator):
    # merged minus fine-tuned is h_t, and the two loss-difference routes agree
    merged = merged_theta(e, lambdas)
    for t in range(e.num_tasks):
        ident = float(np.linalg.norm((merged - e.tasks[t].theta) - h_vector(e, t, lambdas)))
        ok, gap = _routes_agree(exact_tld(e, t, lambdas), tld_quadratic(e, t, lambdas))
        yield ok and ident <= 1e-12, gap


def _thm1(e: QuadraticEnsemble, lambdas: np.ndarray, rng: np.random.Generator):
    for t in range(e.num_tasks):
        gap = exact_tld(e, t, lambdas) - tld_bound(e, t, lambdas)
        yield gap <= 1e-9, gap


def _thm2(e: QuadraticEnsemble, lambdas: np.ndarray, rng: np.random.Generator):
    gap = ald(e, lambdas) - ald_bound(e, lambdas)
    yield gap <= 1e-9, gap


def _thm3(e: QuadraticEnsemble, lambdas: np.ndarray, rng: np.random.Generator):
    total = math.fsum(ald_lambda_term(e, t, float(lambdas[t])) for t in range(e.num_tasks))
    gap = ald(e, lambdas) - total
    yield gap <= 1e-9, gap


def _thm4(e: QuadraticEnsemble, lambdas: np.ndarray, rng: np.random.Generator):
    step = 1e-4
    gap = float(np.max(np.abs(closed_form_lambda(e) - grid_search_lambda(e, step))))
    yield gap <= step, gap


def _hessian(e: QuadraticEnsemble, lambdas: np.ndarray, rng: np.random.Generator):
    t = int(rng.integers(0, e.num_tasks))
    res = verify_hessian_identity(e, t, seed=int(rng.integers(0, 2**63)))
    err, link = res["max_hessian_abs_err"], res["grad_link_err"]
    yield err <= 1e-4 and link <= 1e-14, max(err, link)


#: each suite's per-trial check yields one (ok, gap) pair per assertion
_CHECKS = {"lemma1": _lemma1, "thm1": _thm1, "thm2": _thm2, "thm3": _thm3, "thm4": _thm4,
           "hessian": _hessian}
SUITES = tuple(_CHECKS)


def run_suite(
    name: str,
    trials: int = 100,
    seed: int = 0,
    dim: int | None = None,
    tasks: int | None = None,
) -> dict:
    """Run one verification suite; returns its JSON-ready report entry."""
    if name not in SUITES:
        raise ValidationError(f"unknown suite '{name}' (choose from {', '.join(SUITES)})")
    _check_run(trials, seed)
    rng = np.random.default_rng(seed)
    violations = 0
    max_gap = -math.inf
    for _ in range(trials):
        # every suite draws the ensemble and the coefficients, in this order,
        # before its check draws anything
        e = _draw_ensemble(rng, dim, tasks)
        lambdas = rng.uniform(0.0, 1.0, size=e.num_tasks)
        for ok, gap in _CHECKS[name](e, lambdas, rng):
            violations += not ok
            max_gap = max(max_gap, gap)
    return {"theorem": name, "trials": trials, "violations": violations, "max_gap": max_gap}


def run_suites(
    names: list[str],
    trials: int = 100,
    seed: int = 0,
    dim: int | None = None,
    tasks: int | None = None,
) -> dict:
    """Run several suites; the top-level violation count sums every entry's.
    Each suite draws from the same root seed, so a single-suite run
    reproduces its entry from a combined run."""
    entries = [run_suite(n, trials, seed, dim, tasks) for n in names]
    return {
        "seed": seed,
        "trials_per_suite": trials,
        "violations": sum(e["violations"] for e in entries),
        "suites": entries,
    }


def _check_run(trials: int, seed: int) -> None:
    for name, value, least in (("trials", trials, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_lambdas(e: QuadraticEnsemble, lambdas) -> np.ndarray:
    arr = np.asarray(lambdas, dtype=np.float64)
    if arr.shape != (e.num_tasks,):
        raise ValidationError(f"need {e.num_tasks} coefficients, got shape {arr.shape}")
    return arr
