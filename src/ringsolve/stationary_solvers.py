"""Jacobi, Gauss-Seidel, and SOR sweeps with the full solve driver.

All three methods run one sweep kernel over the A = D - L - U splitting.
Each row's off-diagonal (j, -A_ij) pairs are its ``strict_lower`` items
followed by its ``strict_upper`` items, so a row sum adds its terms in
ascending column order, starting from b_i: the split's ``kernel_rows``,
which the CSR matrix keeps with its band and residual rows for ``classify``
and ``solve`` to share (``matrix_core``).  Jacobi reads the previous
iterate; Gauss-Seidel and SOR read the iterate being built.  Jacobi and
Gauss-Seidel update x_i = acc / A_ii; SOR updates
``(1 - omega) * old + omega * (acc / A_ii)``.  At omega = 1 that blend
equals the Gauss-Seidel update under ``==`` but may turn a -0.0 into
+0.0, so Gauss-Seidel keeps the plain update.

The solve driver defers the first residual check until the predicted
iteration count (when a spectral-radius estimate below 1 is supplied) and
checks every iteration after that.  Residuals are always recomputed as
b - A x by a fresh matrix-vector product, never updated incrementally.

Nothing is checked between sweep 2 and the first check, so on a
tridiagonal system with at least ``_PIPELINE_MIN_ROWS`` = 128 unknowns
that stretch runs as one numpy wavefront (``_pipelined``): entry i of
sweep k is computed on wave i + 2k, and every sweep of the stretch is in
flight at once.  Each entry gets the kernel's IEEE operations in the
kernel's order, numpy rounds each operation separately with no fused
multiply-add, and a missing end neighbour contributes -0.0, which leaves
every double unchanged.  So every iterate is bit-identical to the Python
kernel's, and the kernel stays the definition of a sweep: it runs the
first sweep, every sweep after a failed first check, small and
non-tridiagonal systems, and solves without a prediction.  The threshold
sits past the measured crossover, where the wavefront is faster in every
run: against the kernel it ran at 0.7-1.0x the speed at 63 unknowns,
1.05-1.4x at 95, 1.0-1.5x at 127, 2.4-3.3x at 255 and 4.5-6.6x at 511
(SOR, 4n + 99 sweeps, best of 3 to 5, on a shared 2-core machine).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ZeroDiagonalError
from .matrix_core import (
    SparseMatrix,
    TriangularSplit,
    Vector,
    _require_square,
    inf_norm,
    matvec,
    norm2,
    split_dlu,  # noqa: F401  (unused here; perfbench's tracer looks it up)
)

__all__ = [
    "Method",
    "SolverConfig",
    "SolveReport",
    "IterationMatrix",
    "jacobi_sweep",
    "gauss_seidel_sweep",
    "sor_sweep",
    "iteration_matrix",
    "residual",
    "solve",
]

METHOD_TAGS = ("jacobi", "gauss-seidel", "sor")

# Iterates whose magnitude passes this bound abort the solve as divergent.
_DIVERGENCE_BOUND = 1e150

# Tridiagonal systems with at least this many unknowns run their deferred
# sweeps as one numpy wavefront; below it the Python kernel is as fast or
# faster (see the module docstring for the measurement).
_PIPELINE_MIN_ROWS = 128


@dataclass(frozen=True)
class Method:
    """A stationary method tag plus, for SOR only, the relaxation weight."""

    tag: str
    omega: float | None = None

    def __post_init__(self):
        if self.tag not in METHOD_TAGS:
            raise ValueError(f"unknown method tag {self.tag!r}; expected one of {METHOD_TAGS}")
        if self.tag == "sor":
            if self.omega is None:
                raise ValueError("SOR requires a relaxation weight omega")
            if not (0.0 < self.omega < 2.0):
                raise ValueError(
                    f"omega={self.omega} violates the necessary condition "
                    "0 < omega < 2 for SOR convergence"
                )
        elif self.omega is not None:
            raise ValueError(f"omega only applies to SOR, not {self.tag!r}")

    @classmethod
    def jacobi(cls) -> "Method":
        return cls("jacobi")

    @classmethod
    def gauss_seidel(cls) -> "Method":
        return cls("gauss-seidel")

    @classmethod
    def sor(cls, omega: float) -> "Method":
        return cls("sor", float(omega))


@dataclass(frozen=True)
class SolverConfig:
    """Solve parameters.

    ``method=None`` means the caller wants automatic selection (resolved by
    the traffic pipeline or the CLI, never by ``solve`` itself).
    ``history_stride`` controls how often a residual norm is recorded; it
    never affects when convergence is checked.
    """

    method: Method | None = None
    eta: float = 1e-3
    max_iterations: int = 100000
    initial_guess: Vector | None = None
    history_stride: int = 1

    def __post_init__(self):
        if not (self.eta > 0.0):
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")
        if self.history_stride < 1:
            raise ValueError(f"history_stride must be at least 1, got {self.history_stride}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of an iterative solve.

    ``predicted_counts`` maps "jacobi", "gauss-seidel" and "sor" (at the
    profile's ``sor_omega``) to the a priori counts ``solve`` computes from
    its profile; it is empty without one.
    """

    solution: Vector
    iterations_run: int
    predicted_iterations: int | None
    final_residual_norm: float
    residual_history: tuple[tuple[int, float], ...]
    converged: bool
    wall_time: float
    predicted_counts: dict[str, int]


@dataclass(frozen=True)
class IterationMatrix:
    """The fixed-point form x_new = T x_old + c of a stationary method."""

    T: SparseMatrix
    c: Vector
    method: Method

    def __post_init__(self):
        if self.T.rows != self.T.cols:
            raise ValueError(f"T is {self.T.rows}x{self.T.cols}, expected square")
        if len(self.c) != self.T.rows:
            raise ValueError(f"c has {len(self.c)} entries, expected {self.T.rows}")


def _check_diag(diag) -> None:
    for i, d in enumerate(diag):
        if d == 0.0:
            raise ZeroDiagonalError(f"zero diagonal entry at row {i}")


def _kernel_rows(split: TriangularSplit):
    """Diagonal and ``split.kernel_rows``, after the zero-diagonal check."""
    d = split.diag.entries
    _check_diag(d)
    return d, split.kernel_rows


def _sweep(d, rows, xs, b, omega: float | None, jacobi: bool) -> list[float]:
    """The one sweep kernel; returns the next iterate as a new list.

    Jacobi reads only ``xs``; Gauss-Seidel and SOR read the iterate being
    built.  With ``omega`` None the update is acc / d_i, otherwise the SOR
    blend (1 - omega) x_i + omega (acc / d_i).
    """
    out = list(xs)
    reads = xs if jacobi else out
    keep = None if omega is None else 1.0 - omega
    for i, row in enumerate(rows):
        acc = b[i]
        for j, v in row:
            acc += v * reads[j]
        if omega is None:
            out[i] = acc / d[i]
        else:
            out[i] = keep * out[i] + omega * (acc / d[i])
    return out


def _checked_sweep(split, x_prev: Vector, b: Vector, omega, jacobi: bool) -> Vector:
    n = len(split.diag)
    if len(x_prev) != n or len(b) != n:
        raise ValueError(
            f"split is for {n} unknowns but x has {len(x_prev)} and b has {len(b)} entries"
        )
    d, rows = _kernel_rows(split)
    return Vector(tuple(_sweep(d, rows, x_prev.entries, b.entries, omega, jacobi)))


def jacobi_sweep(split: TriangularSplit, x_prev: Vector, b: Vector) -> Vector:
    """One Jacobi sweep: x_i = (b_i - sum_{j != i} A_ij x_prev_j) / A_ii."""
    return _checked_sweep(split, x_prev, b, None, True)


def gauss_seidel_sweep(split: TriangularSplit, x_prev: Vector, b: Vector) -> Vector:
    """One Gauss-Seidel sweep; positions j < i read the current sweep's values."""
    return _checked_sweep(split, x_prev, b, None, False)


def sor_sweep(split: TriangularSplit, x_prev: Vector, b: Vector, omega: float) -> Vector:
    """One SOR sweep, blending the old value with the Gauss-Seidel update.

    The raw sweep accepts any omega so the weight's effect can be probed;
    the solve driver enforces 0 < omega < 2.
    """
    return _checked_sweep(split, x_prev, b, float(omega), False)


def _iteration_array(split: TriangularSplit, method: Method) -> np.ndarray:
    """The fixed-point matrix T of ``method`` on A = D - L - U as an n x n array.

    T_jacobi = D^-1 (L + U); T_gs = (D - L)^-1 U; and for SOR
    T_omega = (D - omega L)^-1 ((1 - omega) D + omega U).  The triangular
    inverse is applied by forward substitution on whole rows: row i of T
    starts from row i of the right-hand factor, adds (omega L_ij) T_j (or
    L_ij T_j for Gauss-Seidel) over the stored lower entries in column
    order, and is divided by D_ii.  Each entry sees the same IEEE
    operations as a scalar substitution column by column.  A non-finite
    entry raises ``ValueError`` naming its row-major index.
    """
    d, rows = _kernel_rows(split)
    n = len(d)
    lower, upper = split.strict_lower, split.strict_upper
    t = np.zeros((n, n))
    # Overflow must reach the finiteness check below, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if method.tag == "jacobi":
            for i, row in enumerate(rows):
                for j, v in row:
                    t[i, j] = v / d[i]
        else:
            gs = method.tag == "gauss-seidel"
            omega = 1.0 if gs else float(method.omega)
            for i in range(n):
                acc = np.zeros(n)
                for j, v in upper.row_items(i):
                    acc[j] = v if gs else omega * v
                if not gs:
                    acc[i] = (1.0 - omega) * d[i]
                for j, v in lower.row_items(i):
                    acc += (v if gs else omega * v) * t[j]
                t[i] = acc / d[i]
    bad = np.flatnonzero(~np.isfinite(t))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"matrix entry {k} is not finite: {float(t.flat[k])!r}")
    return t


def iteration_matrix(
    a: SparseMatrix, method: Method, b: Vector | None = None
) -> IterationMatrix:
    """The fixed-point matrix T and offset c for a method.

    T_jacobi = D^-1 (L + U); T_gs = (D - L)^-1 U; and for SOR
    T_omega = (D - omega L)^-1 ((1 - omega) D + omega U).  Triangular
    inverses are applied by forward substitution; no general matrix is
    ever inverted.  T is the array ``classify`` measures in CSR form: every
    entry that is not exactly +0.0 is stored, so its dense view is that
    array bit for bit.  With ``b`` omitted, c is the zero vector.
    """
    n = _require_square(a)
    if b is not None and len(b) != n:
        raise ValueError(f"matrix has {n} rows but vector has {len(b)} entries")
    split = a.split
    t = _iteration_array(split, method)
    d = split.diag.entries
    c = [0.0] * n
    if b is not None and method.tag == "jacobi":
        c = [bi / di for bi, di in zip(b.entries, d)]
    elif b is not None:
        sor = method.tag == "sor"
        omega = float(method.omega) if sor else 1.0
        for i in range(n):
            acc = omega * b[i] if sor else b[i]
            for j, v in split.strict_lower.row_items(i):
                acc += omega * v * c[j] if sor else v * c[j]
            c[i] = acc / d[i]
    return IterationMatrix(SparseMatrix.from_rows(t.tolist()), Vector(tuple(c)), method)


def residual(a: SparseMatrix, x: Vector, b: Vector) -> Vector:
    """The residual b - A x."""
    if a.rows != len(b):
        raise ValueError(f"matrix has {a.rows} rows but b has {len(b)} entries")
    y = matvec(a, x)
    return Vector(tuple(bi - yi for bi, yi in zip(b.entries, y.entries)))


def _residual_norm(rows, xs, b) -> float:
    """||b - A x||_2, each (A x)_i summed left to right from +0.0 as ``matvec`` does."""
    acc = 0.0
    for bi, row in zip(b, rows):
        y = 0.0
        for j, v in row:
            y += v * xs[j]
        r = bi - y
        acc += r * r
    return math.sqrt(acc)


def _sweep_fn(d, rows, method: Method, b: Vector):
    """One sweep of ``method`` on ``_kernel_rows`` output, from list to list."""
    bs, jacobi = b.entries, method.tag == "jacobi"
    omega = None if method.omega is None else float(method.omega)
    return lambda xs: _sweep(d, rows, xs, bs, omega, jacobi)


def _pipelined(d, lower, upper, b, x1, last: int, method: Method, stride: int):
    """Sweeps 2 .. ``last`` of a tridiagonal system from x1, as one wavefront.

    Entry i of sweep k is computed on wave t = i + 2k (Lamport's hyperplane
    method), so every sweep of the stretch is in flight at once and a wave
    is a few ufuncs on stride -2 slices of the reversed coefficient arrays.
    ``bufs[t % 4][k]`` holds the wave-t entry of sweep k.  A wave reads
    wave t - 1 for the i + 1 neighbour from sweep k - 1 and, in
    Gauss-Seidel and SOR, the i - 1 neighbour from sweep k; wave t - 2 for
    SOR's old value; and wave t - 3 for Jacobi's i - 1 neighbour from sweep
    k - 1.  Memory is O(last), plus one n-vector per captured sweep in
    flight.

    The slots that stand for rows -1 and n hold -0.0: a sweep's column is
    untouched before its first wave, and row n is written once the sweep
    is done.  Times the end rows' +0.0 coefficient, -0.0 gives a -0.0
    term, and adding -0.0 leaves every double unchanged, -0.0 included.
    So each entry gets ``_sweep``'s IEEE operations in ``_sweep``'s order,
    and as numpy rounds each operation separately, every iterate is
    bit-identical to the Python kernel's.

    Yields (k, x_k as a list) for every multiple k < ``last`` of ``stride``
    and then for ``last``, each on the wave that completes it.  Raises the
    ``DivergenceError`` of the first sweep with an entry that is not finite
    or exceeds 1e150, once every sweep before it is complete.
    """
    n = len(d)
    rb, rd, rlo, rup = (np.array(v[::-1], dtype=np.float64) for v in (b, d, lower, upper))
    jacobi = method.tag == "jacobi"
    omega = None if method.omega is None else float(method.omega)
    keep = None if omega is None else 1.0 - omega
    bufs = list(np.full((4, last + 1), -0.0))
    # Captured sweeps in flight at once never exceed ``slots``, so a slot
    # is yielded before a later capture reuses it.
    slots = min((n - 1) // (2 * stride) + 1, last // stride)
    captured = np.empty((slots, n))
    flat = captured.reshape(-1)
    step = n - 2 * stride
    final = np.empty(n)
    # A sum of squares below the squared bound clears every entry at once
    # (each rounded square is at most the sum, NaN and inf propagate).
    cleared = _DIVERGENCE_BOUND * _DIVERGENCE_BOUND
    bad = None
    t = 2
    for k_out in [*range(max(stride, 2), last, stride), last]:
        with np.errstate(over="ignore", invalid="ignore"):
            while t < 2 * k_out + n:
                lo_k = (t - n + 2) >> 1
                hi_k = t >> 1 if t < 2 * last else last
                now, back1 = bufs[t & 3], bufs[(t - 1) & 3]
                if lo_k <= 1:
                    lo_k = 1
                    now[1] = x1[t - 2]
                lo_c = lo_k if lo_k > 1 else 2
                if lo_c <= hi_k:
                    cur, prev = slice(lo_c, hi_k + 1), slice(lo_c - 1, hi_k)
                    rows = slice(n - 1 - t + 2 * lo_c, n - t + 2 * hi_k, 2)
                    acc = rlo[rows] * (bufs[(t - 3) & 3][prev] if jacobi else back1[cur])
                    acc += rb[rows]
                    acc += rup[rows] * back1[prev]
                    acc /= rd[rows]
                    if omega is not None:
                        acc *= omega
                        acc += keep * bufs[(t - 2) & 3][prev]
                    now[cur] = acc
                    if not acc.dot(acc) < cleared:
                        over = np.flatnonzero(~(np.abs(acc) <= _DIVERGENCE_BOUND))
                        if over.size and (bad is None or lo_c + over[0] < bad):
                            bad = lo_c + int(over[0])
                    k = -(-lo_c // stride) * stride
                    while k <= hi_k:
                        # Captures from k on lie ``step`` apart in ``flat``
                        # until the slot index wraps; two share a wave only
                        # when step >= 1.
                        q = k // stride % slots
                        run = min((hi_k - k) // stride + 1, slots - q)
                        at = q * n + t - 2 * k
                        if run == 1:
                            flat[at] = acc[k - lo_c]
                        else:
                            flat[at : at + (run - 1) * step + 1 : step] = acc[
                                k - lo_c : k - lo_c + (run - 1) * stride + 1 : stride
                            ]
                        k += run * stride
                    if hi_k == last:
                        final[t - 2 * last] = acc[-1]
                now[lo_k - 1] = -0.0
                if bad is not None and t == 2 * bad + n - 1:
                    raise DivergenceError(f"iterate diverged at iteration {bad}")
                t += 1
        if k_out < last:
            yield k_out, captured[k_out // stride % slots].tolist()
    yield last, final.tolist()


def _check_iterate(xs, k: int) -> None:
    """Raise ``DivergenceError`` if an entry is not finite or exceeds 1e150."""
    # A sum of magnitudes is NaN or infinite when an entry is, and no
    # smaller than its largest term, so one sum clears a sane iterate; the
    # entry loop runs only to confirm a failure.
    if sum(map(abs, xs)) <= _DIVERGENCE_BOUND:
        return
    for v in xs:
        if not math.isfinite(v) or abs(v) > _DIVERGENCE_BOUND:
            raise DivergenceError(f"iterate diverged at iteration {k}")


def _iterates(step, x1, stretch, max_iterations: int):
    """(k, x_k) for the sweeps k = 1 .. max_iterations.

    x1 is given; the ``stretch`` generator, when not empty, stands in for
    sweeps 2 .. its last k and yields only the iterates it captures.
    Every later sweep is one ``step``, checked for divergence.
    """
    k, xs = 1, x1
    yield k, xs
    for k, xs in stretch:
        yield k, xs
    for k in range(k + 1, max_iterations + 1):
        xs = step(xs)
        _check_iterate(xs, k)
        yield k, xs


def _first_sweep(step, x0, rho: float | None, norm_a: float, config: SolverConfig):
    """The first iterate x1 = step(x0) and the a priori count it implies.

    The count is ``estimate_iterations`` with first step ||x1 - x0||_2 and
    ``norm_a`` = ||A||_inf, capped at ``config.max_iterations``.  It is
    None when ``rho`` is not in (0, 1) or x1 equals x0.  Raises
    ``DivergenceError`` for an x1 that ``solve`` would reject.
    """
    x1 = step(x0)
    _check_iterate(x1, 1)
    if rho is None or not (0.0 < rho < 1.0):
        return x1, None
    first_step = norm2([new - old for new, old in zip(x1, x0)])
    if not first_step > 0.0:
        return x1, None
    from .convergence_analysis import estimate_iterations

    count = estimate_iterations(config.eta, rho, norm_a, first_step)
    return x1, min(count, config.max_iterations)


def _profile_rho(profile, method: Method) -> float | None:
    if profile is None:
        return None
    if method.tag == "jacobi":
        return profile.rho_jacobi
    if method.tag == "gauss-seidel":
        return profile.rho_gauss_seidel
    if profile.omega_star is not None:
        # Young's theory gives the radius at any weight from rho_jacobi.
        from .convergence_analysis import sor_radius

        return sor_radius(profile.rho_jacobi, method.omega)
    # Otherwise the measured SOR radius only transfers when the weights match.
    if profile.rho_sor is not None and profile.sor_omega == method.omega:
        return profile.rho_sor
    return None


def solve(a: SparseMatrix, b: Vector, config: SolverConfig, profile=None) -> SolveReport:
    """Run a stationary method until the residual norm drops below eta.

    When ``profile`` provides a spectral radius below 1 for the configured
    method (for SOR: the profiled weight, or any weight when the profile
    has an optimal weight), the predicted iteration count is computed from the
    first step and residual checks start only there; otherwise every
    iteration is checked.  ``predicted_counts`` holds the count of every
    method with a profiled radius in (0, 1); no other code computes one.
    On a tridiagonal system with at least 128 unknowns, sweeps 2 through
    the first check run as one numpy wavefront whose iterates are
    bit-identical to the sweep kernel's; the history residuals of that
    stretch are taken from each iterate as it completes.
    Aborts with ``DivergenceError`` if an iterate exceeds 1e150 or stops
    being finite, at the same iteration on either path.
    """
    method = config.method
    if method is None:
        raise ValueError("solver configuration requires a concrete method, not auto")
    n = _require_square(a)
    if len(b) != n:
        raise ValueError(f"matrix has {n} rows but vector has {len(b)} entries")
    split = a.split
    d, rows = _kernel_rows(split)
    step = _sweep_fn(d, rows, method, b)
    a_rows = a.residual_rows
    x0 = config.initial_guess if config.initial_guess is not None else Vector.zeros(n)
    if len(x0) != n:
        raise ValueError(f"initial guess has {len(x0)} entries, expected {n}")

    rho = _profile_rho(profile, method)
    norm_a = inf_norm(a)
    eta = config.eta
    stride = config.history_stride
    history: list[tuple[int, float]] = []

    t0 = time.perf_counter()
    x1, predicted = _first_sweep(step, list(x0.entries), rho, norm_a, config)
    first_check = 1 if predicted is None else predicted
    stretch = ()
    if first_check > 1 and n >= _PIPELINE_MIN_ROWS:
        lower, upper, exact = split.band
        if exact:
            stretch = _pipelined(d, lower, upper, b.entries, x1, first_check, method, stride)
    converged = False
    # The last iterate always lands in the check branch, so both of these
    # are overwritten before the loop ends.
    final_k = 0
    final_rnorm = math.inf
    for k, xs in _iterates(step, x1, stretch, config.max_iterations):
        rnorm: float | None = None
        if k % stride == 0:
            rnorm = _residual_norm(a_rows, xs, b.entries)
            history.append((k, rnorm))
        if k >= first_check or k == config.max_iterations:
            if rnorm is None:
                rnorm = _residual_norm(a_rows, xs, b.entries)
            final_k, final_rnorm = k, rnorm
            if rnorm < eta:
                converged = True
                break
    wall = time.perf_counter() - t0

    # The run method keeps its count; any other profiled method takes one
    # first sweep on the same rows, and is left out if that iterate diverges.
    counts: dict[str, int] = {}
    profiled = [] if profile is None else [Method.jacobi(), Method.gauss_seidel()]
    if profile is not None and profile.sor_omega is not None:
        profiled.append(Method.sor(profile.sor_omega))
    for other in profiled:
        count = predicted
        if other != method:
            rho_o = _profile_rho(profile, other)
            if rho_o is None or not (0.0 < rho_o < 1.0):
                continue
            step_o = _sweep_fn(d, rows, other, b)
            try:
                _, count = _first_sweep(step_o, x0.entries, rho_o, norm_a, config)
            except DivergenceError:
                continue
        if count is not None:
            counts[other.tag] = count

    if not history or history[-1][0] != final_k:
        history.append((final_k, final_rnorm))
    return SolveReport(
        solution=Vector(tuple(xs)),
        iterations_run=final_k,
        predicted_iterations=predicted,
        final_residual_norm=final_rnorm,
        residual_history=tuple(history),
        converged=converged,
        wall_time=wall,
        predicted_counts=counts,
    )
