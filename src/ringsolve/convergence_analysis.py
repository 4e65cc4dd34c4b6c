"""Spectral radii, matrix classification, and method selection.

For a symmetric tridiagonal matrix with a positive diagonal the radii
have closed forms (Young's theory of consistently ordered matrices).  The
Jacobi radius is the largest eigenvalue of the symmetric tridiagonal
matrix D^-1/2 (L + U) D^-1/2, found by Sturm-count bisection in O(n) per
step; then rho_gs = rho_j^2 and, for a positive definite matrix, the
optimal SOR weight has radius omega* - 1.

Every other radius is estimated by power iteration: repeated application
of T to a fixed seed vector with renormalization after every step.  T is
built as a dense numpy array by forward substitution on whole rows and
handed to the power loop directly; it is the matrix ``iteration_matrix``
returns, bit for bit.  At the sizes this library targets (a few hundred
unknowns) one dense product costs far less than applying T as a sweep in
Python, and the loop needs hundreds to thousands of products.  The
growth factors are averaged geometrically over a trailing window of 32
steps, which makes the estimate insensitive to dominant eigenvalues that
come in +/- pairs or complex-conjugate pairs; a plain Rayleigh or
single-step ratio oscillates in those cases and never settles.

Classification checks each method's sufficient condition (diagonal
dominance for Jacobi, symmetric positive definite for Gauss-Seidel, SPD
plus tridiagonal for SOR), obtains all three radii, and recommends the
method with the smallest one.  All of it reads the split, kernel rows and
band that the CSR matrix keeps (``matrix_core``), which ``solve`` reuses.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergentMethodError
from .matrix_core import DenseMatrix, Matrix, TriangularSplit, _csr, _require_square
# ``iteration_matrix`` is unused here but stays importable from this module,
# where perfbench's tracer looks it up.
from .stationary_solvers import Method, _iteration_array, iteration_matrix  # noqa: F401

__all__ = [
    "SpectralEstimate",
    "MatrixProfile",
    "spectral_radius",
    "optimal_omega",
    "sor_radius",
    "estimate_iterations",
    "structure_flags",
    "classify",
    "select_method",
]

# Growth factors are averaged over this many trailing steps; the stability
# test compares estimates exactly one window apart.
_WINDOW = 32
# Consecutive stable comparisons required before the estimate is accepted.
_STABLE_RUNS = 8
# Step limit of every power iteration unless the caller passes another.
_MAX_POWER_STEPS = 50000
# Radii measured by power iteration in classify must resolve differences
# finer than the selection tie tolerance below, so the default public
# tolerance is too loose.
_CLASSIFY_TOL = 1e-10
# SOR weight used for profiling when the optimal-omega hypotheses fail.
_FALLBACK_OMEGA = 1.5
# Radii this close together are treated as tied during method selection.
_TIE_TOL = 1e-9


@dataclass(frozen=True)
class SpectralEstimate:
    """Estimated spectral radius plus how the estimate was obtained."""

    rho: float
    iterations_used: int
    converged: bool
    tolerance: float


@dataclass(frozen=True)
class MatrixProfile:
    """Structure flags, per-method spectral radii, and a recommendation.

    The radius fields are None when a zero diagonal makes the iteration
    matrices undefined.  ``omega_star`` is present only when the optimal
    SOR weight's hypotheses hold (SPD, tridiagonal, rho_jacobi < 1);
    ``sor_omega`` always records the weight rho_sor was measured at, so
    ``omega_star is None`` with ``rho_sor`` present flags a non-optimal
    fallback profile.  A priori iteration counts need a right-hand side,
    so they live in ``SolveReport.predicted_counts``, not here.
    ``radii_converged`` is False when any radius came from a power
    iteration that ran out of steps before its estimate settled.
    """

    is_symmetric: bool
    is_strictly_diag_dominant: bool
    is_weakly_diag_dominant: bool
    is_tridiagonal: bool
    is_positive_definite: bool
    has_zero_diagonal: bool
    rho_jacobi: float | None
    rho_gauss_seidel: float | None
    rho_sor: float | None
    omega_star: float | None
    sor_omega: float | None
    recommendation: Method | str
    radii_converged: bool = True

    def __post_init__(self):
        if self.is_strictly_diag_dominant and not self.is_weakly_diag_dominant:
            raise ValueError("strict diagonal dominance implies weak dominance")
        if self.is_positive_definite and not self.is_symmetric:
            raise ValueError("positive definiteness is only asserted for symmetric matrices")
        if self.omega_star is not None and not (1.0 <= self.omega_star < 2.0):
            raise ValueError(f"omega_star={self.omega_star} outside [1, 2)")


def spectral_radius(
    t: Matrix, tol: float = 1e-6, max_steps: int = _MAX_POWER_STEPS
) -> SpectralEstimate:
    """Estimate the spectral radius of a square matrix by power iteration.

    The seed vector is deterministic (entry i is 1 + 1e-3 * i, sign of the
    perturbation alternating) so repeated runs agree bit for bit.  Each
    step applies t once and renormalizes; the estimate is the geometric
    mean of the last 32 growth factors.  The run stops once the estimate
    agrees with its value from 32 steps earlier, to within
    ``tol * max(1, rho)``, for 8 consecutive steps.  Exhausting
    ``max_steps`` returns the last estimate with ``converged=False``;
    that happens for defective dominant eigenvalues, whose growth factors
    approach the radius only like 1 + O(1/k).
    """
    n = _require_square(t)
    if not (tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
    dense = t if isinstance(t, DenseMatrix) else t.to_dense()
    return _power_radius(np.array(dense.entries, dtype=np.float64).reshape(n, n), tol, max_steps)


def _power_radius(mat: np.ndarray, tol: float, max_steps: int) -> SpectralEstimate:
    """The power iteration of ``spectral_radius`` on a square array."""
    if not mat.any():
        return SpectralEstimate(0.0, 0, True, tol)
    n = mat.shape[0]
    v = np.array([1.0 + 1e-3 * i * (-1.0) ** i for i in range(n)], dtype=np.float64)
    v /= np.linalg.norm(v)

    logs: deque[float] = deque(maxlen=_WINDOW)
    ests: deque[float] = deque(maxlen=_WINDOW + 1)
    est = None
    stable = 0
    for k in range(1, max_steps + 1):
        w = mat @ v
        # np.linalg.norm of a 1-D float64 array is exactly this.
        g = math.sqrt(w.dot(w))
        if g == 0.0:
            # The iterate collapsed exactly: t is nilpotent on the seed,
            # which only happens when the spectral radius is 0.
            return SpectralEstimate(0.0, k, True, tol)
        logs.append(math.log(g))
        v = w / g
        if k >= _WINDOW:
            est = math.exp(sum(logs) / _WINDOW)
            ests.append(est)
            if len(ests) == _WINDOW + 1:
                if abs(est - ests[0]) <= tol * max(1.0, est):
                    stable += 1
                    if stable >= _STABLE_RUNS:
                        return SpectralEstimate(est, k, True, tol)
                else:
                    stable = 0
    if est is None:
        est = math.exp(sum(logs) / len(logs)) if logs else 0.0
    return SpectralEstimate(est, max_steps, False, tol)


def optimal_omega(rho_j: float) -> float:
    """The SOR weight 2 / (1 + sqrt(1 - rho_j^2)) minimizing rho(T_omega).

    Valid when the matrix is positive definite and tridiagonal and rho_j
    is the Jacobi radius; the resulting SOR radius is omega - 1.
    """
    if not (0.0 <= rho_j < 1.0):
        raise ValueError(f"optimal omega requires 0 <= rho_j < 1, got {rho_j}")
    return 2.0 / (1.0 + math.sqrt(1.0 - rho_j * rho_j))


def sor_radius(rho_j: float, omega: float) -> float:
    """Young's spectral radius of the SOR iteration matrix at weight omega.

    Valid under the hypotheses of ``optimal_omega``.  Below the optimal
    weight the radius is (omega rho_j + sqrt(omega^2 rho_j^2 - 4 (omega - 1)))^2 / 4;
    from the optimum on it is omega - 1.
    """
    if not (0.0 <= rho_j < 1.0):
        raise ValueError(f"SOR radius requires 0 <= rho_j < 1, got {rho_j}")
    if not (0.0 < omega < 2.0):
        raise ValueError(f"SOR radius requires 0 < omega < 2, got {omega}")
    if omega >= optimal_omega(rho_j):
        return omega - 1.0
    wr = omega * rho_j
    # Just below the optimum the discriminant is zero up to rounding.
    root = math.sqrt(max(0.0, wr * wr - 4.0 * (omega - 1.0)))
    return 0.25 * (wr + root) ** 2


def estimate_iterations(eta: float, rho: float, norm_a: float, first_step: float) -> int:
    """A priori iteration count to push the solution error below eta.

    Uses the fixed-point error bound with the spectral radius standing in
    for the iteration-matrix norm: the smallest k with
    rho^k * norm_a * first_step / (1 - rho) < eta, where first_step is
    ||x1 - x0||.  Returns 1 when the bound already holds at k = 1 or the
    log argument reaches 1.
    """
    if rho >= 1.0:
        raise ValueError(f"no a-priori estimate: spectral radius {rho} is not below 1")
    if rho <= 0.0:
        raise ValueError(f"spectral radius must lie in (0, 1), got {rho}")
    if not (eta > 0.0):
        raise ValueError(f"eta must be positive, got {eta}")
    if not (norm_a > 0.0):
        raise ValueError(f"matrix norm must be positive, got {norm_a}")
    if not (first_step > 0.0):
        raise ValueError(f"first-step displacement must be positive, got {first_step}")
    arg = eta * (1.0 - rho) / (norm_a * first_step)
    if arg >= 1.0:
        return 1
    return max(1, math.ceil(math.log(arg) / math.log(rho)))


def structure_flags(a: Matrix) -> dict[str, bool]:
    """The six structure flags of a profile, by definitional checks.

    Runs in O(nnz) on the split's kernel rows.  Symmetry matches each row's
    nonzero strict lower entries with its column's nonzero strict upper
    ones, tridiagonality and zero diagonals are exact comparisons, and
    dominance compares each |A_ii| against its off-diagonal row sum.
    Positive definiteness is tested only for symmetric matrices, by one
    envelope Cholesky factorization on the same rows that must keep every
    pivot positive.  It meets the pivots of the dense factorization bit for
    bit and costs O(sum of squared row envelopes): O(n) on tridiagonal
    input, O(n bw^2) on a band of width bw, and no matrix is made dense.
    """
    n = _require_square(a)
    split = _csr(a).split
    diag = split.diag.entries
    # above[i] collects the nonzero (j, -A_ji) with j < i, by ascending j.
    above: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    symmetric = strict = weak = tridiagonal = True
    zero_diag = False
    for i, row in enumerate(split.kernel_rows):
        d = abs(diag[i])
        off = 0.0
        below = []
        for j, v in row:
            off += abs(v)
            if v != 0.0:
                if j < i:
                    below.append((j, v))
                else:
                    above[j].append((i, v))
                if abs(i - j) > 1:
                    tridiagonal = False
        symmetric = symmetric and below == above[i]
        strict = strict and d > off
        weak = weak and d >= off
        zero_diag = zero_diag or d == 0.0
    return {
        "is_symmetric": symmetric,
        "is_strictly_diag_dominant": strict,
        "is_weakly_diag_dominant": weak,
        "is_tridiagonal": tridiagonal,
        "is_positive_definite": symmetric and _cholesky_succeeds(split),
        "has_zero_diagonal": zero_diag,
    }


def _cholesky_succeeds(split: TriangularSplit) -> bool:
    """Whether the Cholesky factorization of a symmetric matrix keeps every
    pivot positive, read from its split's diagonal and lower kernel rows.

    Row k of L is built over its envelope only, columns f_k to k, where f_k
    is the first stored column of row k; left of it the dense factor is
    exactly +0.0.  Each entry and each pivot subtract their products in
    ascending column order, as the dense column-by-column factorization
    does, and the products skipped at the head of a sum are exact zeros.
    So the pivots are the dense ones bit for bit: a skipped zero can change
    only the sign of a zero L entry, and a pivot subtracts squares.
    """
    first: list[int] = []
    low: list[list[float]] = []
    root: list[float] = []
    for k, (acc, pairs) in enumerate(zip(split.diag.entries, split.kernel_rows)):
        f = pairs[0][0] if pairs and pairs[0][0] < k else k
        row = [0.0] * (k - f)
        for j, v in pairs:
            if j > k:
                break
            row[j - f] = -v
        for j in range(f, k):
            s = row[j - f]
            fj = first[j]
            lj = low[j]
            for m in range(max(f, fj), j):
                s -= row[m - f] * lj[m - fj]
            row[j - f] = s / root[j]
        for v in row:
            acc -= v * v
        if not (acc > 0.0):
            return False
        first.append(f)
        low.append(row)
        root.append(math.sqrt(acc))
    return True


def _above_spectrum(e2, x: float) -> bool:
    """Whether x exceeds every eigenvalue of the zero-diagonal symmetric
    tridiagonal matrix whose squared off-diagonals are ``e2``: the LDL^T
    pivots of x I - B must all be positive (Sturm count zero)."""
    pivot = x
    for v in e2:
        if not (pivot > 0.0):
            return False
        pivot = x - v / pivot
    return pivot > 0.0


def _tridiagonal_jacobi_radius(diag, sub) -> float:
    """rho_j of a symmetric tridiagonal matrix with a positive diagonal.

    T_jacobi is similar to B = D^-1/2 (L + U) D^-1/2, which is symmetric
    with zero diagonal and squared off-diagonals
    e_i^2 = A[i+1][i]^2 / (A[i][i] A[i+1][i+1]), so its spectrum is
    symmetric about 0 and rho_j is its largest eigenvalue.  ``sub`` may be
    negated, as (-s/d)(-s/d') rounds like (s/d)(s/d').  Bisection
    keeps lo at or below that eigenvalue and hi strictly above it until
    the two are adjacent floats; hi is returned.  The e_i^2 are
    invariant under power-of-two scaling, and so is the result.
    """
    e2 = [(s / diag[i]) * (s / diag[i + 1]) for i, s in enumerate(sub)]
    if not any(e2):
        return 0.0
    e = [math.sqrt(v) for v in e2] + [0.0]
    # Gershgorin bound; doubled in the rare case it is attained exactly.
    hi = max(e[i - 1] + e[i] for i in range(len(e)))
    if not math.isfinite(hi):
        raise ValueError("the Jacobi iteration matrix overflows: diagonal too small")
    while not _above_spectrum(e2, hi):
        hi *= 2.0
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            return hi
        if _above_spectrum(e2, mid):
            hi = mid
        else:
            lo = mid


def _candidates(rho_j, rho_g, rho_s, sor_omega):
    # Tie-break preference order: Gauss-Seidel needs no weight, SOR beats
    # Jacobi when their radii agree.
    return (
        (Method.gauss_seidel(), rho_g),
        (Method.sor(sor_omega) if sor_omega is not None else None, rho_s),
        (Method.jacobi(), rho_j),
    )


def _best_method(rho_j, rho_g, rho_s, sor_omega):
    cands = [
        (m, r)
        for m, r in _candidates(rho_j, rho_g, rho_s, sor_omega)
        if m is not None and r is not None and r < 1.0
    ]
    if not cands:
        return None
    smallest = min(r for _, r in cands)
    for m, r in cands:
        if r <= smallest + _TIE_TOL:
            return m, r
    return None


def classify(a: Matrix) -> MatrixProfile:
    """Structure flags plus spectral radii for all three methods.

    For a symmetric tridiagonal matrix with a positive diagonal the radii
    are closed forms: rho_jacobi by Sturm-count bisection on the scaled
    matrix D^-1/2 (L + U) D^-1/2, rho_gauss_seidel = rho_jacobi^2, and,
    when the matrix is positive definite (so rho_jacobi < 1), SOR at the
    optimal weight with radius omega_star - 1.  No iteration matrix is
    built for these.

    Every other radius is measured by power iteration on the dense
    iteration matrix, built as a numpy array (the T of
    ``iteration_matrix``, without its ``DenseMatrix`` wrapper), SOR at the
    fixed fallback weight 1.5 with ``omega_star`` left unset.  A
    non-finite entry of T raises ``ValueError``.  Those estimates use a
    tolerance of 1e-10, far below the public default, and
    ``radii_converged`` records whether they all settled.  A zero diagonal leaves every radius unset and
    recommends nothing.
    """
    a = _csr(a)
    flags = structure_flags(a)
    if flags["has_zero_diagonal"]:
        return MatrixProfile(
            **flags,
            rho_jacobi=None,
            rho_gauss_seidel=None,
            rho_sor=None,
            omega_star=None,
            sor_omega=None,
            recommendation="none convergent",
        )
    split = a.split
    estimates = []

    def measured(method: Method) -> float:
        est = _power_radius(_iteration_array(split, method), _CLASSIFY_TOL, _MAX_POWER_STEPS)
        estimates.append(est)
        return est.rho

    diag = split.diag.entries
    if flags["is_symmetric"] and flags["is_tridiagonal"] and all(d > 0.0 for d in diag):
        lower, _, _ = split.band
        rho_j = _tridiagonal_jacobi_radius(diag, lower[1:])
        rho_g = rho_j * rho_j
    else:
        rho_j = measured(Method.jacobi())
        rho_g = measured(Method.gauss_seidel())
    # Positive definite and tridiagonal implies the closed-form branch above.
    if flags["is_positive_definite"] and flags["is_tridiagonal"] and rho_j < 1.0:
        omega_star = optimal_omega(rho_j)
        sor_omega = omega_star
        rho_s = omega_star - 1.0
    else:
        omega_star = None
        sor_omega = _FALLBACK_OMEGA
        rho_s = measured(Method.sor(sor_omega))
    pick = _best_method(rho_j, rho_g, rho_s, sor_omega)
    return MatrixProfile(
        **flags,
        rho_jacobi=rho_j,
        rho_gauss_seidel=rho_g,
        rho_sor=rho_s,
        omega_star=omega_star,
        sor_omega=sor_omega,
        recommendation=pick[0] if pick is not None else "none convergent",
        radii_converged=all(est.converged for est in estimates),
    )


def _sufficient_condition_note(profile: MatrixProfile, method: Method) -> str:
    if method.tag == "jacobi" and profile.is_strictly_diag_dominant:
        return "the matrix is strictly diagonally dominant"
    if method.tag == "gauss-seidel" and profile.is_positive_definite:
        return "the matrix is symmetric positive definite"
    if method.tag == "sor" and profile.omega_star is not None:
        return "the weight is optimal for this symmetric positive definite tridiagonal matrix"
    return "no sufficient condition holds; convergent by spectral estimate alone"


def select_method(profile: MatrixProfile) -> tuple[Method, str]:
    """The method with the smallest measured radius, with a rationale.

    Ties within 1e-9 go to Gauss-Seidel, then SOR, then Jacobi.  Raises
    ``NoConvergentMethodError`` when no radius is below 1.
    """
    if profile.has_zero_diagonal:
        raise NoConvergentMethodError(
            "no convergent stationary method: a zero diagonal entry rules out every sweep"
        )
    pick = _best_method(
        profile.rho_jacobi, profile.rho_gauss_seidel, profile.rho_sor, profile.sor_omega
    )
    if pick is None:
        raise NoConvergentMethodError(
            "no convergent stationary method: every spectral radius estimate is at least 1"
        )
    method, rho = pick
    if method.tag == "sor":
        head = f"sor(omega={method.omega:.6f})"
    else:
        head = method.tag
    rationale = (
        f"{head} has the smallest spectral radius estimate {rho:.6f}; "
        f"{_sufficient_condition_note(profile, method)}"
    )
    return method, rationale
