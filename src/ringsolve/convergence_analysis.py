"""Spectral radii, matrix classification, and method selection.

Young's theory of consistently ordered matrices gives most radii without
iterating.  A is consistently ordered when integer levels gamma exist with
gamma_j - gamma_i = +1 for every nonzero off-diagonal A_ij with j > i and
-1 with j < i; a breadth-first search over the nonzero off-diagonals finds
them or proves that none exist, exactly and in O(nnz log nnz).  Tridiagonal
matrices need no search (gamma_i = i), which covers the normal matrices
of ring roads.  For such a matrix with a nonzero diagonal
rho_gs = rho_j^2.  When the Jacobi spectrum is also real and rho_j < 1,
the optimal SOR weight is omega* = 2 / (1 + sqrt(1 - rho_j^2)) with radius
omega* - 1, and Young's formula gives the radius at any other weight
(``sor_radius``).  The spectrum is certified real by symmetry with a
positive diagonal, or by a positive diagonal scaling that symmetrises a
matrix with a positive diagonal.

Each radius has one source.  rho_j is exact for a symmetric tridiagonal
matrix with a positive diagonal: the largest eigenvalue of
D^-1/2 (L + U) D^-1/2, found by Sturm-count bisection in O(n) per step.
Where the Jacobi spectrum is otherwise certified real, T_jacobi is
similar to the symmetric matrix B_ij = sign(T_ij) sqrt(T_ij T_ji), and a
Lanczos iteration on B finds rho_j in O(nnz) per step from the stored
entries alone (``_lanczos_radius``).  Young's relations then give rho_gs
and, with omega*, rho_sor.  What is left goes to power iteration on the
dense iteration matrix: rho_j of a matrix without a certificate, rho_gs of
one that is not consistently ordered, and rho_sor wherever omega* is not
certified, at Young's weight optimal_omega(sqrt(rho_gs)) when rho_gs < 1
and not at all otherwise.  T is built as a dense numpy array by forward
substitution on whole rows (``_iteration_array``), the T that
``iteration_matrix`` returns in CSR form, bit for bit.  Each power step
applies it to the iterate and renormalizes, from a fixed seed.
Growth factors are averaged geometrically over a trailing window of 32
steps, which settles when the dominant eigenvalues are a +/- pair, where a
single-step ratio oscillates forever.  It does not settle on a
complex-conjugate pair of a matrix that is not normal: the growth factors
then oscillate with the pair's argument, and a 32-step window averages
them out only when 32 steps span whole turns.  On T_sor at omega = 1.5
for the 3 x 3 matrix of ``fixtures/sec21.mat`` it runs all 50 000 steps
and reports 0.50133 against a true 0.50331, with ``converged`` False.

Classification checks each method's sufficient condition (diagonal
dominance for Jacobi, symmetric positive definite for Gauss-Seidel, the
optimal weight of a consistently ordered matrix for SOR), obtains all
three radii, and recommends the method with the smallest one.  All of it
reads views that the CSR matrix keeps (``matrix_core``), each derived once:
the structure flags, the ordering search, the symmetrisability test and
Lanczos read the split's ``couplings``, numpy arrays of the nonzero
off-diagonals; the Cholesky test reads its kernel rows and Sturm
bisection its band.  ``solve`` reuses the split and its kernel rows.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergentMethodError
from .matrix_core import SparseMatrix, TriangularSplit, _Couplings, _require_square
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
# Radii this close together are treated as tied during method selection,
# and a radius this close to 1 counts as 1.
_TIE_TOL = 1e-9
# Lanczos checks its top Ritz value every this many steps, and stops at
# this dimension when it is below n.
_LANCZOS_CHECK = 8
_LANCZOS_MAX_DIM = 500
# Largest |log| of the ratio r_i A_ij / (r_j A_ji) that ``_symmetrisable``
# accepts on an edge outside the search tree, about a relative error.
_SYMMETRISE_TOL = 1e-10


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
    SOR weight's hypotheses hold: the matrix is consistently ordered with a
    real Jacobi spectrum (certified by symmetry or a symmetrising positive
    diagonal scaling, with a positive diagonal) and rho_jacobi < 1.
    ``sor_omega`` is the weight rho_sor belongs to: omega_star, or else
    Young's optimal_omega(sqrt(rho_gauss_seidel)) on the measured radius,
    and None with rho_sor when rho_gauss_seidel is not below 1 by more than
    1e-9.  A priori iteration counts need a right-hand side, so they live
    in ``SolveReport.predicted_counts``, not here.
    ``radii_converged`` is False when a radius came from a power
    iteration that ran out of steps before its estimate settled, or from
    a Lanczos run that reached its dimension cap before its Ritz value
    settled; radii from Sturm bisection and Young's relations count as
    settled.
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
    t: SparseMatrix, tol: float = 1e-6, max_steps: int = _MAX_POWER_STEPS
) -> SpectralEstimate:
    """Estimate the spectral radius of a square matrix by power iteration.

    The seed vector is deterministic (entry i is 1 + 1e-3 * i, sign of the
    perturbation alternating) so repeated runs agree bit for bit.  Each
    step applies t once and renormalizes; the estimate is the geometric
    mean of the last 32 growth factors.  The run stops once the estimate
    agrees with its value from 32 steps earlier, to within
    ``tol * max(1, rho)``, for 8 consecutive steps.  Exhausting
    ``max_steps`` returns the last estimate with ``converged=False``.
    That happens for defective dominant eigenvalues, whose growth factors
    approach the radius only like 1 + O(1/k), and for a dominant
    complex-conjugate pair of a matrix that is not normal, whose growth
    factors oscillate with the pair's argument; the window averages them
    out only when 32 steps span whole turns, so the last estimate may be
    off in the third digit.
    """
    n = _require_square(t)
    if not (tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
    mat = np.zeros((n, n))
    rows = np.repeat(np.arange(n), np.diff(t.row_offsets))
    mat[rows, np.array(t.col_indices, dtype=np.intp)] = t.values
    return _power_radius(mat, tol, max_steps)


def _seed(n: int) -> np.ndarray:
    """The deterministic unit start vector of every iteration here: entry i
    is 1 + 1e-3 * i with the sign of the perturbation alternating."""
    v = np.array([1.0 + 1e-3 * i * (-1.0) ** i for i in range(n)], dtype=np.float64)
    return v / np.linalg.norm(v)


def _power_radius(mat: np.ndarray, tol: float, max_steps: int) -> SpectralEstimate:
    """The power iteration of ``spectral_radius`` on a square array.

    The 32-step window settles on a dominant +/- pair; it need not settle
    on a complex-conjugate pair (see ``spectral_radius``).
    """
    if not mat.any():
        return SpectralEstimate(0.0, 0, True, tol)
    v = _seed(mat.shape[0])

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

    Valid when the matrix is consistently ordered with a real Jacobi
    spectrum and rho_j is its Jacobi radius; the resulting SOR radius is
    omega - 1.
    """
    if not (0.0 <= rho_j < 1.0):
        raise ValueError(f"optimal omega requires 0 <= rho_j < 1, got {rho_j}")
    return 2.0 / (1.0 + math.sqrt(1.0 - rho_j * rho_j))


def sor_radius(rho_j: float, omega: float) -> float:
    """Young's spectral radius of the SOR iteration matrix at weight omega.

    Valid under the hypotheses of ``optimal_omega``: a consistently ordered
    matrix with a real Jacobi spectrum.  Below the optimal
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


def structure_flags(a: SparseMatrix) -> dict[str, bool]:
    """The six structure flags of a profile, by definitional checks.

    Runs in O(nnz) on the split's ``couplings``, the nonzero off-diagonals.
    A is symmetric when every coupling has a partner of equal value and
    tridiagonal when every coupling has |i - j| <= 1.  Dominance compares
    each |A_ii| against its off-diagonal row sum, added in column order by
    ``np.bincount``; the stored zeros the couplings leave out add nothing
    to such a sum.  Positive definiteness is tested only for symmetric
    matrices, by one envelope Cholesky factorization on the kernel rows
    that must keep every pivot positive.  It meets the pivots of the dense
    factorization bit for bit and costs O(sum of squared row envelopes):
    O(n) on tridiagonal input, O(n bw^2) on a band of width bw, and no
    matrix is made dense.
    """
    n = _require_square(a)
    split = a.split
    _, rows, cols, values, partner = split.couplings
    diag = np.abs(split.diag.entries)
    off = np.bincount(rows, weights=np.abs(values), minlength=n)
    symmetric = bool((partner >= 0).all() and (values[partner] == values).all())
    return {
        "is_symmetric": symmetric,
        "is_strictly_diag_dominant": bool((diag > off).all()),
        "is_weakly_diag_dominant": bool((diag >= off).all()),
        "is_tridiagonal": bool((np.abs(rows - cols) <= 1).all()),
        "is_positive_definite": symmetric and _cholesky_succeeds(split),
        "has_zero_diagonal": bool((diag == 0.0).any()),
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


def _ordering_search(couplings: _Couplings):
    """Levels gamma that consistently order A, with the search tree that
    found them, or None when no such levels exist.

    A breadth-first search from the lowest unvisited row over the
    couplings, the nonzero off-diagonals of either triangle: reaching j
    from i over A_ij or A_ji sets gamma_j = gamma_i + 1 when j > i and
    gamma_i - 1 when j < i, and meeting a visited j at another level
    proves that no gamma exists.  Row i's neighbours are the other ends of
    its couplings in row-major order, which a stable sort of the doubled
    coupling list on its first end gives.  Each search root has level 0.
    Integers only, so no tolerance; O(nnz log nnz).  The tree lists its
    (parent, child) edges in the order found, so every parent comes before
    its children.
    """
    n, rows, cols, _, _ = couplings
    ends = np.column_stack((rows, cols)).ravel()
    order = np.argsort(ends, kind="stable")
    neighbours = np.column_stack((cols, rows)).ravel()[order].tolist()
    start = np.concatenate(([0], np.cumsum(np.bincount(ends, minlength=n)))).tolist()
    gamma: list[int | None] = [None] * n
    tree: list[tuple[int, int]] = []
    for root in range(n):
        if gamma[root] is not None:
            continue
        gamma[root] = 0
        queue = [root]
        for i in queue:
            for j in neighbours[start[i] : start[i + 1]]:
                level = gamma[i] + (1 if j > i else -1)
                if gamma[j] is None:
                    gamma[j] = level
                    tree.append((i, j))
                    queue.append(j)
                elif gamma[j] != level:
                    return None
    return gamma, tree


def _symmetrisable(couplings: _Couplings, tree) -> bool:
    """Whether a positive diagonal S makes S A S^-1 symmetric.

    Every nonzero off-diagonal A_ij needs a partner A_ji with
    A_ij A_ji > 0.  Then S = diag(sqrt(r)) symmetrises A exactly when
    r_i A_ij = r_j A_ji on every edge.  ``tree`` is a spanning forest of
    those edges with parents first (``_ordering_search``); it fixes log r
    from r = 1 at each root, and every other edge closes one cycle whose
    condition is checked to ``_SYMMETRISE_TOL`` = 1e-10 in
    |log(r_i A_ij / (r_j A_ji))|, far above the rounding of a log-ratio sum
    along a tree path and far below the break of a generic cycle.
    """
    n, rows, cols, values, partner = couplings
    if (partner < 0).any():
        return False
    with np.errstate(over="ignore", under="ignore"):
        ratio = values / values[partner]
    if not ((ratio > 0.0) & (ratio < math.inf)).all():
        return False
    log_ratio = np.log(ratio)
    keys = rows * n + cols
    edges = np.searchsorted(keys, [p * n + c for p, c in tree])
    log_r = [0.0] * n
    for (p, c), lr in zip(tree, log_ratio[edges].tolist()):
        log_r[c] = log_r[p] + lr
    log_r = np.array(log_r)
    return bool((np.abs(log_r[rows] - log_r[cols] + log_ratio) <= _SYMMETRISE_TOL).all())


def _lanczos_radius(diag, couplings: _Couplings, tol: float, max_dim: int) -> SpectralEstimate:
    """rho_j of a matrix whose Jacobi spectrum is certified real, by Lanczos.

    T = D^-1 (L + U) is similar to the symmetric matrix B with
    B_ij = sign(T_ij) sqrt(T_ij T_ji) when A is symmetric or symmetrised by
    a positive diagonal scaling, and has a positive diagonal.  Every entry
    of T is checked finite first, and a non-finite one raises the
    ``ValueError`` of ``_iteration_array`` with T's row-major index.  B is
    formed as sign(T_ij) sqrt|T_ij| sqrt|T_ji|, so B_ij and B_ji are the
    same double, and scaled by a power of two so that max |B_ij| lies in
    [0.5, 1), where no product overflows.  It is applied from its stored
    entries, one ``np.bincount`` per step, and no n x n array is built.
    Lanczos runs from the seed of ``_power_radius`` with full
    reorthogonalisation, applied twice, and its basis grows by doubling,
    only as far as the steps taken.

    Every ``_LANCZOS_CHECK`` = 8 steps, at the last step and wherever the
    Krylov space closes (beta_k = 0), the small tridiagonal is
    diagonalised (``np.linalg.eigh``); its top |Ritz value| theta is the
    estimate.  The run stops when the residual bound beta_k |s_k|, with
    s_k the last entry of theta's Ritz vector, is at most ``tol * theta``,
    which puts an eigenvalue within that distance of theta, or when theta
    repeats the previous check's value to within ``tol * theta``.  A
    Ritz value never exceeds the extreme eigenvalues, so the estimate
    approaches rho_j from below.  A run that reaches ``max_dim`` steps
    short of n without stopping returns its last estimate with
    ``converged=False``; n steps span the whole space, where the residual
    is rounding.
    """
    n, rows, cols, values, partner = couplings
    d = np.array(diag, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        t = values / d[rows]
    bad = np.flatnonzero(~np.isfinite(t))
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            f"matrix entry {int(rows[k]) * n + int(cols[k])} is not finite: {float(t[k])!r}"
        )
    b = np.copysign(np.sqrt(np.abs(t)) * np.sqrt(np.abs(t[partner])), t)
    if not b.any():
        return SpectralEstimate(0.0, 0, True, tol)
    _, scale = math.frexp(float(np.abs(b).max()))
    b = np.ldexp(b, -scale)
    dim = min(n, max_dim)
    basis = np.empty((min(dim, _LANCZOS_CHECK), n))
    basis[0] = _seed(n)
    alpha: list[float] = []
    beta: list[float] = []
    last = math.nan
    for k in range(1, dim + 1):
        q = basis[k - 1]
        w = np.bincount(rows, weights=b * q[cols], minlength=n)
        alpha.append(float(q @ w))
        span = basis[:k]
        w -= (span @ w) @ span
        w -= (span @ w) @ span
        norm = math.sqrt(w @ w)
        if k % _LANCZOS_CHECK == 0 or k == dim or norm == 0.0:
            theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
            top = 0 if -theta[0] > theta[-1] else k - 1
            rho = abs(float(theta[top]))
            r = norm * abs(float(s[-1, top]))
            converged = r <= tol * rho or abs(rho - last) <= tol * rho
            last = rho
            if converged or k == dim:
                return SpectralEstimate(math.ldexp(rho, scale), k, converged, tol)
        beta.append(norm)
        if k == len(basis):
            basis = np.concatenate([basis, np.empty((min(k, dim - k), n))])
        basis[k] = w / norm


def _candidates(rho_j, rho_g, rho_s, sor_omega):
    # Tie-break preference order: Gauss-Seidel needs no weight, SOR beats
    # Jacobi when their radii agree.
    return (
        (Method.gauss_seidel(), rho_g),
        (Method.sor(sor_omega) if sor_omega is not None else None, rho_s),
        (Method.jacobi(), rho_j),
    )


def _best_method(rho_j, rho_g, rho_s, sor_omega):
    # A radius within the tie tolerance of 1 is tied with 1: not convergent.
    cands = [
        (m, r)
        for m, r in _candidates(rho_j, rho_g, rho_s, sor_omega)
        if m is not None and r is not None and r < 1.0 - _TIE_TOL
    ]
    if not cands:
        return None
    smallest = min(r for _, r in cands)
    for m, r in cands:
        if r <= smallest + _TIE_TOL:
            return m, r
    return None


def classify(a: SparseMatrix) -> MatrixProfile:
    """Structure flags plus spectral radii for all three methods.

    rho_jacobi comes from Sturm-count bisection on D^-1/2 (L + U) D^-1/2
    for a symmetric tridiagonal matrix with a positive diagonal.  Any other
    matrix with a positive diagonal whose Jacobi spectrum is certified
    real, by symmetry or by being consistently ordered and
    ``_symmetrisable``, gets it from ``_lanczos_radius`` on the
    symmetrised T_jacobi, which builds no n x n array.  The ordering search
    and the symmetrisability test therefore run first.  For a consistently
    ordered matrix (always so when tridiagonal, otherwise found by
    ``_ordering_search``) rho_gauss_seidel = rho_jacobi^2 by Young's
    relation at omega = 1.  When such a matrix also has a certified real
    Jacobi spectrum and rho_jacobi < 1, SOR is profiled at the optimal
    weight omega_star with radius omega_star - 1.  A Lanczos rho_jacobi
    approaches the truth from below; it is raised by its tolerance 1e-10
    before omega_star is taken from it, so that its error cannot put
    omega_star below the true optimum.

    Every other radius is measured by power iteration on the dense
    iteration matrix, built as a numpy array (the T of
    ``iteration_matrix``, without its CSR wrapper).  SOR is measured at
    Young's weight optimal_omega(sqrt(rho_gauss_seidel)) on the radius just
    found, with ``omega_star`` unset, and is not profiled when
    rho_gauss_seidel is not below 1 by more than 1e-9.  Both
    Lanczos and power iteration raise ``ValueError`` on a non-finite entry
    of T, naming its row-major index.  They use a tolerance of 1e-10, far
    below the public default, and ``radii_converged`` records whether they
    all settled.  A zero diagonal leaves every radius unset and recommends
    nothing.
    """
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
    couplings = split.couplings
    positive = all(d > 0.0 for d in diag)
    symmetric = flags["is_symmetric"]
    tridiagonal = flags["is_tridiagonal"]
    # gamma_i = i orders a tridiagonal matrix; a nonsymmetric one still
    # needs the search tree for ``_symmetrisable``.
    search = None if tridiagonal and symmetric else _ordering_search(couplings)
    ordered = tridiagonal or search is not None
    if symmetric and tridiagonal and positive:
        lower, _, _ = split.band
        rho_j = _tridiagonal_jacobi_radius(diag, lower[1:])
        rho_up = rho_j
        real_spectrum = True
    else:
        real_spectrum = positive and (
            symmetric or (search is not None and _symmetrisable(couplings, search[1]))
        )
        if real_spectrum:
            est = _lanczos_radius(diag, couplings, _CLASSIFY_TOL, _LANCZOS_MAX_DIM)
            estimates.append(est)
            rho_j = est.rho
        else:
            rho_j = measured(Method.jacobi())
        # Below the optimum the SOR radius grows like the square root of
        # the shortfall in omega, above it like omega - 1, so omega_star is
        # taken from the estimate raised by its tolerance, not from one
        # that may sit below the true radius.
        rho_up = rho_j * (1.0 + _CLASSIFY_TOL)
    rho_g = rho_j * rho_j if ordered else measured(Method.gauss_seidel())
    omega_star = sor_omega = rho_s = None
    if ordered and real_spectrum and rho_up < 1.0:
        omega_star = sor_omega = optimal_omega(rho_up)
        rho_s = omega_star - 1.0
    elif rho_g < 1.0 - _TIE_TOL:
        sor_omega = optimal_omega(math.sqrt(rho_g))
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
        return "the weight is Young's optimum for this consistently ordered matrix"
    if method.tag == "sor" and profile.is_positive_definite:
        return (
            "the matrix is symmetric positive definite, so SOR converges "
            "for every 0 < omega < 2 (Ostrowski-Reich)"
        )
    return "no sufficient condition holds; convergent by spectral estimate alone"


def select_method(profile: MatrixProfile) -> tuple[Method, str]:
    """The method with the smallest measured radius, with a rationale.

    Ties within 1e-9 go to Gauss-Seidel, then SOR, then Jacobi.  Raises
    ``NoConvergentMethodError`` when no radius is below 1 by more than
    that tolerance.
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
            "no convergent stationary method: "
            "every spectral radius estimate is 1 or more, to within 1e-9"
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
