"""Independent numpy answers and the tolerances the program is held to.

Nothing here calls the program.  Each tolerance is an error bound that a
solve stopping at ||b - A x||_2 < eta must meet, plus a round-off allowance
of 1e-9 relative to the answer's largest entry.
"""

from __future__ import annotations

import numpy as np

ROUNDOFF = 1e-9


def ring(exits, eta: float) -> dict:
    """Reference flows for a balanced ring and the bounds checked on them.

    Exit i conserves x_i - x_{i+1} = inflow_i - outflow_i.  Dropping the
    last unknown gives A~ (n x n-1) and the normal system N y = A~^T b,
    solved densely here; the median of y is then added along the all-ones
    null direction, as the program does.

    With e the error in y and ||N e|| < eta: ||e||_2 < eta / lambda_min(N),
    the median shift at most doubles the largest entry error, and the full
    conservation residual ||A~ e||_2 = sqrt(e^T N e) < eta / sqrt(lambda_min).
    """
    n = len(exits)
    b = np.array([float(i - o) for i, o in exits])
    a = np.eye(n) - np.roll(np.eye(n), 1, axis=1)
    a_tilde = a[:, : n - 1]
    normal = a_tilde.T @ a_tilde
    y = np.linalg.solve(normal, a_tilde.T @ b)
    shift = float(np.median(y))
    full = np.append(y + shift, shift)
    lam_min = float(np.linalg.eigvalsh(normal)[0])
    scale = ROUNDOFF * max(1.0, float(np.abs(full).max()))
    return {
        "net": b.tolist(),
        "ref": full.tolist(),
        "tol": 2.0 * eta / lam_min + scale,
        "tol_conservation": eta / lam_min**0.5 + ROUNDOFF * max(1.0, float(np.abs(b).max())),
    }


def sparse(n: int, triples, rhs, eta: float) -> dict:
    """``numpy.linalg.solve`` answer and the bound ||x - x*||_2 < eta / sigma_min."""
    a = np.zeros((n, n))
    for i, j, v in triples:
        a[i, j] = v
    x = np.linalg.solve(a, np.array(rhs))
    sigma_min = float(np.linalg.svd(a, compute_uv=False)[-1])
    return {
        "ref": x.tolist(),
        "tol": eta / sigma_min + ROUNDOFF * max(1.0, float(np.abs(x).max())),
    }
