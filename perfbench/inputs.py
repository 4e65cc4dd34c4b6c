"""Seeded input generators for the benchmark workloads.

Every generator draws only from the ``random.Random`` it is given, so one
seed always yields byte-identical files.  Values are written with 17
significant digits, the precision the program's own formats round-trip.
"""

from __future__ import annotations

import random
import shutil


def ring_counts(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Per-exit (inflow, outflow) AADT counts that balance exactly.

    Segment flows are drawn first; exit i then nets flow_i - flow_{i+1},
    the ring's junction equation, split over an on-ramp and an off-ramp
    that share a random base volume.  Integer counts keep the total
    inflow equal to the total outflow with no rounding.
    """
    flows = [rng.randint(20_000, 80_000) for _ in range(n)]
    exits = []
    for i in range(n):
        net = flows[i] - flows[(i + 1) % n]
        base = rng.randint(500, 5_000)
        exits.append((base + max(net, 0), base + max(-net, 0)))
    return exits


def aadt_text(exits: list[tuple[int, int]]) -> str:
    rows = [f"{i},{inflow},{outflow}" for i, (inflow, outflow) in enumerate(exits, start=1)]
    return "exit,inflow,outflow\n" + "\n".join(rows) + "\n"


def convection_diffusion(rng: random.Random, m: int, peclet: float):
    """Upwind 5-point convection-diffusion on an m x m grid, and a rhs.

    The flow runs along (2, 1) with mesh Peclet number ``peclet``, so the
    matrix is a nonsymmetric, weakly diagonally dominant M-matrix: not SPD
    and not tridiagonal.  Returns the sorted (row, col, value) triples and
    the rhs.
    """
    px, py = peclet, peclet / 2.0
    south, west = -(1.0 + 2.0 * py), -(1.0 + 2.0 * px)
    diag = 4.0 + 2.0 * px + 2.0 * py
    triples = []
    for r in range(m):
        for c in range(m):
            i = r * m + c
            if r > 0:
                triples.append((i, i - m, south))
            if c > 0:
                triples.append((i, i - 1, west))
            triples.append((i, i, diag))
            if c < m - 1:
                triples.append((i, i + 1, -1.0))
            if r < m - 1:
                triples.append((i, i + m, -1.0))
    rhs = [rng.uniform(-1.0, 1.0) for _ in range(m * m)]
    return triples, rhs


def sparse_matrix_text(n: int, triples) -> str:
    lines = [f"sparse {n} {n} {len(triples)}"]
    lines += [f"{i} {j} {v:.17g}" for i, j, v in triples]
    return "\n".join(lines) + "\n"


def vector_text(values) -> str:
    return "".join(f"{v:.17g}\n" for v in values)


# Ring sizes and pool shapes per workload.  A pool is one pass of the
# closed loop; its size mix is fixed and only the counts and the Peclet
# numbers change with the seed, so medians compare across seeds.
RING_SMALL_SIZES = (32, 48, 64)
RING_SMALL_SETS = 4
RING_LARGE_SIZE = 512
RING_LARGE_SETS = 3
RING_DAILY_SIZE = 256
RING_DAILY_DAYS = 16
SPARSE_GRIDS = (16, 17, 18, 19, 20)
# Mesh Peclet numbers: each grid size gets one input per centre, jittered
# by +-0.025, so every pass holds the same mix of sizes and flow strengths.
# Request time falls by about 25 % from P = 0.05 to 0.35; the narrow range
# keeps the grid sizes apart in time, so the median request stays on the
# 18 x 18 grids whatever the seed.  With much stronger flow, SOR at the
# fallback weight 1.5 passes its optimum: the dominant eigenvalues of T then
# share one modulus and power iteration runs to its step limit, which would
# hide the rest of the pipeline.
SPARSE_PECLET_CENTRES = (0.15, 0.2, 0.25)
SPARSE_PECLET_JITTER = 0.025
WARMUP_RING = 16
WARMUP_GRID = 4
WARMUP_PECLET = 0.1

RING_ETA = 1e-6
SPARSE_ETA = 1e-8

WORKLOADS = ("ring-small", "ring-large", "ring-daily", "general-sparse")


def prepare(workload: str, seed: int, work) -> dict:
    """Write the workload's inputs under ``work`` and return its manifest.

    The manifest lists each request of one pass with its input files, the
    reference answer and the tolerances it is checked against.
    """
    import reference

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    # Start from an empty directory: every file below is written fresh.
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def write(name: str, text: str) -> str:
        path = work / name
        path.write_text(text)
        return str(path)

    def ring_item(name: str, n: int) -> dict:
        exits = ring_counts(rng, n)
        item = {"aadt": write(name, aadt_text(exits)), "n": n}
        item.update(reference.ring(exits, RING_ETA))
        return item

    def sparse_item(name: str, m: int, centre: float) -> dict:
        peclet = rng.uniform(centre - SPARSE_PECLET_JITTER, centre + SPARSE_PECLET_JITTER)
        triples, rhs = convection_diffusion(rng, m, peclet)
        item = {
            "matrix": write(f"{name}.mat", sparse_matrix_text(m * m, triples)),
            "rhs": write(f"{name}.rhs", vector_text(rhs)),
            "peclet": peclet,
        }
        item.update(reference.sparse(m * m, triples, rhs, SPARSE_ETA))
        return item

    triples, rhs = convection_diffusion(rng, WARMUP_GRID, WARMUP_PECLET)
    manifest = {
        "workload": workload,
        "seed": seed,
        "eta": SPARSE_ETA if workload == "general-sparse" else RING_ETA,
        "warmup": {
            "ring": write("warmup.csv", aadt_text(ring_counts(rng, WARMUP_RING))),
            "matrix": write("warmup.mat", sparse_matrix_text(WARMUP_GRID**2, triples)),
            "rhs": write("warmup.rhs", vector_text(rhs)),
        },
    }

    if workload == "ring-small":
        requests = [
            ring_item(f"ring{k}-{n}.csv", n)
            for k in range(RING_SMALL_SETS)
            for n in RING_SMALL_SIZES
        ]
    elif workload == "ring-large":
        requests = [ring_item(f"ring{k}.csv", RING_LARGE_SIZE) for k in range(RING_LARGE_SETS)]
    elif workload == "ring-daily":
        requests = [ring_item(f"day{k}.csv", RING_DAILY_SIZE) for k in range(RING_DAILY_DAYS)]
    else:
        requests = [
            sparse_item(f"grid{k}-{m}", m, centre)
            for k, centre in enumerate(SPARSE_PECLET_CENTRES)
            for m in SPARSE_GRIDS
        ]
    manifest["requests"] = requests
    return manifest
