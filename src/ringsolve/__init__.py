"""Stationary iterative linear solvers with a ring-road traffic pipeline.

The package solves A x = b by Jacobi, Gauss-Seidel, or SOR sweeps, and
decides which of the three to use by measuring the spectral radius of
each method's iteration matrix.  On top of that sits a traffic pipeline:
per-exit AADT counts for a ring road become a singular conservation
system, which is reduced by dropping one column, solved through its
normal equations, and lifted back with a median shift.
"""

from .convergence_analysis import (
    MatrixProfile,
    SpectralEstimate,
    classify,
    estimate_iterations,
    optimal_omega,
    select_method,
    sor_radius,
    spectral_radius,
    structure_flags,
)
from .errors import (
    DivergenceError,
    NoConvergentMethodError,
    NumericalError,
    ParseError,
    ReductionError,
    ZeroDiagonalError,
)
from .matrix_core import (
    SparseMatrix,
    TriangularSplit,
    Vector,
    gram,
    inf_norm,
    matvec,
    norm2,
    split_dlu,
    transpose_matvec,
)
from .stationary_solvers import (
    IterationMatrix,
    Method,
    SolveReport,
    SolverConfig,
    gauss_seidel_sweep,
    iteration_matrix,
    jacobi_sweep,
    residual,
    solve,
    sor_sweep,
)
from .traffic_network import (
    Branch,
    FlowNetwork,
    Node,
    ReducedSystem,
    RingSpec,
    SegmentFlows,
    assemble,
    close_exits,
    generate_ring,
    reconstruct,
    reduce,
    solve_traffic,
)
from .cli_io import (
    cli,
    main,
    parse_aadt,
    parse_matrix,
    parse_network,
    parse_segments,
    parse_vector,
    write_aadt,
    write_matrix,
    write_network,
    write_segments,
    write_vector,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "NumericalError",
    "ZeroDiagonalError",
    "DivergenceError",
    "NoConvergentMethodError",
    "ReductionError",
    "ParseError",
    # matrix core
    "Vector",
    "SparseMatrix",
    "TriangularSplit",
    "matvec",
    "transpose_matvec",
    "split_dlu",
    "gram",
    "norm2",
    "inf_norm",
    # stationary solvers
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
    # convergence analysis
    "SpectralEstimate",
    "MatrixProfile",
    "spectral_radius",
    "optimal_omega",
    "sor_radius",
    "estimate_iterations",
    "structure_flags",
    "classify",
    "select_method",
    # traffic network
    "Node",
    "Branch",
    "FlowNetwork",
    "RingSpec",
    "ReducedSystem",
    "SegmentFlows",
    "assemble",
    "generate_ring",
    "reduce",
    "reconstruct",
    "close_exits",
    "solve_traffic",
    # file formats and CLI
    "parse_matrix",
    "write_matrix",
    "parse_vector",
    "write_vector",
    "parse_network",
    "write_network",
    "parse_aadt",
    "write_aadt",
    "parse_segments",
    "write_segments",
    "cli",
    "main",
]
