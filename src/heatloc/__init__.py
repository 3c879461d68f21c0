"""heatloc: off-grid localization of instantaneous heat sources.

Recovers positions and amplitudes of point heat sources from a handful of
spatiotemporal temperature samples by total-variation-norm minimization over
measures, solved through adaptive grid refinement of discretized dual
problems.  Includes a certificate lab that numerically verifies the
soft-recovery guarantees and a fixed-grid smoothed-l0 baseline.
"""

from .baseline import Sl0Config, sl0_solve, validate_rho
from .bench import (
    MetricsRecord,
    ScenarioConfig,
    emit_results,
    match_sources,
    run_scenario,
)
from .certificates import (
    CertConfig,
    CertificateReport,
    build_certificate_g,
    jackson_coefficients,
    jackson_kernel,
    noisy_recovery_radius,
    recovery_radius,
    verify_soft_conditions,
    verify_soft_stable_inequality,
)
from .field import (
    KernelParams,
    SparseMeasure,
    add_noise,
    autocorrelation,
    evaluate_field,
    green_kernel,
    tv_norm,
)
from .operators import (
    DictionaryMatrix,
    DualCertificate,
    MeasurementOperator,
    RhoBounds,
    SampleSet,
    baseline_matrix,
    build_dictionary,
    certificate_eval,
    certificate_gradient,
    measure,
    rho_bounds,
)
from .refinement import (
    CandidateGrid,
    RecoveryResult,
    RefinementConfig,
    recover_amplitudes,
    refine_grid,
    run_refinement,
    select_peaks_1d,
    select_peaks_2d,
)
from .solvers import (
    KktResiduals,
    SolveOutcome,
    SolverConfig,
    solve_l1_equality,
    solve_lasso,
)

__version__ = "0.1.0"
