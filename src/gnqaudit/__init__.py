"""Privacy auditing for mini-batch SGD via per-example gradient uniqueness.

The pipeline: draw two-level membership/batch indicators (`sampling`), score
how linearly unique each example's gradient is against the rest (`geometry`),
convert scores into membership-leakage bits and error-probability floors
(`bounds`), train tiny models to produce real trajectories (`models`,
`training`), evaluate loss-threshold membership attacks (`attack`), rank and
remove high-risk points (`defense`), and verify every closed form against
brute-force enumeration (`oracle`). `cli` exposes all of it as subcommands
with deterministic machine-readable reports (`reports`).
"""

from ._version import __version__
from .attack import AttackResult, BinnedCurve, loss_attack, rank_auc, success_vs_gnq
from .bounds import (
    FanoBound,
    binary_entropy,
    fano_chain,
    fano_error_bound,
    inverse_binary_entropy,
    per_iteration_leakage,
    per_iteration_leakage_general,
    prior_entropy,
)
from .data import (
    Dataset,
    load_csv_dataset,
    make_blobs,
    make_linear_dataset,
    make_outlier_regression_dataset,
    save_csv_dataset,
)
from .defense import (
    DefenseReport,
    rank_examples,
    run_defense,
    run_defense_sweep,
    split_pool,
)
from .errors import (
    AuditError,
    CapacityError,
    ConfigurationError,
    DivergenceError,
    InsufficientDataError,
    ShapeError,
    VerificationError,
)
from .geometry import (
    DEFAULT_TOL,
    GradientSet,
    GramMode,
    diagonal_scores,
    gnq_exact,
    loo_scores,
    pdet_rank_one,
)
from .models import (
    InitKind,
    ModelKind,
    ModelSpec,
    accuracy,
    gradient_all,
    init_params,
    loss,
    loss_all,
    per_example_gradient,
    predict,
)
from .oracle import (
    CovarianceTriple,
    FormulaCheck,
    OracleReport,
    closed_form_covariances,
    enumerate_covariances,
    exact_discrete_mi,
    gaussian_leakage_from_covariances,
    run_oracle_checks,
)
from .sampling import (
    IndicatorDraw,
    IndicatorMoments,
    SamplingConfig,
    SamplingScheme,
    draw_indicators,
    enumerate_exact_moments,
    indicator_moments,
)
from .training import (
    AuditCadence,
    AuditRecord,
    TrainingTrajectory,
    audit,
    load_trajectory,
    save_trajectory,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
