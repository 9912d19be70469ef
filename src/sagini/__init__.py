"""Inequality indices that see distributional asymmetry, not just dispersion.

The package computes the classical Lorenz-gap dispersion index (``gini``)
together with upper- and lower-tail weighted variants (``g_right``,
``g_left``) and their skew-adjusted combination (``sag``), from raw
observations or directly from Lorenz-curve points. The public API:

* indices: :func:`build_dataset` validates raw values into a
  :class:`Dataset`, :func:`report` gives all four indices of one as an
  :class:`InequalityReport`; :func:`metrics_from_lorenz` does the same
  from ``(p, q)`` points. :func:`lorenz_curve` and
  :func:`lorenz_from_points` build the :class:`LorenzCurve` itself;
* exact checks: :func:`rational_report` and
  :func:`rational_report_from_lorenz` (a :class:`RationalReport`, the
  ground truth), :func:`pairwise_gini`, and rank-preserving transfers
  (:class:`TransferSpec`, :func:`apply_transfer`);
* seeded Monte-Carlo sweeps: :data:`FAMILIES`, :class:`ExperimentConfig`,
  :func:`generate`, :func:`sensitivity_sweep` (a :class:`SweepResult`,
  which holds the index columns and makes a :class:`SweepRow` per
  replication on request);
* errors: :class:`SaginiError`, the base of one typed error per kind of
  validation failure.

The ``sagini`` command line lives in :mod:`sagini.cli`.
"""

__version__ = "0.1.0"

from .errors import (
    BadEndpointError,
    BadParamsError,
    EmptyOrSingletonError,
    InvalidNError,
    InvalidRanksError,
    NonFiniteValueError,
    NonPositiveTotalError,
    ParseError,
    RankViolationError,
    SaginiError,
    UnequalSpacingError,
)
from .generators import (
    FAMILIES,
    ExperimentConfig,
    SweepResult,
    SweepRow,
    generate,
    sensitivity_sweep,
)
from .metrics import (
    Dataset,
    InequalityReport,
    LorenzCurve,
    build_dataset,
    lorenz_curve,
    lorenz_from_points,
    metrics_from_lorenz,
    report,
)
from .oracle import (
    RationalReport,
    TransferSpec,
    apply_transfer,
    pairwise_gini,
    rational_report,
    rational_report_from_lorenz,
)

__all__ = [
    "__version__",
    # metrics
    "Dataset",
    "LorenzCurve",
    "InequalityReport",
    "build_dataset",
    "lorenz_curve",
    "lorenz_from_points",
    "report",
    "metrics_from_lorenz",
    # oracle
    "RationalReport",
    "TransferSpec",
    "rational_report",
    "rational_report_from_lorenz",
    "pairwise_gini",
    "apply_transfer",
    # generators
    "FAMILIES",
    "ExperimentConfig",
    "SweepRow",
    "SweepResult",
    "generate",
    "sensitivity_sweep",
    # errors
    "SaginiError",
    "EmptyOrSingletonError",
    "NonFiniteValueError",
    "NonPositiveTotalError",
    "InvalidNError",
    "UnequalSpacingError",
    "BadEndpointError",
    "InvalidRanksError",
    "RankViolationError",
    "BadParamsError",
    "ParseError",
]
