"""Granular wind-speed forecasting with ensemble weight optimization."""

from .errors import GranucastError
from .timeseries import (
    RawSeries,
    Series,
    SplitSpec,
    chrono_split,
    interpolate_gaps,
    kfold_split,
    load_series,
)
from .granulation import Granule, granulate_series, granulate_window
from .fuzzy_rough import ClusterConfig, ClusterResult, extract_features
from .learners import (
    KINDS,
    LearnerConfig,
    SupervisedSet,
    fit_learner,
    load_model,
    make_supervised,
    save_model,
)
from .sunflower import (
    Bounds,
    OptimizationProblem,
    OptimizerConfig,
    ParetoArchive,
    optimize,
)
from .benchmarks import front_quality, zdt_problem
from .ensemble import (
    ForecastBundle,
    IntervalModel,
    PredictionPanel,
    combine,
    fit_intervals,
    fit_weights,
    forecast,
)
from .evaluation import (
    DmResult,
    IntervalScores,
    PointScores,
    dm_test,
    interval_scores,
    iri,
    point_scores,
)
from .pipeline import run_cv, run_forecast
from .config import RunConfig, build_run_config
from .synth import SynthConfig, generate_series

__version__ = "0.1.0"

__all__ = [
    "GranucastError",
    "RawSeries",
    "Series",
    "SplitSpec",
    "chrono_split",
    "interpolate_gaps",
    "kfold_split",
    "load_series",
    "Granule",
    "granulate_series",
    "granulate_window",
    "ClusterConfig",
    "ClusterResult",
    "extract_features",
    "KINDS",
    "LearnerConfig",
    "SupervisedSet",
    "fit_learner",
    "load_model",
    "make_supervised",
    "save_model",
    "Bounds",
    "OptimizationProblem",
    "OptimizerConfig",
    "ParetoArchive",
    "optimize",
    "front_quality",
    "zdt_problem",
    "ForecastBundle",
    "IntervalModel",
    "PredictionPanel",
    "combine",
    "fit_intervals",
    "fit_weights",
    "forecast",
    "DmResult",
    "IntervalScores",
    "PointScores",
    "dm_test",
    "interval_scores",
    "iri",
    "point_scores",
    "run_cv",
    "run_forecast",
    "RunConfig",
    "build_run_config",
    "SynthConfig",
    "generate_series",
    "__version__",
]
