"""Granular wind-speed forecasting with ensemble weight optimization."""

from .errors import GranucastError
from .timeseries import (
    RawSeries,
    SplitSpec,
    chrono_split,
    interpolate_gaps,
    kfold_split,
    load_series,
)
from .granulation import granulate_series
from .fuzzy_rough import ClusterConfig, ClusterResult, extract_features
from .learners import (
    KINDS,
    ForestConfig,
    NetConfig,
    StackConfig,
    SupervisedSet,
    fit_learner,
    load_model,
    make_supervised,
    save_model,
)
from .sunflower import OptimizerConfig, ParetoArchive, SunflowerOptimizer
from .benchmarks import front_quality, zdt_evaluate
from .ensemble import PredictionPanel, combine, fit_intervals, fit_weights, forecast
from .evaluation import (
    DmResult,
    IntervalScores,
    PointScores,
    dm_test,
    interval_scores,
    iri,
    point_scores,
)
from .pipeline import Forecaster, fit_forecaster, run_cv, run_forecast
from .config import RunConfig, build_run_config
from .synth import SynthConfig

__version__ = "0.1.0"

__all__ = [
    "GranucastError",
    "RawSeries",
    "SplitSpec",
    "chrono_split",
    "interpolate_gaps",
    "kfold_split",
    "load_series",
    "granulate_series",
    "ClusterConfig",
    "ClusterResult",
    "extract_features",
    "KINDS",
    "ForestConfig",
    "NetConfig",
    "StackConfig",
    "SupervisedSet",
    "fit_learner",
    "load_model",
    "make_supervised",
    "save_model",
    "OptimizerConfig",
    "ParetoArchive",
    "SunflowerOptimizer",
    "front_quality",
    "zdt_evaluate",
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
    "Forecaster",
    "fit_forecaster",
    "run_cv",
    "run_forecast",
    "RunConfig",
    "build_run_config",
    "SynthConfig",
    "__version__",
]
