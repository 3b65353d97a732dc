"""Point forecasters over clustered granule features."""

from .models import (
    KINDS,
    BiLstmRegressor,
    CnnGruRegressor,
    ForestRegressor,
    LearnerConfig,
    LstmBoostedRegressor,
    LstmRegressor,
    SupervisedSet,
    TooFewRecords,
    UntrainedModel,
    fit_learner,
    load_model,
    make_supervised,
    save_model,
)
from .nn import DimensionMismatch, SequenceTooShort
from .trees import BoostedTrees, RandomForest, Tree, build_cart

__all__ = [
    "KINDS",
    "BiLstmRegressor",
    "BoostedTrees",
    "CnnGruRegressor",
    "DimensionMismatch",
    "ForestRegressor",
    "LearnerConfig",
    "LstmBoostedRegressor",
    "LstmRegressor",
    "RandomForest",
    "SequenceTooShort",
    "SupervisedSet",
    "TooFewRecords",
    "Tree",
    "UntrainedModel",
    "build_cart",
    "fit_learner",
    "load_model",
    "make_supervised",
    "save_model",
]
