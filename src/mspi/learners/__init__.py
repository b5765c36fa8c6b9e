"""Probability learners: penalized logits, tree ensembles, Platt calibration."""

from .boosting import BoostModel, GradientBoostingParams, fit_gradient_boosting, gb_score_many
from .calibration import CalibrationMap, calibrate_many, fit_platt
from .forest import ForestModel, RandomForestParams, fit_random_forest, rf_score_many
from .logit import (
    PROB_CLAMP,
    LogitModel,
    clamped_log_loss,
    fit_logit_l1,
    fit_logit_l2,
    laplace_log_odds,
    mean_nll,
    sigmoid,
)
from .standardize import StandardizationParams, standardize_apply, standardize_fit

__all__ = [
    "BoostModel",
    "CalibrationMap",
    "ForestModel",
    "GradientBoostingParams",
    "LogitModel",
    "PROB_CLAMP",
    "RandomForestParams",
    "StandardizationParams",
    "calibrate_many",
    "clamped_log_loss",
    "fit_gradient_boosting",
    "fit_logit_l1",
    "fit_logit_l2",
    "fit_platt",
    "fit_random_forest",
    "gb_score_many",
    "laplace_log_odds",
    "mean_nll",
    "rf_score_many",
    "sigmoid",
    "standardize_apply",
    "standardize_fit",
]
