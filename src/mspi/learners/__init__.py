"""Probability learners: penalized logits, tree ensembles, Platt calibration."""

from .boosting import BoostModel, fit_gradient_boosting, gb_score_many
from .calibration import calibrate_many, fit_platt
from .forest import fit_random_forest, rf_score_many
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
