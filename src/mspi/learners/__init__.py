"""Probability learners: penalized logits, tree ensembles, Platt calibration.

Each name below is imported from its submodule on first access (PEP 562), so
a stage that uses only the logits (``evaluation``, ``econometrics``) never
loads the trees.
"""

_SUBMODULES = {
    "boosting": ("BoostModel", "fit_gradient_boosting", "gb_score_many"),
    "calibration": ("calibrate_many", "fit_platt"),
    "forest": ("fit_random_forest", "rf_score_many"),
    "logit": ("PROB_CLAMP", "LogitModel", "clamped_log_loss", "fit_logit_l1", "fit_logit_l2",
              "laplace_log_odds", "mean_nll", "sigmoid"),
    "standardize": ("StandardizationParams", "standardize_apply", "standardize_fit"),
}
_HOME = {name: module for module, names in _SUBMODULES.items() for name in names}


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
