"""Probability learners: penalized logits, tree ensembles, Platt calibration.

One module each: ``logit``, ``standardize``, ``trees``, ``forest``,
``boosting`` and ``calibration``. Import a name from the module that defines
it; this package imports none of them, so a stage that uses only the logits
(``evaluation``, ``econometrics``) never loads the trees.
"""
