"""Robust Rayleigh regression for amplitude signals and images.

Submodules
----------
distribution : mean-parameterized Rayleigh distribution
regression   : links, design matrices, model specification
estimation   : plain and weighted maximum likelihood fitting
inference    : Fisher information, Wald tests, quantile residuals
simulation   : Monte Carlo evaluation (bias/MSE tables, breakdown, sensitivity)
detection    : residual control-chart anomaly detector for images
scenes       : seeded synthetic scenes with ground truth
image_io     : CSV / raw binary / PGM image interchange
cli          : command-line front end
"""

from .estimation import (
    FitResult,
    RobustConfig,
    compute_weights,
    fit_both,
    fit_mle,
)
from .inference import (
    WaldReport,
    fisher_information,
    ground_type_detect,
    quantile_residuals,
    wald_test,
)
from .regression import (
    DesignMatrix,
    IdentityLink,
    LogLink,
    ModelSpec,
    NonpositiveMeanError,
    dummy_design,
    get_link,
    predict_mean,
)

__version__ = "0.1.0"

__all__ = [
    "DesignMatrix",
    "ModelSpec",
    "LogLink",
    "IdentityLink",
    "NonpositiveMeanError",
    "get_link",
    "predict_mean",
    "dummy_design",
    "RobustConfig",
    "FitResult",
    "compute_weights",
    "fit_mle",
    "fit_both",
    "WaldReport",
    "fisher_information",
    "wald_test",
    "ground_type_detect",
    "quantile_residuals",
    "__version__",
]
