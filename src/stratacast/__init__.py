"""Curated data-subset selection for autoregressive ensemble forecasting.

Selection strategies (random, stratified time, k-means coresets, greedy
diversity, herding, stratified hybrids), desk-scale probabilistic
forecasters, an autoregressive rollout harness, and CRPS/RMSE/SSR
verification with report emission.
"""

from .dataset import (
    GriddedDataset,
    GridSpec,
    SplitSpec,
    fit_standardization,
    load_dataset,
    save_dataset,
    standardize,
    valid_init_times,
)
from .features import PcaModel, cosine_distance, flatten_samples, pca_fit, pca_transform
from .forecast import EnsembleForecast, ForecasterSpec, rollout, train
from .metrics import MetricRecord, area_weights, crps_ensemble, evaluate_forecast, rmse, ssr
from .selection import STRATEGIES, SelectionBudget, SubsetSelection, run_strategy
from .synthetic import SyntheticConfig, generate

__version__ = "0.1.0"

__all__ = [
    "GriddedDataset", "GridSpec", "SplitSpec",
    "fit_standardization", "load_dataset", "save_dataset", "standardize",
    "valid_init_times",
    "PcaModel", "cosine_distance", "flatten_samples", "pca_fit", "pca_transform",
    "EnsembleForecast", "ForecasterSpec", "rollout", "train",
    "MetricRecord", "area_weights", "crps_ensemble", "evaluate_forecast",
    "rmse", "ssr",
    "STRATEGIES", "SelectionBudget", "SubsetSelection", "run_strategy",
    "SyntheticConfig", "generate",
]
