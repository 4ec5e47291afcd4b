"""The benchmark's three workloads and how each one is set up.

A workload is an ``ExperimentConfig`` plus the files it reads. The
benchmark's ``--seed n`` shifts both the synthetic archive seed and
``base_seed`` by ``n`` from the defaults recorded here, so ``--seed 0`` is the
default workload (for ``reference``, the pinned paper config unchanged) and
any other value is a held-out variant with the same shapes.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

# Every strategy name the package registers; desk_select runs all of them.
ALL_STRATEGIES = [
    "full", "random", "stratified_time", "kmeans", "greedy_diverse", "herding",
    "spatial", "stratified_kmeans", "stratified_kmeanspp", "stratified_entropy",
    "stratified_spatial_diversity",
]

# 16 x 32 desk grid, 2 variables: D = 1,024 features per time step.
DESK_LATS = [-75.0 + 10.0 * i for i in range(16)]
DESK_LONS = [11.25 * j for j in range(32)]

DIFFUSION_HYPER = {"n_epochs": 30, "hidden_width": 64, "n_sample_steps": 24}


def _desk_synthetic(n_years: int) -> dict:
    return {
        "lats": DESK_LATS,
        "lons": DESK_LONS,
        "n_years": n_years,
        "stride_hours": 24,
        "seasonal_amplitude": 2.0,
        "regime_amplitude": 2.5,
        "ar1_coefficient": 0.3,
        "noise_std": 0.4,
        "n_variables": 2,
        "start_year": 2000,
    }


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    default_synthetic_seed: int
    default_base_seed: int
    # desk workloads: SyntheticConfig fields (less the seed) of the archive that
    # set-up writes as an FTEN file, and the run config that loads it by path
    archive: dict | None = None
    run_config: dict | None = None

    def seeds(self, seed: int) -> tuple[int, int]:
        """(synthetic seed, base_seed) for the benchmark's ``--seed``."""
        return self.default_synthetic_seed + seed, self.default_base_seed + seed


WORKLOADS = {
    # The pinned paper config, read unchanged: 424,800 per-member rollout
    # steps on a 32-cell state dominate it and selection is ~0.
    "reference": Workload(
        name="reference",
        default_synthetic_seed=1234,
        default_base_seed=100,
    ),
    # PCA, k-means and herding dominate; rollout sees a 32x larger state but
    # ~10x fewer member-steps than reference. The only workload where dataset
    # I/O and validation weigh.
    "desk_select": Workload(
        name="desk_select",
        default_synthetic_seed=2025,
        default_base_seed=100,
        archive=_desk_synthetic(8),
        run_config={
            "split": {"train_years": [2000, 2005], "val_years": [2006, 2006],
                      "test_years": [2007, 2007]},
            "strategies": ALL_STRATEGIES,
            "forecaster": {"kind": "stochastic_linear",
                           "hyperparameters": {"ridge_lambda": 0.001}},
            "fraction": 0.2,
            "n_members": 8,
            "n_seeds": 1,
            "leads_days": [5, 10],
            "n_steps": 10,
            "eval_stride_hours": 168,
            "flat_grid": False,
            "jobs": 1,
        },
    ),
    # 1-row GEMV ancestral sampling plus Adam training, selection ~0: the
    # batched-rollout and BLAS paths the other two workloads bypass.
    "desk_diffusion": Workload(
        name="desk_diffusion",
        default_synthetic_seed=2025,
        default_base_seed=100,
        archive=_desk_synthetic(4),
        run_config={
            "split": {"train_years": [2000, 2002], "test_years": [2003, 2003]},
            "strategies": ["stratified_time"],
            "forecaster": {"kind": "toy_diffusion", "hyperparameters": DIFFUSION_HYPER},
            "fraction": 0.2,
            "n_members": 8,
            "n_seeds": 1,
            "leads_days": [5, 10],
            "n_steps": 10,
            "eval_stride_hours": 432,
            "flat_grid": False,
            "jobs": 1,
        },
    ),
}


def diffusion_flop_per_member_step(hyper: dict, state_size: int) -> int:
    """GEMV flops of one toy_diffusion forecast step of one member.

    Each of ``n_sample_steps`` denoiser calls multiplies a [2D+1] input by the
    [2D+1, H] first layer and the [H] hidden vector by the [H, D] second layer.
    """
    d, h = state_size, int(hyper["hidden_width"])
    return int(hyper["n_sample_steps"]) * 2 * h * ((2 * d + 1) + d)


def archive_path(work: Path, wl: Workload) -> Path:
    return work / f"{wl.name}.ften"


def write_archive(wl: Workload, seed: int, work: Path):
    """Generate the desk archive for ``seed`` and write it as an FTEN file."""
    from stratacast import dataset, synthetic

    spec = dict(wl.archive, seed=wl.seeds(seed)[0])
    grid = dataset.GridSpec(spec.pop("lats"), spec.pop("lons"))
    ds = synthetic.generate(synthetic.SyntheticConfig(grid=grid, **spec))
    work.mkdir(parents=True, exist_ok=True)
    dataset.save_dataset(ds, archive_path(work, wl))
    return ds


def load_config(wl: Workload, seed: int, root: Path, work: Path):
    """The workload's ``ExperimentConfig``, read through ``from_json`` as ``run`` does."""
    from stratacast.experiment import ExperimentConfig

    synth_seed, base_seed = wl.seeds(seed)
    if wl.archive is None:
        cfg = ExperimentConfig.from_json(root / "benchmarks" / "synthetic_benchmark.json")
        if seed == 0:
            return cfg
        return dataclasses.replace(
            cfg,
            synthetic=dataclasses.replace(cfg.synthetic, seed=synth_seed),
            base_seed=base_seed,
        )
    path = work / f"{wl.name}.json"
    path.write_text(json.dumps(
        dict(wl.run_config, dataset_path=archive_path(work, wl).name, base_seed=base_seed),
        indent=2,
    ))
    return ExperimentConfig.from_json(path)
