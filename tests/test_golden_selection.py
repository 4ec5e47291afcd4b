"""Golden ordered indices and metadata of every selection strategy.

``golden_selection.json`` holds one digest of ``SubsetSelection.to_json()``
(strategy, seed, fraction, ordered indices, metadata) per strategy, budget
fraction and seed, on four small cases: a synthetic archive, the same
archive with zeroed fields (the spatial-diversity fill and
``zero_vector_candidates``), and each of the two with its candidates in a
permuted order. The digests pin the orders of the selection code they were
captured from, so a refactor of ``selection.py`` must reproduce them bit for
bit.

k-means and PCA orders depend on BLAS reduction order, so the digests are
checked only under a BLAS build, kernel and thread count listed in the file
as one that produced them; elsewhere the tests skip and say why.

Capture (only from a commit whose orders are the reference)::

    PYTHONPATH=src python tests/test_golden_selection.py

A capture that reproduces the stored digests adds this machine's BLAS
signature to the list; one that does not starts a new file.
"""

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from stratacast.dataset import GriddedDataset, GridSpec, SplitSpec, valid_init_times
from stratacast.selection import STRATEGIES, SelectionBudget, SelectionError, run_strategy
from stratacast.synthetic import SyntheticConfig, generate

GOLDEN = Path(__file__).with_name("golden_selection.json")
FRACTIONS = (0.2, 0.9, 1.0)
SEEDS = (0, 11)
CASES = ("synthetic", "zeroed", "permuted", "zeroed_permuted")


def blas_signature() -> dict:
    """BLAS build, kernel core and thread count: what fixes reduction order."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    sig = {"blas_name": blas.get("name"), "blas_version": blas.get("version"),
           "blas_core": None, "blas_threads": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for pre, post in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            if hasattr(handle, f"{pre}get_num_threads{post}"):
                threads = getattr(handle, f"{pre}get_num_threads{post}")
                threads.restype = ctypes.c_int
                core = getattr(handle, f"{pre}get_corename{post}")
                core.restype = ctypes.c_char_p
                sig["blas_threads"] = int(threads())
                sig["blas_core"] = core().decode()
                return sig
    return sig


def case_inputs(case: str) -> tuple[GriddedDataset, list[int]]:
    """Dataset and ordered candidate list of one fixture case."""
    ds = generate(SyntheticConfig(
        grid=GridSpec(np.array([-30.0, 0.0, 30.0]), np.array([0.0, 90.0, 180.0, 270.0])),
        n_years=2, stride_hours=24, seasonal_amplitude=2.0, regime_amplitude=1.5,
        ar1_coefficient=0.5, noise_std=0.5, seed=3, n_variables=2, start_year=2000,
    ))
    cand = valid_init_times(ds, SplitSpec((2000, 2000)), which="train", max_lead_hours=24.0)
    if case.startswith("zeroed"):
        # all of January and every 7th day: zero spatial-mean vectors, and a
        # month with none usable
        data = ds.data.copy()
        months = ds.months()
        zero = (months == 1) | (np.arange(ds.n_times) % 7 == 0)
        data[zero] = 0.0
        ds = GriddedDataset(ds.grid, list(ds.variables), list(ds.timestamps), data)
    if case.endswith("permuted"):
        cand = [int(i) for i in np.random.default_rng(5).permutation(cand)]
    return ds, cand


def digests(case: str) -> dict[str, str]:
    ds, cand = case_inputs(case)
    out = {}
    for strategy in sorted(STRATEGIES):
        for fraction in FRACTIONS:
            for seed in SEEDS:
                key = f"{strategy}/{fraction}/{seed}"
                try:
                    sel = run_strategy(strategy, ds, cand, SelectionBudget(fraction), seed)
                except SelectionError as e:  # refusals are pinned too
                    out[key] = f"SelectionError: {e}"
                    continue
                out[key] = hashlib.sha256(sel.to_json().encode()).hexdigest()[:16]
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    data = json.loads(GOLDEN.read_text())
    if blas_signature() not in data["blas"]:
        pytest.skip(f"captured under {data['blas']}, this machine has {blas_signature()}")
    return data


@pytest.mark.parametrize("case", CASES)
def test_selection_orders_match_golden(golden, case):
    got = digests(case)
    want = golden["cases"][case]
    assert sorted(got) == sorted(want)
    assert [k for k in sorted(want) if got[k] != want[k]] == []


def test_zeroed_case_exercises_fill_and_metadata():
    ds, cand = case_inputs("zeroed")
    sel = run_strategy("stratified_spatial_diversity", ds, cand, SelectionBudget(0.2), 0)
    jan = [i for i in sel.indices if ds.timestamps[i].item().month == 1]
    assert jan and sel.metadata["zero_vector_candidates"]


if __name__ == "__main__":
    cases = {c: digests(c) for c in CASES}
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    blas = old["blas"] if old.get("cases") == cases else []
    if blas_signature() not in blas:
        blas.append(blas_signature())
    GOLDEN.write_text(json.dumps({"blas": blas, "cases": cases}, indent=1, sort_keys=True) + "\n")
