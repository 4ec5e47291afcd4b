"""Output checks for one run of a workload.

Each (strategy, seed) cell is one operation. A cell fails when its selection
breaks the selection contract (exact budget, unique indices drawn from the
candidates), when its selection or metric records differ from the first run
of the same process, or when they differ from the reference values committed
in ``golden.json`` for this workload seed: selection indices exactly (by
digest), metric records within ``RTOL``/``ATOL``. The tolerance admits the
~2e-14 relative drift of a reordered reduction (batched GEMMs in place of
per-row GEMVs, a sorted-member CRPS sum) and nothing an algorithmic change
would.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-9
GOLDEN = Path(__file__).with_name("golden.json")


def digest(indices: list[int]) -> str:
    return hashlib.sha256(json.dumps([int(i) for i in indices]).encode()).hexdigest()[:16]


def cell_key(strategy: str, seed: int) -> str:
    return f"{strategy}/{seed}"


def run_outputs(records, out_dir: Path) -> dict:
    """Selections and per-seed records of one run, keyed by cell."""
    cells: dict[str, dict] = {}
    for r in records:
        if r.seed is None:
            continue
        cell = cells.setdefault(cell_key(r.method, r.seed), {"records": []})
        cell["records"].append([r.variable, int(r.lead_days), r.crps, r.rmse, r.ssr])
    for path in sorted((out_dir / "selections").glob("*.json")):
        sel = json.loads(path.read_text())
        cell = cells.setdefault(cell_key(sel["strategy"], int(sel["seed"])), {"records": []})
        cell["indices"] = [int(i) for i in sel["indices"]]
    for cell in cells.values():
        cell["records"].sort()
    return cells


def golden_for(workload: str, seed: int, blas: dict) -> tuple[dict | None, str]:
    """Reference values for this workload seed, and a note on why there are none.

    k-means and PCA selections depend on BLAS reduction order, so reference
    values apply only under the BLAS build, kernel and thread count that
    captured them.
    """
    if not GOLDEN.exists():
        return None, "no golden.json"
    golden = json.loads(GOLDEN.read_text())
    if golden.get("blas") != blas:
        return None, f"skipped: captured under {golden.get('blas')}, this machine has {blas}"
    entry = golden.get(workload, {}).get(str(seed))
    return entry, "checked" if entry else "none for this seed"


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= ATOL + RTOL * abs(b)


def records_match(got: list, want: list) -> bool:
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if g[:2] != w[:2] or not all(_close(x, y) for x, y in zip(g[2:], w[2:])):
            return False
    return True


class OutputChecker:
    """Checks every run of one workload process against contract, first run and golden."""

    def __init__(self, expected_cells: list[str], fraction: float, golden: dict | None):
        self.expected_cells = expected_cells
        self.fraction = fraction
        self.golden = golden
        self.first: dict | None = None

    def _budget(self, n: int) -> int:
        return int(math.floor(self.fraction * n + 0.5))

    def cell_errors(self, key: str, cell: dict, candidates: set[int] | None) -> list[str]:
        errors = []
        idx = cell.get("indices")
        strategy = key.split("/")[0]
        if idx is None:
            errors.append("no selection file")
        elif candidates is None:
            errors.append("no full selection to draw candidates from")
        else:
            want = len(candidates) if strategy == "full" else self._budget(len(candidates))
            if len(idx) != want or len(set(idx)) != len(idx) or not set(idx) <= candidates:
                errors.append(f"selection contract: {len(idx)} indices, want {want} unique candidates")
        if not cell["records"] or not all(math.isfinite(x) for r in cell["records"] for x in r[2:]):
            errors.append("missing or non-finite records")
        if self.first is not None:
            first = self.first.get(key, {})
            if idx != first.get("indices") or cell["records"] != first.get("records"):
                errors.append("differs from the first run in this process")
        if self.golden is not None:
            want = self.golden["cells"].get(key)
            if want is None:
                errors.append("cell absent from golden")
            else:
                if idx is not None and digest(idx) != want["selection"]:
                    errors.append("selection differs from golden")
                if not records_match(cell["records"], want["records"]):
                    errors.append(f"records outside rtol={RTOL} of golden")
        return errors

    def check(self, cells: dict) -> dict[str, list[str]]:
        """Errors per expected cell (an empty list is a pass); remembers the first run."""
        full = [v for k, v in cells.items() if k.startswith("full/") and "indices" in v]
        candidates = set(full[0]["indices"]) if full else None
        result = {}
        for key in self.expected_cells:
            cell = cells.get(key)
            if cell is None:
                result[key] = ["cell missing from outputs"]
            else:
                result[key] = self.cell_errors(key, cell, candidates)
        if self.first is None:
            self.first = cells
        return result


def crps_ordering(records, variable: str) -> list[str]:
    """Acceptance 7: mean 5-day CRPS orders full <= stratified_time <= random."""
    means = {r.method: r.crps for r in records
             if r.seed is None and r.lead_days == 5 and r.variable == variable}
    full, strat, rand = means["full"], means["stratified_time"], means["random"]
    if full <= strat <= rand:
        return []
    return [f"CRPS ordering broken: full={full:.6g} stratified_time={strat:.6g} random={rand:.6g}"]
