import ast
import importlib
import math
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np

import stratacast
from stratacast.dataset import GriddedDataset, GridSpec, SplitSpec, save_dataset
from stratacast.experiment import ExperimentConfig, run_experiment
from stratacast.forecast import ForecasterSpec
from stratacast.selection import STRATEGIES
from stratacast.synthetic import SyntheticConfig

README = Path(__file__).resolve().parents[1] / "README.md"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_exports_resolve_once():
    names = stratacast.__all__
    assert [n for n in names if not hasattr(stratacast, n)] == []
    assert sorted({n for n in names if names.count(n) > 1}) == []


def test_perfbench_sees_the_package():
    """Every function the benchmark traces is still a callable of the module
    and name it patches, and its desk_select workload runs every registered
    strategy. The benchmark's files are read, not changed."""
    targets = runpy.run_path(str(PERFBENCH / "spans.py"))["TARGETS"]
    lost = [f"{module}.{name}" for module, name in targets
            if not callable(getattr(importlib.import_module(module), name, None))]
    assert lost == []
    assert runpy.run_path(str(PERFBENCH / "workloads.py"))["ALL_STRATEGIES"] == list(STRATEGIES)


def test_perfbench_traces_a_run(tmp_path):
    """The benchmark's span attributes read the traced functions' arguments
    by name (``forecaster``, ``ds``, ``init_indices``, ``spec``, ``name``,
    ``seed``, ``forecast``, ``leads_days`` ...). A tiny run under its tracer
    finds every target, reads every span's attributes and opens a span for
    each layer the benchmark reports. The benchmark's files are read, not
    changed."""
    tracer = runpy.run_path(str(PERFBENCH / "spans.py"))["Tracer"]()
    cfg = ExperimentConfig(
        strategies=["random"], forecaster=ForecasterSpec("stochastic_linear"),
        split=SplitSpec((2000, 2000), None, (2001, 2001)),
        synthetic=SyntheticConfig(GridSpec([-30.0, 0.0, 30.0], [0.0, 90.0, 180.0, 270.0]),
                                  n_years=2, stride_hours=24, seasonal_amplitude=2.0,
                                  regime_amplitude=1.5, ar1_coefficient=0.5, noise_std=0.5,
                                  seed=0),
        n_members=2, n_steps=2, leads_days=(1, 2))
    tracer.install()
    try:
        run_experiment(cfg, tmp_path)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert [s.name for s in tracer.spans if "attr_error" in s.attrs or s.failed] == []
    layers = {"forecast.train", "forecast.rollout", "metrics.evaluate_forecast",
              "selection.run_strategy"}
    assert layers - {s.name for s in tracer.spans} == set()


def test_perfbench_traces_a_toy_diffusion_run(tmp_path):
    """``toy_diffusion`` makes its draws on a helper thread while it trains
    and samples. The benchmark's tracer keeps one span stack per process, so
    a traced function called from that thread would nest its span under
    whatever the caller had open. A tiny toy_diffusion run under the tracer
    must still give spans that none failed or lacks its attributes, all
    closed, whose children plus the run's self time make up the run span,
    and whose outermost rollouts count the member steps the shapes give.
    The benchmark's files are read, not changed."""
    from stratacast.experiment import eval_init_times, load_standardized

    spans = runpy.run_path(str(PERFBENCH / "spans.py"))
    tracer = spans["Tracer"]()
    cfg = ExperimentConfig(
        strategies=["random"],
        forecaster=ForecasterSpec("toy_diffusion",
                                  {"n_epochs": 2, "hidden_width": 4, "n_sample_steps": 3}),
        split=SplitSpec((2000, 2000), None, (2001, 2001)),
        synthetic=SyntheticConfig(GridSpec([-30.0, 0.0, 30.0], [0.0, 90.0, 180.0, 270.0]),
                                  n_years=2, stride_hours=24, seasonal_amplitude=2.0,
                                  regime_amplitude=1.5, ar1_coefficient=0.5, noise_std=0.5,
                                  seed=0),
        n_members=2, n_steps=2, leads_days=(1, 2), eval_stride_hours=240.0)
    ds = load_standardized(cfg.synthetic, cfg.split)
    n_inits = len(eval_init_times(ds, cfg.split, cfg.n_steps, cfg.eval_stride_hours))
    tracer.install()
    root = tracer.begin_run()
    ok = False
    try:
        run_experiment(cfg, tmp_path)
        ok = True
    finally:
        tracer.close(root, failed=not ok)
        tracer.uninstall()
    recorded = tracer.spans
    assert tracer.missing == []
    assert [s.name for s in recorded if "attr_error" in s.attrs or s.failed] == []
    assert [s.name for s in recorded if math.isnan(s.end)] == []
    kids = spans["children"](recorded, root)
    assert abs(sum(k.duration for k in kids) + spans["self_time"](recorded, root)
               - root.duration) <= 1e-6
    rollouts = spans["outermost"](recorded, {"forecast.rollout"})
    cells = 2  # full and random
    assert n_inits > 0
    assert sum(s.attrs["member_steps"] for s in rollouts) == (
        cells * n_inits * cfg.n_members * cfg.n_steps)


def test_perfbench_counts_every_cells_rollout_and_scoring(tmp_path, monkeypatch):
    """The benchmark's counters read the traced calls' arguments: the
    ``member_steps`` of the outermost ``forecast.rollout`` spans and the
    ``crps_pairs`` of the ``metrics.evaluate_forecast`` spans must add up to
    what the run's shapes give, as the benchmark checks, with one forecaster
    per rollout span. A run of 2 strategies x 2 seeds in several rollout
    blocks is traced. The benchmark's files are read, not changed."""
    from stratacast import forecast as forecast_mod
    from stratacast.experiment import eval_init_times, load_standardized

    spans = runpy.run_path(str(PERFBENCH / "spans.py"))
    tracer = spans["Tracer"]()
    cfg = ExperimentConfig(
        strategies=["random"], forecaster=ForecasterSpec("stochastic_linear"),
        split=SplitSpec((2000, 2000), None, (2001, 2001)),
        synthetic=SyntheticConfig(GridSpec([-30.0, 0.0, 30.0], [0.0, 90.0, 180.0, 270.0]),
                                  n_years=2, stride_hours=24, seasonal_amplitude=2.0,
                                  regime_amplitude=1.5, ar1_coefficient=0.5, noise_std=0.5,
                                  seed=0, n_variables=2),
        n_members=3, n_seeds=2, n_steps=4, leads_days=(2, 4), eval_stride_hours=72.0)
    ds = load_standardized(cfg.synthetic, cfg.split)
    n_inits = len(eval_init_times(ds, cfg.split, cfg.n_steps, cfg.eval_stride_hours))
    monkeypatch.setattr(forecast_mod, "_BLOCK_VALUES", 30 * ds.data[0].size)  # 10 inits a block
    tracer.install()
    try:
        run_experiment(cfg, tmp_path)
    finally:
        tracer.uninstall()
    cells, m = 2 * 2, cfg.n_members
    rollouts = spans["outermost"](tracer.spans, {"forecast.rollout"})
    assert sum(s.attrs["member_steps"] for s in rollouts) == cells * n_inits * m * cfg.n_steps
    assert {s.attrs["kind"] for s in rollouts} == {cfg.forecaster.kind}
    assert n_inits > 10 and len(rollouts) == cells * -(-n_inits // 10)
    pairs = sum(s.attrs["crps_pairs"] for s in tracer.spans
                if s.name == "metrics.evaluate_forecast")
    assert pairs == cells * m * (m - 1) // 2 * n_inits * ds.data[0].size * len(cfg.leads_days)


def test_readme_names_the_registered_strategies():
    """The first sentence of README's strategy bullet names each strategy by
    the name ``--strategy`` and run configs take, and no other."""
    sentence = re.search(r"\*\*Selection strategies\*\*(.*?)\.\s", README.read_text(), re.S)
    assert sorted(re.findall(r"`([a-z_]+)`", sentence.group(1))) == sorted(STRATEGIES)


def test_no_unused_imports():
    """Every name a module under ``src/stratacast/`` imports is used in it
    (``__init__.py`` imports to re-export)."""
    unused = []
    for path in sorted(Path(stratacast.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_no_orphaned_private_names():
    """Every module-level ``_``-prefixed function, class or assignment under
    ``src/stratacast/`` is named somewhere else in ``src/``: loaded, read as
    an attribute or imported."""
    defined, named = [], set()
    for path in sorted(Path(stratacast.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{path.name}:{node.lineno}", node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(f"{path.name}:{node.lineno}", n.id) for t in targets
                            for n in ast.walk(t) if isinstance(n, ast.Name)]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                named.add(n.id)
            elif isinstance(n, ast.Attribute):
                named.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                named.update(alias.name for alias in n.names)
    orphans = [f"{where} {name}" for where, name in defined
               if name.startswith("_") and not name.startswith("__") and name not in named]
    assert orphans == []


def test_log_messages_are_key_value_pairs():
    """Every ``log.<level>`` call under ``src/stratacast/`` passes a literal
    message of an event name and key=value pairs, each value one %-field:
    ``"cell: strategy=%s seed=%d"``."""
    shape = re.compile(r"[a-z][a-z ]*:( [a-z_]+=%[a-z])+")
    calls, bad = 0, []
    for path in sorted(Path(stratacast.__file__).parent.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and isinstance(n.func.value, ast.Name) and n.func.value.id == "log"):
                calls += 1
                msg = n.args[0] if n.args else None
                if not (isinstance(msg, ast.Constant) and isinstance(msg.value, str)
                        and shape.fullmatch(msg.value)):
                    bad.append(f"{path.name}:{n.lineno}")
    assert calls and bad == []


def test_time_axis_is_answered_in_dataset_only():
    """The forecast step (``STEP_HOURS``), the hours-to-strides rule
    (``GriddedDataset.steps``) and the month of a time (``month_index``) are
    written once, in ``dataset.py``. No other module spells the 24 h step,
    divides by a stride or computes a month itself."""
    spelled = re.compile(r"day_offset|24\.0|\* ?24\b|datetime64\[M\]|timestamps\[1\]"
                         r"|/ ?(ds|truth|self)\.stride_hours")
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(Path(stratacast.__file__).parent.glob("*.py"))
            if path.name != "dataset.py"
            for n, line in enumerate(path.read_text().splitlines(), 1) if spelled.search(line)]
    assert hits == []


def test_indices_and_seeds_are_checked_in_dataset_only():
    """Every call under ``src/stratacast/`` to ``check_indices``,
    ``integer_array`` or ``check_integer`` uses the value it returns, so no
    stage checks an index list or a seed and then reads its own cast of it.
    No module but ``dataset.py`` spells a seed sign check."""
    checks = {"check_indices", "integer_array", "check_integer"}
    discarded, sign_checks = [], []
    for path in sorted(Path(stratacast.__file__).parent.glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            func = getattr(getattr(node, "value", None), "func", None)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call) and checks & {
                    getattr(func, "id", None), getattr(func, "attr", None)}:
                discarded.append(f"{path.name}:{node.lineno}")
        if path.name != "dataset.py":
            sign_checks += [f"{path.name}:{n}: {line.strip()}"
                            for n, line in enumerate(text.splitlines(), 1)
                            if re.search(r"\bseed\s*<\s*0", line)]
    assert discarded == []
    assert sign_checks == []


def test_json_is_parsed_in_dataset_only():
    """Every JSON text the package reads, a file or ``--hyper``, is parsed by
    ``dataset.parse_json``, which refuses it with the caller's error: no
    other module calls ``json.loads`` or ``json.load`` or imports them."""
    parsers = {"load", "loads"}
    calls = []
    for path in sorted(Path(stratacast.__file__).parent.glob("*.py")):
        if path.name == "dataset.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            if (isinstance(node, ast.Call) and getattr(func, "attr", None) in parsers
                    and getattr(func.value, "id", None) == "json") or (
                    isinstance(node, ast.ImportFrom) and node.module == "json"
                    and parsers & {alias.name for alias in node.names}):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def _is_dtype_kind_or_ndim(node) -> bool:
    return isinstance(node, ast.Attribute) and (node.attr == "ndim" or (
        node.attr == "kind" and isinstance(node.value, ast.Attribute)
        and node.value.attr == "dtype"))


def test_array_files_are_read_and_written_in_dataset_only(tmp_path):
    """The container of every array file is decided in ``dataset.py``: no
    other module spells ``np.savez``, ``np.load``, ``zipfile`` or ``struct``.
    Every ``read_npz`` call passes an entry table, and no module but
    ``dataset.py`` (``check_entries``) compares an array's ``.ndim`` or
    ``.dtype.kind``. The file ``save_dataset`` writes opens with plain
    ``np.load`` and holds exactly its five entries."""
    spelled = re.compile(r"np\.savez|np\.load|\bzipfile\b|\bstruct\b")
    hits, untabled, compared, readers = [], [], [], 0
    for path in sorted(Path(stratacast.__file__).parent.glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and "read_npz" in (getattr(func, "id", None),
                                                             getattr(func, "attr", None)):
                readers += 1
                if len(node.args) < 3 and "table" not in [k.arg for k in node.keywords]:
                    untabled.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Compare) and path.name != "dataset.py" and any(
                    map(_is_dtype_kind_or_ndim, [node.left, *node.comparators])):
                compared.append(f"{path.name}:{node.lineno}")
        if path.name != "dataset.py":
            hits += [f"{path.name}:{n}: {line.strip()}"
                     for n, line in enumerate(text.splitlines(), 1) if spelled.search(line)]
    assert hits == []
    assert readers > 0 and untabled == []
    assert compared == []
    ds = GriddedDataset(GridSpec([0.0], [0.0]), ["z500"],
                        np.array(["2000-01-01"], "datetime64[us]"), np.zeros((1, 1, 1, 1)))
    path = save_dataset(ds, tmp_path / "d.ften")
    assert [p.name for p in tmp_path.iterdir()] == ["d.ften"]
    with np.load(path, allow_pickle=False) as z:
        assert sorted(z.files) == ["data", "lats", "lons", "timestamps", "variables"]


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    """Under the repo's pytest settings, which turn warnings into errors, a
    failing ``@given`` test is reported as one failure and the run goes on
    to the next test, rather than ending with INTERNALERROR."""
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n")
    r = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir",
                        str(tmp_path), "-p", "no:cacheprovider", "test_two.py"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in r.stdout + r.stderr
    assert "1 failed, 1 passed" in r.stdout


def test_row_generators_are_built_in_row_streams_only():
    """The rollout's noise policy has one owner: no module but ``forecast.py``
    spells ``PCG64`` or ``ISeedSequence``, and in it only ``_RowStreams``
    (which seeds each row's Generator) and ``_state_words_type`` (the seed
    sequence type that hands PCG64 its words) do."""
    spelled = re.compile(r"PCG64|ISeedSequence")
    owners = {"_RowStreams", "_state_words_type"}
    hits = []
    for path in sorted(Path(stratacast.__file__).parent.glob("*.py")):
        text = path.read_text()
        owned = set()
        if path.name == "forecast.py":
            for node in ast.parse(text).body:
                if getattr(node, "name", None) in owners:
                    first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                    owned.update(range(first, node.end_lineno + 1))
        hits += [f"{path.name}:{n}: {line.strip()}"
                 for n, line in enumerate(text.splitlines(), 1)
                 if spelled.search(line) and n not in owned]
    assert hits == []
