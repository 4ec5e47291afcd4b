import ast
import re
from pathlib import Path

import stratacast
from stratacast.selection import STRATEGIES

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exports_resolve_once():
    names = stratacast.__all__
    assert [n for n in names if not hasattr(stratacast, n)] == []
    assert sorted({n for n in names if names.count(n) > 1}) == []


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
