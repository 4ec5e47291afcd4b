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
