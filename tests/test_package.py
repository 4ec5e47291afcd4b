import stratacast


def test_exports_resolve_once():
    names = stratacast.__all__
    assert [n for n in names if not hasattr(stratacast, n)] == []
    assert sorted({n for n in names if names.count(n) > 1}) == []
