import ymrelax


def test_exports_resolve_once():
    names = ymrelax.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(ymrelax, name)]
    assert missing == []
