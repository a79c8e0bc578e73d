import eocount


def test_all_names_resolve():
    # a stale export would break only `from eocount import *`
    missing = [name for name in eocount.__all__ if not hasattr(eocount, name)]
    assert missing == []
    assert len(set(eocount.__all__)) == len(eocount.__all__)
