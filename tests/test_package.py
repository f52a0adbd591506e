import woodelf


def test_every_exported_name_resolves():
    missing = [name for name in woodelf.__all__ if not hasattr(woodelf, name)]
    assert missing == []
    assert len(set(woodelf.__all__)) == len(woodelf.__all__)
