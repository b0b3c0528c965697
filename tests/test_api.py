import ncquadric


def test_every_exported_name_resolves():
    missing = [name for name in ncquadric.__all__
               if not hasattr(ncquadric, name)]
    assert missing == []
    assert len(set(ncquadric.__all__)) == len(ncquadric.__all__)
