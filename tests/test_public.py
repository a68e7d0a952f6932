import diracmr


def test_public_names_are_unique_and_resolve():
    names = diracmr.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(diracmr, name) is not None, name
