import diracmr


def test_public_names_are_unique_and_resolve():
    names = diracmr.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(diracmr, name) is not None, name


def test_lazy_namespace_lists_and_binds_every_public_name():
    assert set(diracmr.__all__) <= set(dir(diracmr))
    namespace = {}
    exec("from diracmr import *", namespace)
    for name in diracmr.__all__:
        assert namespace[name] is getattr(diracmr, name), name
