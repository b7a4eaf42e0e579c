import widthcert


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from widthcert import *", namespace)
    assert len(set(widthcert.__all__)) == len(widthcert.__all__)
    for name in widthcert.__all__:
        assert namespace[name] is getattr(widthcert, name)
