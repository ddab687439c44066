import pkgutil
import types

import cudfsolve
import cudfsolve.cli  # noqa: F401  (the package itself never imports the CLI)


def test_every_submodule_attribute_is_the_module():
    # a function exported under a submodule's name would shadow the module,
    # and ``monkeypatch.setattr("cudfsolve.<module>.name", ...)`` would break
    names = [info.name for info in pkgutil.iter_modules(cudfsolve.__path__)]
    assert {"facts", "sat", "solve"} <= set(names)
    for name in names:
        if name != "__main__":
            assert isinstance(getattr(cudfsolve, name), types.ModuleType), name


def test_no_two_public_names_share_an_object():
    by_object: dict[int, list[str]] = {}
    for name in cudfsolve.__all__:
        by_object.setdefault(id(getattr(cudfsolve, name)), []).append(name)
    assert [names for names in by_object.values() if len(names) > 1] == []
