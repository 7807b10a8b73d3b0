"""The package's public surface: `__all__` against what the package holds."""

import inspect
from collections import Counter
from pathlib import Path
from types import ModuleType

import pytest

import finegames


def public_attributes() -> dict:
    return {name: getattr(finegames, name) for name in dir(finegames) if not name.startswith("_")}


def star_imported_modules() -> list[ModuleType]:
    """The modules whose `__all__` the package re-exports, in order."""
    return [getattr(finegames, name) for name in finegames._MODULES]


def test_the_package_reexports_every_library_module_in_order():
    # Every module but the command line; `__all__` is theirs in order,
    # and each name is the object its module defines.
    package = Path(finegames.__file__).parent
    files = {path.stem for path in package.glob("*.py")} - {"__init__", "__main__", "cli"}
    assert sorted(finegames._MODULES) == sorted(files)
    modules = star_imported_modules()
    assert finegames.__all__ == [name for module in modules for name in module.__all__]
    for module in modules:
        for name in module.__all__:
            assert getattr(finegames, name) is getattr(module, name), name


def test_every_public_name_resolves_once():
    names = finegames.__all__
    assert [name for name, count in Counter(names).items() if count > 1] == []
    assert [name for name in names if not hasattr(finegames, name)] == []


def test_public_attributes_are_all_and_only_all():
    public = {n for n, v in public_attributes().items() if not isinstance(v, ModuleType)}
    assert public == set(finegames.__all__)


def test_star_imported_modules_declare_names_they_define():
    for module in star_imported_modules():
        assert isinstance(module.__all__, list), module.__name__
        for name in module.__all__:
            value = getattr(module, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, (module.__name__, name)


def test_no_third_party_name_becomes_a_package_attribute():
    for name, value in public_attributes().items():
        if isinstance(value, ModuleType):
            assert value.__name__ == f"finegames.{name}", name
        elif inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__.startswith("finegames."), name
    assert not {"np", "numpy", "dataclass", "field", "annotations"} & set(dir(finegames))


def test_a_name_no_module_exports_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'finegames' has no attribute 'no_such_name'"):
        finegames.no_such_name
