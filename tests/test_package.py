"""The package's public surface: `__all__` against what the package holds."""

import ast
import inspect
from collections import Counter
from pathlib import Path
from types import ModuleType

import finegames


def public_attributes() -> dict:
    return {name: getattr(finegames, name) for name in dir(finegames) if not name.startswith("_")}


def star_imported_modules() -> list[ModuleType]:
    """The modules `__init__.py` re-exports with `from .m import *`."""
    tree = ast.parse(Path(finegames.__file__).read_text())
    return [
        getattr(finegames, node.module)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        and [alias.name for alias in node.names] == ["*"]
    ]


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
