"""Three-player quantum games on three qubits.

Builds shared states, extracts marginal probabilities through POVM
traces under either pair/triple reading, decides whether a joint
probability distribution reproduces a marginal set, evaluates payoffs
in outcome, marginal, and factorizable form, and certifies Nash
equilibria for a three-player dilemma and an odd-man-out coalition
game. Named scenarios tie the pieces into machine-checkable reports.

Each module declares its public names in `__all__`, and the package
re-exports exactly those, in the order of `_MODULES`. Importing the
package runs none of its modules: a module runs when it, or a name it
exports, is first asked for, so each command loads only what it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_MODULES = (
    "errors", "qstates", "measurement", "fine", "games", "equilibrium", "scenarios", "serialize",
)


def __getattr__(name: str):
    """A module of `_MODULES`, `__all__`, or a public name, which is
    looked up in the modules in order, each imported as the search
    reaches it, and then bound here."""
    if name in _MODULES:
        return _import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = [public for module in _MODULES for public in __getattr__(module).__all__]
    else:
        # No module exports a private name, so none is loaded for one.
        searched = () if name.startswith("_") else _MODULES
        for module in map(__getattr__, searched):
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    public = globals().get("__all__") or __getattr__("__all__")
    return sorted({*globals(), *_MODULES, *public})
