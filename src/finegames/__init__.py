"""Three-player quantum games on three qubits.

Builds shared states, extracts marginal probabilities through POVM
traces under either pair/triple reading, decides whether a joint
probability distribution reproduces a marginal set, evaluates payoffs
in outcome, marginal, and factorizable form, and certifies Nash
equilibria for a three-player dilemma and an odd-man-out coalition
game. Named scenarios tie the pieces into machine-checkable reports.

Each module declares its public names in `__all__`, and the package
re-exports exactly those.
"""

from .errors import *
from .qstates import *
from .measurement import *
from .fine import *
from .games import *
from .equilibrium import *
from .scenarios import *
from .serialize import *
from . import equilibrium, errors, fine, games, measurement, qstates, scenarios, serialize

__version__ = "0.1.0"

__all__ = []
for _module in (errors, qstates, measurement, fine, games, equilibrium, scenarios, serialize):
    __all__ += _module.__all__
del _module
