"""perfectsum: probabilistic approximation of subset-sum counting.

Given a numeric set, a target, and a relation (=, >=, <=), this package
estimates how many subsets of each size satisfy the sum condition, in
O(n) distribution evaluations, and ships the exact oracles (full
enumeration and dynamic programming) used to validate the estimates.

Each library module's ``__all__`` is the one list of its public names;
the package re-exports them all. The command line (``perfectsum.cli``)
is not imported here, so ``import perfectsum`` does not load argparse.
"""

from .moments import *
from .exact import *
from .approx import *
from .kde import *
from .evaluation import *
from .pipeline import *
from .simulation import *
from .inputs import *
from . import approx, evaluation, exact, inputs, kde, moments, pipeline, simulation

__version__ = "0.1.0"

__all__ = [
    name
    for module in (moments, exact, approx, kde, evaluation, pipeline, simulation, inputs)
    for name in module.__all__
]
