"""Exact arithmetic for Bell polynomials, partitions, and q-series checks.

Everything here is integer or rational arithmetic: no floats, no rounding.
The headline computation expresses scaled partition numbers through complete
Bell polynomials evaluated at divisor-sum data, and every claimed equality is
checked entry by entry with exact comparisons.
"""

from qbell.bell import *
from qbell.identity import *
from qbell.numtheory import *
from qbell.partitions import *
from qbell.reports import *
from qbell.series import *

__version__ = "0.1.0"

# The imports above bind each submodule's name here; a public name is listed once, in its module
__all__ = [*bell.__all__, *identity.__all__, *numtheory.__all__, *partitions.__all__,
           *reports.__all__, *series.__all__]
