"""ccckit: exact verification of commuting-conjugates witnesses in concrete
group families (permutations, matrices, braids, free group automorphisms,
interval exchanges, piecewise linear maps, wreath towers)."""

from .core import (CcckitError, FamilyMismatchError, Finite,
                   GeneratorSet, GroupFamily, VerificationReport, Witness,
                   WitnessModeError, ZMode, commutator, commutes, conjugate,
                   verify_ccc, verify_czc)
from .suites import FAMILIES, run_family

__version__ = "0.1.0"

__all__ = [
    "CcckitError", "FamilyMismatchError", "Finite",
    "GeneratorSet", "GroupFamily", "VerificationReport", "Witness",
    "WitnessModeError", "ZMode", "commutator",
    "commutes", "conjugate", "verify_ccc", "verify_czc", "FAMILIES", "run_family",
    "__version__",
]
