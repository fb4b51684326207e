"""cuntzlab: exact symbolic Cuntz-algebra endomorphisms and the topological
entropy of their induced Cantor-set dynamics.

Importing the package loads only its numpy-free modules (elements,
endomorphisms, text, scalars, errors).  The public names of the
numpy-backed modules resolve on first access (PEP 562), which imports
their module then."""

from importlib import import_module

from .algebra import AlgebraElement, Monomial, words
from .endomorphism import (EndomorphismSpec, Permutation, perm_unitary, theta,
                           theta_power)
from .errors import (AlphabetMismatchError, BudgetExceededError, CuntzError,
                     CylinderError, DiagonalNotPreservedError,
                     DimensionCapError, LevelError, MasaNotInvariantError,
                     NotHomogeneousError, NotUnitaryError, ParseError,
                     PartitionError)
from .parsing import format_element, parse_element
from .scalars import GaussianRational

__version__ = "0.1.0"

# public name -> the numpy-backed submodule that defines it
_LAZY = {
    **dict.fromkeys(("BlockMapTable", "CantorDynamics", "EntropyReport",
                     "JoinDynamics"), "dynamics"),
    **dict.fromkeys(("OperatorMatrix", "embed_degree0", "homogeneous_parts",
                     "norm_bounds", "operator_norm", "psi"), "matrices"),
    **dict.fromkeys(("oracle_equivalence", "oracle_map", "oracle_table"),
                    "oracles"),
    **dict.fromkeys(("ProductMasaDynamics", "ef_generators", "ef_projection"),
                    "product_masa"),
    **dict.fromkeys(("Table1Row", "compute_table1"), "table"),
}

__all__ = [
    "AlgebraElement", "Monomial", "words",
    "BlockMapTable", "CantorDynamics", "EntropyReport", "JoinDynamics",
    "EndomorphismSpec", "Permutation", "perm_unitary", "theta", "theta_power",
    "OperatorMatrix", "embed_degree0", "homogeneous_parts", "norm_bounds",
    "operator_norm", "psi",
    "oracle_equivalence", "oracle_map", "oracle_table",
    "format_element", "parse_element",
    "ProductMasaDynamics", "ef_generators", "ef_projection",
    "GaussianRational",
    "Table1Row", "compute_table1",
    "CuntzError", "AlphabetMismatchError", "LevelError", "ParseError",
    "NotUnitaryError", "NotHomogeneousError", "DimensionCapError",
    "CylinderError", "DiagonalNotPreservedError", "MasaNotInvariantError",
    "PartitionError", "BudgetExceededError",
]


def __getattr__(name):
    # Looked up on every access and never stored here, so a function that is
    # rebound in its module at run time is seen through the package as well.
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
