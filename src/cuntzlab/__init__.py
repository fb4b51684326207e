"""cuntzlab: exact symbolic Cuntz-algebra endomorphisms and the topological
entropy of their induced Cantor-set dynamics."""

from .algebra import AlgebraElement, Monomial, words
from .dynamics import (BlockMapTable, CantorDynamics, EntropyReport,
                       JoinDynamics)
from .endomorphism import (EndomorphismSpec, Permutation, perm_unitary, theta,
                           theta_power)
from .errors import (AlphabetMismatchError, BudgetExceededError, CuntzError,
                     CylinderError, DiagonalNotPreservedError,
                     DimensionCapError, LevelError, MasaNotInvariantError,
                     NotHomogeneousError, NotUnitaryError, ParseError,
                     PartitionError)
from .matrices import (OperatorMatrix, embed_degree0, homogeneous_parts,
                       norm_bounds, operator_norm, psi)
from .oracles import oracle_equivalence, oracle_map, oracle_table
from .parsing import format_element, parse_element
from .product_masa import ProductMasaDynamics, ef_generators, ef_projection
from .scalars import GaussianRational
from .table import Table1Row, compute_table1

__version__ = "0.1.0"

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
