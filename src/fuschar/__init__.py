"""Exact character tables for fusion systems on finite p-groups.

The package computes exact character tables (Dixon-Schneider), element-level
fusion data, Hermite-normal-form bases of stable virtual-character lattices,
and checks the determinant identity
|X * conj(X)^T|_p = prod |C_S(s)| over fully centralised class representatives.

`import fuschar` loads the verifier core and `specio`. The paper layer is
imported by module name (`fuschar.constructions`, `fuschar.exotic`,
`fuschar.reftables`), and so is the command line (`fuschar.cli`).
"""

from .cyclotomic import Cyclotomic, cyclotomic_polynomial, exact_div
from .intlinalg import (
    HNFResult,
    det_exact,
    hnf,
    kernel_rows,
    p_part,
    p_valuation,
    smith_invariants,
)
from .groups import (
    FiniteGroup,
    FpMat,
    Perm,
    class_fusion_map,
    conjugacy_classes,
    enumerate_group,
    standard_group,
    sylow_subgroup,
)
from .chartable import (
    CharacterTable,
    ClassFunction,
    dixon_character_table,
    induce_class_function,
    inner_product,
    regular_character,
    restrict_table,
)
from .fusion import FusionData, TableFusion, apply_merges, fusion_from_group
from .stable import (
    DecompositionData,
    StableLattice,
    decomposition_matrix,
    indecomposables_bounded,
    refine_stable_lattice,
    stable_character_basis,
)
from .verify import (
    InductionCertificate,
    VerificationReport,
    builtin_corpus,
    character_table_matrix,
    check_certificate_chain,
    check_induction_certificate,
    run_group_corpus,
    verify_conjecture,
    verify_group_case,
    verify_table_fusion,
)
from .specio import SpecError, fusion_from_spec, load_fusion, load_group

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
