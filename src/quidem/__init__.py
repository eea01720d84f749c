"""Contractive idempotent functionals on finite quantum groups."""

from .algebra import (
    AlgebraElement,
    Functional,
    MultiMatrixAlgebra,
    PolarParts,
    act_left,
    act_right,
    is_central,
    polar_decompose,
    support_projection,
    tensor_algebra,
)
from .catalogue import (
    builtin,
    function_algebra,
    group_algebra,
    kac_paljutkin,
    load,
    save,
)
from .convolution import (
    CesaroResult,
    ConvolutionOperator,
    cesaro_limit,
    commutes_with_right_convolutions,
    convolve,
    left_conv_operator,
    sharp,
)
from .groups import GroupTable, cyclic, dihedral, symmetric
from .idempotents import (
    ContractiveIdempotentReport,
    construct,
    contractive_defect,
    decompose,
    enumerate_function_algebra,
    enumerate_group_algebra,
    extract_subgroup_character,
    idempotency_defect,
    is_contractive_idempotent,
    is_haar_idempotent,
    is_idempotent,
)
from .qgroup import (
    AxiomReport,
    FiniteQuantumGroup,
    QuantumSubgroup,
    commutativity_defect,
    cocommutativity_defect,
    dual,
    group_like_unitaries,
    is_group_like,
    quotient_by_support,
    verify_axioms,
)
from .tro import (
    Analysis,
    LinkingAlgebra,
    OperatorSubspace,
    RecoveryResult,
    SchurExpectation,
    build_expectation,
    check_tro_expectation,
    image_subspace,
    is_nondegenerate,
    is_right_invariant,
    is_tro,
    linking_algebra,
    preserves_weight,
    recover_idempotent,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
