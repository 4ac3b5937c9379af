"""Exact modified supertraces and superdimensions for type-I Lie superalgebras.

The genuine superdimension of a typical module vanishes, killing the usual
supertrace on its endomorphisms.  This package computes, in exact rational
arithmetic, the non-trivial replacement: the modified superdimension on
typical highest weights (with its h-deformation as a truncated series), the
modified supertrace on modules split through a typical one, and the induced
non-zero bilinear form on spaces of invariant tensors of the adjoint
representation, together with a verification suite that checks every stated
property as an exact identity.
"""

from .exactnum import (
    HSeries,
    SeriesValuationError,
    q_bracket,
    q_power,
    rat_str,
)
from .rootdata import (
    AtypicalWeightError,
    Root,
    RootDataError,
    RootSystem,
    SuperCartanData,
    Weight,
    build_root_system,
    weight,
)
from .superlin import (
    EVEN,
    ODD,
    SuperMap,
    SuperSpace,
    coev,
    dual_space,
    ev,
    ev_right,
    identity,
    parity_shift,
    partial_supertrace,
    partial_supertrace_hom,
    super_permutation,
    super_space,
    super_transpose,
    supertrace,
    tensor_map,
    tensor_space,
)
from .repmod import (
    GModule,
    IdealWitness,
    ModuleIntegrityError,
    ModuleRelationError,
    WitnessNotFoundError,
    direct_sum_module,
    dual_module,
    hom_space,
    ideal_witness,
    invariant_vectors,
    kac_module,
    parity_shift_module,
    standard_module,
    tensor_module,
    trivial_module,
    trivial_witness,
    witness_dsum,
    witness_parity_shift,
    witness_tensor,
)
from .mtrace import (
    bracket,
    classical_str_is_zero,
    modified_trace,
    psi_sharp,
)
from .invtensor import (
    AdjointData,
    PresentedTensor,
    adjoint_coords,
    build_adjoint,
    classical_form_vanishes,
    extended_form,
    invariant_tensors,
    it_space,
    modified_form,
    modified_gram,
    sn_action,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
