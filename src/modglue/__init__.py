"""modglue: block-matrix calculus for gluing Hilbert modules over
finite-dimensional C*-algebras, with numerical verification of the
pull-apart/glue equivalence, its descent identities, and the Morita/Picard
constructions built on top of it."""

from .cstar import (
    AlgebraElement,
    ClosedCover,
    FdCStarAlgebra,
    algebra,
    cover,
    eta_embed,
    image_of_eta_characterization,
    restrict_algebra,
    restrict_element,
    sum_algebra,
)
from .glue import (
    GluedModule,
    GlueMorphism,
    GluingDatum,
    descent_identities_check,
    epsilon_iso,
    glue,
    glue_morphism,
    make_gluing_datum,
    phi_iso,
    pull_apart,
    pull_apart_map,
    validate_gluing_datum,
)
from .hmod import (
    AdjointableMap,
    HilbertModule,
    ModuleVector,
    adjoint_of,
    apply_map,
    compose,
    inner_product,
    module,
    module_map,
    restrict_map,
    restrict_module,
    restrict_vector,
    right_act,
    vec_norm,
)
from .morita import (
    BimoduleGluingDatum,
    EquivalenceBimodule,
    bimodules_isomorphic,
    dual_bimodule,
    glue_bimodules,
    left_act,
    left_inner,
    obstruction_2cocycle,
    picard_conjugate,
    picard_conjugate_morphism,
    pull_apart_bimodule,
    tensor_bimodules,
    validate_bimodule,
)
from .numlin import kernel_basis, op_norm

__version__ = "0.1.0"
