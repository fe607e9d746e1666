"""Levy processes on the quantum permutation group S_n+.

Word algebra of Pol(S_n+), magic-unitary representations, cocycle
cohomology, Schurmann triples and generating functionals, convolution
semigroups, ad-invariant functionals, and Monte-Carlo simulation of the
classical permutation processes, with a `qperm` command-line front end.
"""

from .central import (
    AdInvariantSpec,
    DiscreteMeasure,
    FusionData,
    ad_invariant_value,
    character_polynomial,
    chebyshev_u,
    dims,
    hunt_apply_polynomial,
)
from .cohomology import (
    SubspaceBasis,
    coboundary_map,
    coboundary_space,
    cocycle_constraint_matrix,
    cocycle_space,
    fourier_h1_formula,
    gaussian_subspace,
    h1_dim,
    h1_representatives,
    perm_h1_formula,
    projection_meet,
    projection_rank,
    split_tuple,
    stack_tuple,
)
from .config import ZERO_THRESHOLD, RunConfig
from .errors import BudgetError, QpermError, ValidationError
from .magic import (
    HadamardMatrix,
    MagicReport,
    MagicUnitary,
    TwoBlockSpec,
    apply,
    f4_phi,
    fourier,
    from_hadamard,
    from_permutation,
    require_valid,
    two_block,
    validate,
)
from .schurmann import (
    PoissonCertificate,
    SchurmannTriple,
    cocycle_violation,
    eta,
    gen_functional,
    gen_functional_batch,
    is_gaussian,
    is_symmetric_words,
    is_tracial,
    poisson_certificate,
    poisson_value,
    random_cocycle,
    triple_from_stacked,
    two_block_symmetry,
    two_block_triple,
)
from .semigroup import (
    conv_exp,
    fundamental_semigroup,
    generator_matrix,
    state_table,
)
from .stochsim import (
    MarginalEstimate,
    PermProcessSpec,
    exact_marginals,
    path_sample,
    process_triple,
    simulate_marginals,
)
from .words import (
    Generator,
    LinComb,
    Word,
    adjoint,
    antipode,
    coproduct_terms,
    counit,
    defining_relations,
    format_lincomb,
    format_word,
    parse_word,
    reduce,
    unit_word,
)

__version__ = "0.1.0"
