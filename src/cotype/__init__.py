"""Exact enumeration of sublattices of Z^d by cotype, local zeta factors,
Cohen-Lenstra mass evaluators, and a Smith-form Monte Carlo laboratory."""

__version__ = "0.1.0"

from .qcomb import (
    DescentSet,
    IntPolynomial,
    Permutation,
    descent_poly_determinant,
    descent_poly_inclusion_exclusion,
    descent_poly_permutations,
    descents,
    inversions,
    q_binom_subset,
    q_binomial,
    q_multinomial,
)
from .lattices import (
    CotypeTally,
    HermiteBasis,
    SmithForm,
    corank,
    cotype_of,
    enumerate_hnf,
    hnf_count,
    p_part,
    smith_normal_form,
    tally_cotypes,
)
from .groups import (
    AbelianPGroupType,
    Partition,
    aut_order,
    cohen_lenstra_mass,
    conjugate,
    count_generating_tuples,
    embeds,
    rank_d_mass,
)
from .zeta import (
    EulerProductValue,
    LocalFactor,
    cocyclic_growth_constant,
    cokernel_rank_density_local,
    corank_density,
    corank_local_factor_at_pole,
    corank_zeta_residue,
    dirichlet_coefficient,
    dirichlet_coefficients_upto,
    local_coefficient,
    local_factor,
    squarefree_index_density,
)

__all__ = [name for name in dir() if not name.startswith("_")]
