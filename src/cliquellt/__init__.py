"""p-biased Fourier algebra, clique-count statistics, decoupling, and
local-limit-theorem experiments for the Erdos-Renyi random graph G(n,p)."""

__version__ = "0.1.0"

from .bounds import (
    BoundParams,
    HypParams,
    bernoulli_chf_bound,
    bernoulli_chf_exact,
    berry_esseen_gap,
    hyperconc_moment,
    hyperconc_tail,
    mainchf_bound,
)
from .cliques import (
    CliqueMoments,
    CliqueSpec,
    count_cliques,
    count_cliques_batch,
    covering_edge_subsets,
    exact_distribution,
    fourier_coeff_fr,
    fr_function,
    kappa_function,
    mean,
    moments,
    variance,
)
from .decoupling import (
    BlockPartition,
    DoubledGround,
    alpha_pointwise,
    alpha_product_transform,
    alpha_restricted_coeffs,
    alpha_transform,
    build_clique_partition,
    build_color_partition,
    decoupling_check,
    exact_chf,
    flatten,
    is_rainbow,
    rainbow_cliques,
)
from .distributions import (
    EmpiricalDistribution,
    LatticeSpec,
    discrete_gaussian,
    l1_distance,
    lattice_inversion,
    linf_distance,
)
from .errors import CapacityError, DomainError, GroundMismatchError, LatticeMismatchError
from .ground import EdgeGround, GraphAssignment, support_vertices
from .pbf import PBFunction, chi_value, fourier_transform, multiply
from .sampling import (
    ChfEstimate,
    MCConfig,
    empirical_chf_grid,
    empirical_distribution,
    sample_clique_counts,
    sample_kappa,
)
