import types

import cliquellt

# The package's public names.  A name added to or removed from cliquellt shows
# up here as a diff; a removal should name the test that still covers it.
PUBLIC_NAMES = [
    "BlockPartition",
    "BoundParams",
    "CapacityError",
    "ChfEstimate",
    "CliqueMoments",
    "CliqueSpec",
    "DomainError",
    "DoubledGround",
    "EdgeGround",
    "EmpiricalDistribution",
    "GraphAssignment",
    "GroundMismatchError",
    "HypParams",
    "LatticeMismatchError",
    "LatticeSpec",
    "MCConfig",
    "PBFunction",
    "alpha_pointwise",
    "alpha_product_transform",
    "alpha_restricted_coeffs",
    "alpha_transform",
    "bernoulli_chf_bound",
    "bernoulli_chf_exact",
    "berry_esseen_gap",
    "build_clique_partition",
    "build_color_partition",
    "chi_value",
    "count_cliques",
    "count_cliques_batch",
    "covering_edge_subsets",
    "decoupling_check",
    "discrete_gaussian",
    "empirical_chf_grid",
    "empirical_distribution",
    "exact_chf",
    "exact_distribution",
    "flatten",
    "fourier_coeff_fr",
    "fourier_transform",
    "fr_function",
    "hyperconc_moment",
    "hyperconc_tail",
    "is_rainbow",
    "kappa_function",
    "l1_distance",
    "lattice_inversion",
    "linf_distance",
    "mainchf_bound",
    "mean",
    "moments",
    "multiply",
    "rainbow_cliques",
    "sample_clique_counts",
    "sample_kappa",
    "support_vertices",
    "variance",
    "weight_profile",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(cliquellt).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
