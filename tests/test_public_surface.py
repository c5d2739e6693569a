import importlib
import pkgutil
import re
import types
from pathlib import Path

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
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(cliquellt).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def _resolve(dotted: str):
    """The live object a dotted name under cliquellt names: the longest importable module, then attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(dotted)


def test_readme_dotted_names_resolve():
    # every backticked dotted name rooted at the package, one of its modules
    # or an exported class must still exist, so a removal cannot leave the
    # README naming a function that is gone
    modules = {info.name for info in pkgutil.iter_modules(cliquellt.__path__)}
    classes = {name for name in PUBLIC_NAMES if isinstance(getattr(cliquellt, name), type)}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    names = set()
    for span in re.findall(r"`([^`]+)`", readme):
        match = re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)
        if match is None:
            continue
        root, _, rest = match.group().partition(".")
        if root == "cliquellt":
            names.add(match.group())
        elif root in modules:
            names.add(f"cliquellt.{root}.{rest}")
        elif root in classes:
            names.add(f"cliquellt.{match.group()}")
    assert {"cliquellt.sampling", "cliquellt.MCConfig.edge_draws", "cliquellt.PBFunction.table"} <= names
    missing = []
    for name in sorted(names):
        try:
            _resolve(name)
        except (ImportError, AttributeError):
            missing.append(name)
    assert missing == []
