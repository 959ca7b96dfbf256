"""Exact chain decompositions of Young's lattice L(m,n).

The package enumerates the composition model of L(m,n), classifies it
by the signature statistic, builds the transversal-chain and
split-extension structure of each class, and certifies rank-unimodality
of the Gaussian binomial coefficients from the resulting saturated
chain decomposition, all in exact integer arithmetic.
"""

from .posets import (
    Composition,
    InconsistencyError,
    ResourceGuardError,
    conjugate,
    count_compositions,
    cover_color,
    enumerate_compositions,
    flip,
    format_composition,
    from_counts,
    from_gaps,
    leq,
    lower_covers,
    parse_composition,
    rank,
    to_counts,
    to_gaps,
    upper_covers,
    weight,
)
from .qpoly import (
    gaussian,
    is_symmetric,
    is_unimodal,
    rank_generating_function,
)
from .statistics import (
    MaximalStructure,
    chain_length,
    degree,
    enumerate_signatures,
    highest_weight,
    maximal_structure,
    remove_maximal_pairs,
    signature,
    signature_class,
    signature_classes,
    signature_mass,
    spread,
)
from .structure import (
    Decomposition,
    UnimodalityCertificate,
    decompose_all,
    decompose_class,
    decomposition_from_dict,
    decomposition_to_dict,
    fiber_coordinates,
    fiber_element,
    first_coordinate_closed_form,
    flip_stability,
    section,
    unimodality_certificate,
)
from .oracle import SplitExtensionReport, verify_split_extension
from .transversal import (
    Chain,
    chains_through,
    closed_form_colors,
    closed_form_terminal,
    flip_chain,
    is_initial,
    is_terminal,
    lower_run,
    raise_run,
    transversal_chain,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
