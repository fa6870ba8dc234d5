"""Purity-based multipartite entanglement detection toolkit.

Detects entanglement of N-site bosonic registers by comparing the purity
of a state against the purities of its reductions (separable states never
gain purity under reduction), simulates the two-copy pairwise
beam-splitter network that measures all 2^N - 1 purities at once, and
validates the optical-lattice realization of that network in a
second-quantized two-row model.
"""

__version__ = "0.1.0"

from .qstate import (
    CapacityError,
    DensityOperator,
    PureState,
)
from .separability import (
    SubsetPurityMap,
    all_subset_purities,
    chsh_max,
    fig2a_violations,
)
from .bs_network import (
    JointSignProbabilityTable,
    purities_from_probabilities,
)
from .states import (
    InversionError,
    cat_purity_closed_form,
    cat_state,
    cluster_family_state,
    estimate_epsilon,
    ghz,
    linear_cluster,
)
from .lattice import (
    FockState,
    LatticeParams,
    build_fock_basis,
    build_hamiltonians,
    embed_two_copies,
    hopping_bs_check,
    interaction_phase_check,
    occupancy_probabilities,
    sample_loss,
)

__all__ = [name for name in dir() if not name.startswith("_")]
