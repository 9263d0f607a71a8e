"""pairband: joint user pairing and bandwidth allocation for paired downlink delivery.

The library solves a two-level resource-allocation problem: partition an
even number of users into transmit pairs (minimum-weight perfect matching
on pairwise distortion costs) and split the band across the resulting
groups (KKT water-filling on a concave rate model) so that total semantic
distortion is minimized under bandwidth, latency, and energy budgets.
"""

from .channel import (
    f_limit,
    f_prime,
    f_value,
    g_value,
    path_loss_db,
)
from .latency_energy import SystemConfig, UserProfile
from .bandwidth import AllocationReport
from .pairing import Matching, PairCostMatrix
from .distortion import DistortionTable, SimilarityModel
from .solver import Scenario, SolveResult

__version__ = "0.1.0"
