"""Stable matching and contribution games with friendship utilities and
unequal reward sharing: exact solvers, improvement dynamics, and
brute-force audits."""

from .instance import (
    EqualSharing,
    FriendshipVector,
    GameInstance,
    Graph,
    InstanceError,
    MatthewSharing,
    ObliviousSharing,
    ParasiteSharing,
    SharingRule,
    TrustSharing,
    UndefinedRatioError,
    compute_Q,
    compute_Q_prime,
    compute_R,
    instance_from_json,
    instance_to_json,
)
from .matching import (
    Deviation,
    Matching,
    PairVerdict,
    StabilityResult,
    apply_deviation,
    is_improving_pair,
    is_relaxed_blocking_pair,
    is_stable,
    matching_value,
    node_reward,
    perceived_utility,
    utility_profile,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
