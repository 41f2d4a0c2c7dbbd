"""Profiles, and profile and conjecture helpers, that only the tests use."""

from cursedeq.conjectures import Conjecture
from cursedeq.tree import BehaviorProfile


def mix(profile: BehaviorProfile, other: BehaviorProfile, weight: float) -> BehaviorProfile:
    """(1 - weight) * profile + weight * other, entrywise."""
    return BehaviorProfile({iid: {a: (1 - weight) * p + weight * other.dists[iid][a]
                                  for a, p in dist.items()}
                            for iid, dist in profile.dists.items()})


def distance(profile: BehaviorProfile, other: BehaviorProfile) -> float:
    """The largest entrywise gap between two profiles over the same sets."""
    return max((abs(p - other.dists[i][a])
                for i, d in profile.dists.items() for a, p in d.items()), default=0.0)


def copy_conjecture(conj: Conjecture) -> Conjecture:
    return Conjecture(conj.owner, {i: dict(d) for i, d in conj.dists.items()})


def mixing_keys(dists: dict, free) -> list:
    """The keys of ``free`` at which ``dists`` plays two actions or more:
    those whose indifference conditions the solver's polish roots."""
    return [k for k in free if sum(p > 0.0 for p in dists[k].values()) > 1]


def running_profile_y() -> BehaviorProfile:
    """Running example, depicted profile: 1 plays y; 2 plays l, l, r."""
    return BehaviorProfile({
        "1:I": {"x": 0.0, "y": 1.0},
        "2:w1": {"l": 1.0, "r": 0.0},
        "2:w2y": {"l": 1.0, "r": 0.0},
        "2:w3y": {"l": 0.0, "r": 1.0},
    })


def running_profile_x() -> BehaviorProfile:
    """Same as the depicted profile except player 1 keeps the move (x)."""
    p = running_profile_y()
    p.dists["1:I"] = {"x": 1.0, "y": 0.0}
    return p


def pennies_profile_b() -> BehaviorProfile:
    """Pennies onlooker: both pennies players mix evenly; the onlooker picks b."""
    return BehaviorProfile({
        "I1": {"H": 0.5, "T": 0.5},
        "I2": {"h": 0.5, "t": 0.5},
        "I3": {"a": 0.0, "b": 1.0},
    })
