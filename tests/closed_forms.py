"""The paper's closed forms for the three-particle ensemble, kept as test
references for what the joint-CF recursion in ``turnover.charfn`` computes."""

from turnover.charfn import _check_cf
from turnover.offsets import OffsetDistribution


def distance_pair_cf_three(s1: float, s2: float, offsets: OffsetDistribution) -> float:
    """Closed form of the joint CF of the two distances when n=3."""
    def xi(v: float) -> float:
        return offsets.cf_scaled(v, 3)

    def psi(v: float) -> float:
        x = xi(v)
        return x / (2.0 - x)

    s1, s2 = float(s1), float(s2)
    val = (
        psi(s1) * (xi(s2) + xi(s1 + s2))
        + psi(s2) * (xi(s1) + xi(s1 + s2))
        + psi(s1 + s2) * (xi(s1) + xi(s2))
    ) / 6.0
    return _check_cf(val)


def particle_cf_three(s: float, offsets: OffsetDistribution) -> float:
    """Closed form of the single-particle CF when n=3: the diagonal
    (s/3, s/3) of the pair CF."""
    return distance_pair_cf_three(s / 3.0, s / 3.0, offsets)
