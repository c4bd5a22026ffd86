import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lbmf.model import ClusterSpec, Policy, ServerType, ServiceRateCurve

HOM_MU = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.5, 1.5, 1.5, 1.5]
HET_MU_1 = [1.0] * 10
HET_MU_2 = [0.8, 1.6, 2.4, 3.2, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0]

ALL_POLICIES = [Policy("random"), Policy("jiq"), Policy("jsqd", d=2),
                Policy("jsqd", d=5), Policy("jsq"), Policy("jbt")]


@pytest.fixture(scope="session")
def hom_spec():
    """Single-type benchmark cluster: lambda 1.25, ramped rates, buffer 10."""
    return ClusterSpec(lam=1.25, types=(
        ServerType(1.0, ServiceRateCurve.from_mu(HOM_MU), mpl=5),))


@pytest.fixture(scope="session")
def het_spec():
    """Two-type benchmark: steady single servers vs a batched fast type."""
    return ClusterSpec(lam=1.6, types=(
        ServerType(0.75, ServiceRateCurve.from_mu(HET_MU_1), mpl=1),
        ServerType(0.25, ServiceRateCurve.from_mu(HET_MU_2), mpl=5)))


@pytest.fixture(scope="session")
def b37_spec():
    """Two types with unequal buffers, 3 and 7, and thresholds 2 and 4."""
    return ClusterSpec(lam=1.2, types=(
        ServerType(0.4, ServiceRateCurve.from_mu([1.0, 1.5, 1.8]), mpl=2),
        ServerType(0.6, ServiceRateCurve.from_mu([0.8, 1.2, 1.5, 1.7, 1.8, 1.8, 1.8]),
                   mpl=4)))


@pytest.fixture(scope="session")
def b5_spec():
    """Homogeneous cluster truncated to buffer 5 (distribution studies)."""
    return ClusterSpec(lam=1.25, types=(
        ServerType(1.0, ServiceRateCurve.from_mu(HOM_MU[:5]), mpl=5),))
