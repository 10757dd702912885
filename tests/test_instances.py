"""The shipped instance files equal the builders that describe them."""

from pathlib import Path

import numpy as np
import pytest

from htpriv import instances
from htpriv.probcore import JointPmf
from htpriv.regions import HypothesisPair

ROOT = Path(__file__).resolve().parents[1]


def _with_trivial_z(pair: HypothesisPair) -> HypothesisPair:
    axes = pair.p.axes[:2] + (("Y", pair.p.axes[2][1]), ("Z", 1))
    return HypothesisPair(JointPmf(axes, pair.p.probs[..., None]),
                          JointPmf(axes, pair.q.probs[..., None]),
                          distortion=pair.distortion, d_max=pair.d_max)


# each shipped file and the builder call it was written from
BUILDERS = {
    "example1_suv": lambda: instances.example1_pair(0.25, 0),
    "example1_taci": lambda: _with_trivial_z(instances.example1_pair(0.25, 0)),
    "example2_tai": instances.example2_pair,
    "zero_rate_binary": instances.zero_rate_binary_pair,
    "counterexample_binary": instances.counterexample_pair,
}


@pytest.mark.parametrize("name", BUILDERS)
def test_shipped_instance_equals_its_builder(name):
    got = instances.load_instance(str(ROOT / "instances" / f"{name}.json"))
    want = BUILDERS[name]()
    assert got.p.axes == want.p.axes
    for a, b in ((got.p.probs, want.p.probs), (got.q.probs, want.q.probs),
                 (got.distortion, want.distortion)):
        assert np.array_equal(a, b)
    assert got.d_max == want.d_max
