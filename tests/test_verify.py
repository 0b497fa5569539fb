"""The verify layer's RK4 oracle steps all flows as one array and gives the
same bits as stepping each flow on its own."""

import numpy as np

from sublorentz.verify import _rk4_flows


def _rk4_one(cov, t, steps):
    """Plain RK4 for one flow from the identity, one state vector per step."""
    hz = cov[2]

    def rhs(s):
        x, y, z, hx, hy = s
        return np.array([-hx, hy, 0.5 * (hx * y + hy * x), -hy * hz, -hx * hz])

    s = np.array([0.0, 0.0, 0.0, cov[0], cov[1]])
    h = t / steps
    for _ in range(steps):
        k1 = rhs(s)
        k2 = rhs(s + 0.5 * h * k1)
        k3 = rhs(s + 0.5 * h * k2)
        k4 = rhs(s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return s


def test_batched_rk4_is_bit_identical_to_per_flow_loop():
    rng = np.random.default_rng(7)
    covs = np.column_stack(
        [rng.uniform(-2, 2, 5), rng.uniform(-2, 2, 5), rng.uniform(-1.5, 1.5, 5)]
    )
    ts = rng.uniform(0.2, 2.0, 5)
    steps = 300
    batched = _rk4_flows(covs, ts, steps)
    looped = np.array([_rk4_one(cov, float(t), steps) for cov, t in zip(covs, ts)])
    assert batched.shape == (5, 5)
    assert np.array_equal(batched, looped)
