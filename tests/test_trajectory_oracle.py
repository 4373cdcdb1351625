"""A p != q trajectory against mpmath's Taylor-series ODE solver.

Every other exact solution in the tests is a p = q bubble or the singular
pair, so this is the check of the integrator's global error off the
diagonal.  The oracle starts from lelab's own row nearest above r = 0.5,
as exact binary values, and integrates the radial system at 22 digits;
it measures the error that lelab accumulates from there out to r = 5,
read through the dense output.  The DP5(4) kernel that DOP853 replaced
was off by 6.0e-12 (0.6 rel_tol) in u at r = 5 on this run.
"""

import numpy as np
import pytest

from lelab import RadialStatus, SystemParams, integrate

mpmath = pytest.importorskip("mpmath")

# lelab's error in u and v, relative to the oracle, in units of rel_tol
ORACLE_REL_ERROR = 0.1


def test_asymmetric_trajectory_matches_the_mpmath_oracle():
    p, q, d, v0, rel_tol = 7.0, 3.8, 3.0, 1.0544, 1e-11
    sol = integrate(SystemParams(p, q, d), v0, 6.0, rel_tol)
    assert sol.status is RadialStatus.COMPLETED
    i = int(np.searchsorted(sol.r, 0.5))

    def rhs(r, y):
        u, v, du, dv = y
        c = (d - 1) / r
        return [du, dv, -c * du - v**p, -c * dv - u**q]

    radii = [1.0, 2.0, 3.0, 4.0, 5.0]
    with mpmath.workdps(22):
        start = [mpmath.mpf(float(w[i])) for w in (sol.u, sol.v, sol.du, sol.dv)]
        oracle = mpmath.odefun(rhs, mpmath.mpf(float(sol.r[i])), start)
        exact = np.array([[float(w) for w in oracle(mpmath.mpf(r))[:2]] for r in radii]).T
    u, v, _, _ = sol.evaluate(np.array(radii))
    error = np.abs(np.array([u, v]) / exact - 1.0)
    assert error.max() <= ORACLE_REL_ERROR * rel_tol, error
