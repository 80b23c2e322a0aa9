"""What ``import dppstats.cli`` loads, checked in a fresh interpreter.

The import, the disc variance, the limit constant and the m = 0 count law
(profile, pmf, generating product and sampler) load no scipy module at all:
the Gauss-Legendre and Gauss-Jacobi rules are the package's own, the
constant's prefactor comes from ``math.gamma``, and the count law's success
probabilities are negative-binomial sums in numpy.  The count law runs
before the planar variance, so that nothing loaded earlier hides an import.
The planar variance loads scipy.special on first use but neither
scipy.integrate (with scipy.optimize and scipy.sparse behind it) nor
scipy.linalg, since the Gauss-Laguerre rule is the package's own too, and
the other quadrature schemes import scipy.integrate when first used.
"""

import json
import os
import subprocess
import sys

import pytest

SCRIPT = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import dppstats.cli
from dppstats import (EuclideanLevel, HyperbolicLevel, QuadratureConfig, asymptotic_constant,
                      build_profile, distribution, generating_function, sample_counts,
                      variance_euclidean_geometric, variance_hyperbolic,
                      variance_hyperbolic_via_transformed)
from dppstats.quadrature import integrate_interval
import numpy as np

state = {"import": loaded()}
variance_hyperbolic(HyperbolicLevel(1.0, 0), 0.5)
variance_hyperbolic_via_transformed(HyperbolicLevel(5.3, 2), 0.99)
state["disc"] = loaded()
asymptotic_constant(HyperbolicLevel(3.5, 2))
asymptotic_constant(HyperbolicLevel(300.0, 0))
state["constant"] = loaded()
profile = build_profile(nu=1.5, r=0.7)
distribution(profile)
generating_function(profile, 0.5)
generating_function(profile, -0.5)
sample_counts(profile, 1, 1000)
asymptotic_constant(HyperbolicLevel(3.5, 2))
state["count_law"] = loaded()
variance_euclidean_geometric(EuclideanLevel(3), 2.0)
state["planar"] = loaded()
state["tanh_sinh"] = integrate_interval(np.exp, 0.0, 1.0, QuadratureConfig(scheme="tanh_sinh"))[0]
state["after_tanh_sinh"] = loaded()
print(json.dumps(state))
"""


@pytest.fixture(scope="module")
def state():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout)


def test_cli_import_loads_no_heavy_scipy_module(state):
    assert state["import"] == []


def test_disc_variance_loads_no_scipy_module(state):
    assert state["disc"] == []


def test_limit_constant_loads_no_scipy_module(state):
    assert state["constant"] == []


def test_planar_variance_loads_no_linalg(state):
    assert "scipy.linalg" not in state["planar"]
    assert "scipy.integrate" not in state["planar"]


def test_count_law_loads_no_scipy_module(state):
    assert state["count_law"] == []


def test_tanh_sinh_reaches_the_deferred_import(state):
    assert state["tanh_sinh"] == pytest.approx(1.718281828459045, rel=1e-12)
    assert "scipy.integrate" in state["after_tanh_sinh"]
