"""What ``import dppstats.cli`` and each computation load, checked in a fresh interpreter.

The import, the disc variance, the limit constant, the m = 0 count law
(profile, pmf, generating product and sampler) and the planar variance load
no scipy module at all: the Gauss-Legendre, Gauss-Jacobi and Gauss-Laguerre
rules are the package's own, the constant's prefactor comes from
``math.gamma``, the count law's success probabilities are negative-binomial
sums in numpy, and L_n is a product over its zeros, which the package
computes itself.  The count law runs before the planar variance, so that
nothing loaded earlier hides an import.  Every quadrature scheme label runs
the one Gauss-Legendre engine, so none of them loads scipy.integrate either.
A second interpreter runs every CLI subcommand, the planar variance among them.
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
from dppstats.quadrature import SCHEMES, integrate_interval, integrate_rows
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
for scheme in SCHEMES:
    quad = QuadratureConfig(scheme=scheme)
    integrate_interval(np.exp, 1.0, 0.0, quad, breakpoints=(0.5,))
    integrate_rows(lambda x, k: np.exp(x), 0.0, np.ones(2), quad)
    variance_hyperbolic(HyperbolicLevel(1.6, 1), 0.7, quad)
state["labels"] = loaded()
print(json.dumps(state))
"""


CLI_SCRIPT = """
import contextlib, io, json, sys
from dppstats.cli import cli

for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(args, standalone_mode=False)
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""

CLI_COMMANDS = [
    ["variance", "--nu", "1.6", "--m", "1", "--r", "0.3", "--r", "0.9", "--route", "both"],
    ["variance", "--euclidean", "--n", "2", "--r", "0.5", "--r", "4", "--route", "both"],
    ["asymptotics", "--nu", "3.5", "--m", "2"],
    ["distribution", "--nu", "1.5", "--r", "0.7", "--s", "0.5", "--samples", "100"],
    ["contraction", "--m", "1", "--r", "1.2"],
]


def _run(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", *args], env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def state():
    return _run(SCRIPT)


def test_cli_import_loads_no_heavy_scipy_module(state):
    assert state["import"] == []


def test_disc_variance_loads_no_scipy_module(state):
    assert state["disc"] == []


def test_limit_constant_loads_no_scipy_module(state):
    assert state["constant"] == []


def test_planar_variance_loads_no_scipy_module(state):
    assert state["planar"] == []


def test_count_law_loads_no_scipy_module(state):
    assert state["count_law"] == []


def test_no_scheme_label_loads_scipy_integrate(state):
    assert "scipy.integrate" not in state["labels"]


def test_cli_subcommands_load_no_scipy_module():
    assert _run(CLI_SCRIPT, json.dumps(CLI_COMMANDS)) == []
