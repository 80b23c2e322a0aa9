import pytest

from dppstats import quadrature


@pytest.fixture()
def small_budget(monkeypatch):
    """Set the Gauss-Legendre schedule: ``small_budget(first, most)`` nodes."""
    def set_budget(first, most):
        monkeypatch.setattr(quadrature, "_GL_FIRST_NODES", first)
        monkeypatch.setattr(quadrature, "_GL_MAX_NODES", most)
    return set_budget
