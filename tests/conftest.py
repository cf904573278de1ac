"""Shared test configuration.

Per-example deadlines are disabled: several property tests call slow
independent oracles (sympy expansions) whose timing varies with suite load,
and wall-clock budgets are enforced by the acceptance criteria instead.
"""

import pytest
from hypothesis import settings

from sphere2gauss import polyalg

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@pytest.fixture
def fraction_calls(monkeypatch):
    """Row counts of the matrices that rational_rank hands to its Fraction elimination."""
    calls = []
    inner = polyalg._fraction_rank

    def counted(m):
        calls.append(len(m))
        return inner(m)

    monkeypatch.setattr(polyalg, "_fraction_rank", counted)
    return calls
