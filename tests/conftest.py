"""Brent's method of the package against scipy's brentq, the C code it ports."""

import pytest
from scipy.optimize import brentq

from heundirac import HeunDiracError


def _scipy_outcome(f, a, b, xtol, rtol, maxiter):
    """(root bits, converged, iterations) of scipy's brentq, or its error text."""
    try:
        root, result = brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter,
                              full_output=True, disp=False)
    except ValueError as exc:
        return str(exc)
    return root.hex(), result.converged, result.iterations


def _port_outcome(port, f, a, b, xtol, rtol, maxiter):
    """The same outcome of the package's port."""
    try:
        root, iterations, converged = port(f, a, b, xtol, rtol, maxiter)
    except HeunDiracError as exc:
        return str(exc)
    return root.hex(), converged, iterations


@pytest.fixture
def brent_against_scipy(monkeypatch):
    """check(module) makes module._brentq run scipy's brentq on each of its
    solves too and assert the same outcome: the root bits, converged and the
    iteration count, or the error text.  It returns the list of outcomes.  At an
    exact zero at an end scipy returns before it sets its iteration count, which
    then reads whatever the memory held; the port reports 0 there."""
    def check(module):
        port, outcomes = module._brentq, []

        def checked(f, a, b, xtol, rtol, maxiter):
            values = {}

            def once(x):   # each value computed once for both solvers
                if x not in values:
                    values[x] = f(x)
                return values[x]

            outcome = _port_outcome(port, once, a, b, xtol, rtol, maxiter)
            expected = _scipy_outcome(once, a, b, xtol, rtol, maxiter)
            if not isinstance(expected, str) and 0.0 in (once(a), once(b)):
                expected = (*expected[:2], 0)
            assert outcome == expected, (a, b)
            outcomes.append(outcome)
            return port(once, a, b, xtol, rtol, maxiter)

        monkeypatch.setattr(module, "_brentq", checked)
        return outcomes

    return check
