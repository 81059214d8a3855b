"""Closed-form levels in route tests: solve a route at one, and count how
many a run forms."""

import sys
from collections import Counter

from heundirac import default_grid, energy_closed_form, model


def solve_closed(solver, params, n, grid=None):
    """solver(params, level, grid) at the closed-form level n of params, on
    grid or, without one, on the level's default grid."""
    level = energy_closed_form(n, params)
    return solver(params, level, default_grid(level.lam) if grid is None else grid)


def count_closed_forms(monkeypatch):
    """Count every energy_closed_form call, at each binding of it in the
    package's modules; returns the Counter of (n, parity) formed."""
    import heundirac.cli, heundirac.oracle, heundirac.verify  # noqa: F401  every binding
    formed, exact = Counter(), model.energy_closed_form

    def counted(n, params):
        formed[n, params.parity] += 1
        return exact(n, params)
    for name, module in list(sys.modules.items()):
        if ((name == "heundirac" or name.startswith("heundirac."))
                and vars(module).get("energy_closed_form") is exact):
            monkeypatch.setattr(module, "energy_closed_form", counted)
    return formed
