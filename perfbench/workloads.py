"""Seeded request mixes for the four benchmark workloads.

A workload is a cycle of request classes with fixed counts.  Each class
has a fixed domain of argument lists (output format included); the seed
deals each request from its class's domain, adds --no-timestamp to half
of them, and shuffles the order within a cycle.  It never changes how
many requests of each class a cycle holds.  A run executes whole cycles, so
every run of a workload has the same composition, and its fail ratio is
exactly the share of the known-failing classes.

The domains of the passing classes were checked point by point against
the reference (``reference.py``; ``validate.py`` repeats the check):
every argument list in them passes.  Couplings come from a fixed set per
j (0.25 nu ... 0.85 nu, plus the fine-structure constant where a class
says so), because the program has isolated failing couplings inside that
range (see the inventory).

Classes with a ``defect`` are the failure inventory: inputs on which the
program is known to exit non-zero or to print an answer outside
tolerance.  They stay in the mix on purpose, each with one fixed argument
list, so whether they fail never depends on the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import product

ALPHA = "0.0072973525693"
MASSES = ("1", "0.51099895", "2")
JS = ("0.5", "1.5", "2.5")
ANALYTIC = ("standard", "mixed1", "mixed2", "heun")
FORMATS = ("json", "csv")


@dataclass(frozen=True)
class RequestClass:
    name: str
    count: int                           # requests per cycle
    domain: tuple[tuple[str, ...], ...]  # argument lists the seed picks from
    defect: str | None = None            # known failure the class shows

    def request(self, base: tuple[str, ...], rng: random.Random) -> list[str]:
        argv = list(base)
        if argv[0] != "verify" and self.defect is None and rng.random() < 0.5:
            argv.append("--no-timestamp")
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tail_percentile: float   # highest of 75/90/99 with >= 10 requests beyond
                             # it at the planned run size
    classes: tuple[RequestClass, ...]
    warmup: tuple[str, ...]  # the untimed request that ends set-up
    trace_cycles: int        # whole cycles in the traced comparison

    def cycles(self, seed: int):
        """Endless deterministic sequence of cycles for this seed.

        Each class deals its domain like a shuffled deck (without
        replacement, reshuffled when empty), so every run covers the
        domain evenly and seeds differ in order, not in cost mix.
        """
        rng = random.Random(f"{self.name}:{seed}")
        decks = {c.name: [] for c in self.classes}

        def deal(cls):
            deck = decks[cls.name]
            if not deck:
                deck.extend(cls.domain)
                rng.shuffle(deck)
            return cls.request(deck.pop(), rng)

        while True:
            reqs = [(c.name, deal(c)) for c in self.classes for _ in range(c.count)]
            rng.shuffle(reqs)
            yield reqs

    def defects(self) -> dict[str, str]:
        return {c.name: c.defect for c in self.classes if c.defect}

    def cycle_size(self) -> int:
        return sum(c.count for c in self.classes)


def _nu(j: str) -> int:
    return int(round(float(j) + 0.5))


def _couplings(j: str) -> tuple[str, ...]:
    return tuple(f"{f * _nu(j):.6g}" for f in (0.25, 0.4, 0.55, 0.7, 0.85))


def _lam(mass: str, e: str, j: str, n: int) -> float:
    """Decay constant sqrt(m^2 - E^2) of level n, from the closed form."""
    m, c, nu = float(mass), float(e), _nu(j)
    ratio = c / (n + math.sqrt(nu * nu - c * c))
    return m * ratio / math.sqrt(1.0 + ratio * ratio)


def _domain(build, **axes) -> tuple[tuple[str, ...], ...]:
    """build(**point) for every point of the product of the axes.

    The axis ``e`` may be the function _couplings, evaluated per j; build
    returns None for points that do not exist (n=0 at parity +1).
    """
    names = [k for k in axes if k != "e"]
    out = []
    for values in product(*(axes[k] for k in names)):
        point = dict(zip(names, values))
        es = axes["e"](point["j"]) if callable(axes["e"]) else axes["e"]
        for e in es:
            argv = build(e=e, **point)
            if argv is not None:
                out.append(tuple(argv))
    return tuple(out)


def _one(*argv: str) -> tuple[tuple[str, ...], ...]:
    return (tuple(argv),)


# ----------------------------------------------------------------------
# spectrum
# ----------------------------------------------------------------------

def _spectrum(k: int, routes=("all",), parities=("1",), couplings=_couplings,
              js=JS, masses=MASSES):
    def build(e, j, route, parity, mass, fmt):
        return ["spectrum", "--route", route, "--coupling", e, "--j", j,
                "--parity", parity, "--n-max", str(k), "--mass", mass,
                "--format", fmt]
    return _domain(build, e=couplings, j=js, route=routes, parity=parities,
                   mass=masses, fmt=FORMATS)


_PARITY_MINUS = ("mixed1 quantization has no root at n=0 in the parity -1 "
                 "channel: exit 2 for every n_max")

SPECTRUM = Workload(
    name="spectrum",
    why=("spectrum --route all at n_max 1-16: model.solve_quantization bisection "
         "over all four route residuals; routes and oracle do nothing"),
    tail_percentile=90.0,
    classes=(
        RequestClass("all_k1", 12, _spectrum(1)),
        RequestClass("all_k3", 12, _spectrum(3)),
        RequestClass("all_k3_alpha", 2, _spectrum(3, couplings=(ALPHA,))),
        RequestClass("single_route_k5", 10,
                     _spectrum(5, ("standard", "mixed2", "heun"), ("1", "-1"),
                               masses=("1", "2"))),
        RequestClass("mixed1_k5", 3, _spectrum(5, ("mixed1",))),
        RequestClass("all_k5", 22, _spectrum(5)),
        RequestClass("all_k8", 12, _spectrum(8)),
        RequestClass("all_k8_alpha", 2, _spectrum(8, couplings=(ALPHA,))),
        RequestClass("all_k12", 10, _spectrum(12)),
        RequestClass("all_k16", 12, _spectrum(16)),
        RequestClass("all_parity_minus", 1,
                     _one("spectrum", "--route", "all", "--coupling", "0.5",
                          "--parity", "-1", "--n-max", "5"),
                     defect=_PARITY_MINUS),
        RequestClass("mixed1_parity_minus", 1,
                     _one("spectrum", "--route", "mixed1", "--coupling", "0.5",
                          "--parity", "-1", "--n-max", "5", "--format", "csv"),
                     defect=_PARITY_MINUS),
        RequestClass("single_route_singular_energy", 1,
                     _one("spectrum", "--route", "standard", "--coupling", "0.55",
                          "--parity", "-1", "--n-max", "5", "--mass", "0.51099895"),
                     defect="every route's bisection evaluates all four residuals; "
                            "at parity -1 a step can land on E = m cos A, where the "
                            "case-1 map raises: exit 2 (isolated masses/couplings)"),
    ),
    warmup=("spectrum", "--route", "all", "--coupling", "0.5", "--n-max", "1"),
    trace_cycles=2,
)


# ----------------------------------------------------------------------
# wavefunction
# ----------------------------------------------------------------------

# isolated failing points of the wavefunction domains; the inventory
# holds one of them (mixed1_parity_minus_isolated)
_ISOLATED = {("mixed1", "0.75", "2.5", "-1", 1, m) for m in ("1", "2")}


def _wave(ns, points: int = 2000, wide: bool = False, couplings=_couplings,
          parities=("1", "-1"), masses=MASSES):
    """wide=True passes --r-max (40 + 3n)/lam, which holds the states with
    n >= 6 that the default 40/lam grid cuts."""
    def build(e, j, n, route, parity, mass, fmt):
        if n == 0 and parity == "1":
            return None  # the nodeless level exists only at parity -1
        if (route, e, j, parity, n, mass) in _ISOLATED:
            return None
        argv = ["wavefunction", "--route", route, "--coupling", e, "--j", j,
                "--parity", parity, "--n", str(n), "--n-max", str(n), "--mass", mass]
        if points != 2000:
            argv += ["--grid-points", str(points)]
        if wide:
            argv += ["--r-max", repr((40.0 + 3.0 * n) / _lam(mass, e, j, n))]
        return argv + ["--format", fmt]
    return _domain(build, e=couplings, j=JS, n=ns, route=ANALYTIC,
                   parity=parities, mass=masses, fmt=FORMATS)


WAVEFUNCTION = Workload(
    name="wavefunction",
    why=("wavefunction per route on 2000 and 20000 points, n up to 24: routes, "
         "specfun polynomial paths and cli table output; model does almost none"),
    tail_percentile=90.0,
    classes=(
        RequestClass("low_n", 56, _wave((0, 1, 2, 3, 4, 5))),
        RequestClass("low_n_alpha", 6, _wave((1, 2, 3, 4, 5), couplings=(ALPHA,),
                                             parities=("1",))),
        RequestClass("high_n_wide", 25, _wave((6, 8, 10, 12, 14, 16), wide=True)),
        RequestClass("low_n_20000", 33, _wave((0, 1, 2, 3, 4), points=20000,
                                              masses=("1",))),
        RequestClass("default_grid_high_n", 1,
                     _one("wavefunction", "--route", "standard", "--coupling", "0.5",
                          "--n", "12", "--n-max", "12", "--format", "csv"),
                     defect="the default grid ends at 40/lam, which cuts states "
                            "with n >~ 6: tail at r_max is 8e-4 of the peak at n=12"),
        RequestClass("high_n_degradation", 1,
                     _one("wavefunction", "--route", "mixed2", "--coupling", "0.9",
                          "--n", "24", "--n-max", "24",
                          "--r-max", repr(112.0 / _lam("1", "0.9", "0.5", 24))),
                     defect="monomial polynomial evaluation loses digits at n >~ 20: "
                            "pointwise deviation above 1e-6 at n=24"),
        RequestClass("heun_alpha_n16", 1,
                     _one("wavefunction", "--route", "heun", "--coupling", ALPHA,
                          "--n", "16", "--n-max", "16"),
                     defect="Heun truncation rejected at e=alpha from n=15 "
                            "(absolute 1e-8 degree tolerance): exit 2"),
        RequestClass("mixed1_alpha_parity_minus", 1,
                     _one("wavefunction", "--route", "mixed1", "--coupling", ALPHA,
                          "--parity", "-1", "--n", "2", "--n-max", "2"),
                     defect="case-1 Heun series not accepted as terminating at "
                            "e=alpha in the parity -1 channel (every n >= 1): exit 2"),
        RequestClass("mixed1_parity_minus_isolated", 1,
                     _one("wavefunction", "--route", "mixed1", "--coupling", "0.75",
                          "--j", "2.5", "--parity", "-1", "--n", "1", "--n-max", "1"),
                     defect="the same rejection at isolated couplings away from "
                            "alpha (e=0.75, j=5/2, n=1): exit 2"),
    ),
    warmup=("wavefunction", "--route", "standard", "--coupling", "0.5", "--n", "1",
            "--n-max", "1"),
    trace_cycles=2,
)


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _verify(k: int, routes=("all",)):
    def build(e, j, route, mass):
        return ["verify", "--route", route, "--coupling", e, "--j", j,
                "--n-max", str(k), "--mass", mass]
    return _domain(build, e=_couplings, j=JS, route=routes, mass=MASSES)


VERIFY = Workload(
    name="verify",
    why=("verify --route all at n_max 1-8: the only caller of the verify layer "
         "and of the specfun scalar evaluators and ODE residuals"),
    tail_percentile=90.0,
    classes=(
        RequestClass("k1", 12, _verify(1)),
        RequestClass("single_route_k3", 6, _verify(3, ANALYTIC)),
        RequestClass("k2", 12, _verify(2)),
        RequestClass("k3", 12, _verify(3)),
        RequestClass("k4", 12, _verify(4)),
        RequestClass("k6", 10, _verify(6)),
        RequestClass("k8", 12, _verify(8)),
        RequestClass("alpha_j12_k6", 1,
                     _one("verify", "--coupling", ALPHA, "--j", "0.5", "--n-max", "6"),
                     defect="small-coupling cancellation: five checks exceed their "
                            "tolerances at e=alpha (exit 1 for every n_max)"),
        RequestClass("e01_j52_k6", 1,
                     _one("verify", "--coupling", "0.1", "--j", "2.5", "--n-max", "6"),
                     defect="small-coupling cancellation: coefficient_ratio and "
                            "scaled_variable_identities fail at e=0.1, j=5/2 (exit 1)"),
        RequestClass("heavy_mass", 1,
                     _one("verify", "--coupling", "1.0", "--j", "1.5", "--n-max", "3",
                          "--mass", "938.272"),
                     defect="wavefunction_residuals exceeds 1e-6 at m=938.272 "
                            "(exit 1)"),
        RequestClass("kummer_relations_isolated", 1,
                     _one("verify", "--coupling", "0.539566", "--j", "1.5",
                          "--n-max", "6"),
                     defect="kummer_relations reaches 1.5e-10 against 1e-10 at "
                            "isolated couplings (e=0.539566, j=3/2, n_max >= 6): exit 1"),
    ),
    warmup=("verify", "--coupling", "0.5", "--n-max", "1"),
    trace_cycles=1,
)


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------

def _oracle_window():
    """Oracle wavefunctions on a grid cut at lam*r = 15, inside the window
    where the growing mode has not yet overtaken the bound state."""
    def build(e, j, n, fmt):
        return ["wavefunction", "--route", "oracle", "--coupling", e, "--j", j,
                "--n", str(n), "--n-max", str(n),
                "--r-max", repr(15.0 / _lam("1", e, j, n)), "--format", fmt]
    return _domain(build, e=lambda j: _couplings(j)[2:3], j=JS[:2], n=(1, 2, 3),
                   fmt=FORMATS)


# A run holds few oracle requests (about 40), so each domain below is
# sized to be dealt exactly once in the four cycles of a run: every run
# serves the same requests, in a seeded order.  Two alpha requests per
# cycle put p75 inside the block of the slowest passing class.
ORACLE = Workload(
    name="oracle",
    why=("every --route oracle request (spectrum, wavefunction, verify): "
         "shooting and dop853 integration do all of the work"),
    tail_percentile=75.0,
    classes=(
        RequestClass("wavefunction_window", 3, _oracle_window()),
        RequestClass("spectrum_k0", 3,
                     _spectrum(0, ("oracle",), couplings=lambda j: _couplings(j)[1:4],
                               js=JS[:2], masses=("1",))),
        RequestClass("verify_k0", 1,
                     _domain(lambda e, j: ["verify", "--route", "oracle", "--coupling",
                                          e, "--j", j, "--n-max", "0"],
                             e=lambda j: _couplings(j)[1:4:2], j=JS[:2])),
        RequestClass("spectrum_k0_alpha", 2,
                     _spectrum(0, ("oracle",), couplings=(ALPHA,), js=JS[:1],
                               masses=("1",))),
        RequestClass("wavefunction_default_grid", 1,
                     _one("wavefunction", "--route", "oracle", "--coupling", "0.5",
                          "--n", "1", "--n-max", "1"),
                     defect="oracle wavefunction tabulates to 40/lam, past the "
                            "lam*r ~ 20 limit: the growing mode fills the tail "
                            "(|f| at r_max equals the peak)"),
    ),
    warmup=("wavefunction", "--route", "oracle", "--coupling", "0.5", "--n", "1",
            "--n-max", "1"),
    trace_cycles=1,
)

WORKLOADS = {w.name: w for w in (SPECTRUM, WAVEFUNCTION, VERIFY, ORACLE)}
