"""Acceptance suite: the seven exit criteria, one test per criterion.

Each test prints a [PASS]/[FAIL] line with the measured worst deviation
and its tolerance, and asserts at that tolerance.  The truncation audit
(A6) is informational by design: it reports whether the series
coefficients collapse past the polynomial degree without gating the run.
"""

import math

import numpy as np
import pytest

from closed_level import solve_closed
from heundirac import (SystemParams, default_grid, energy_closed_form,
                       heun_params_case1, heun_params_case2, heun_params_full,
                       normalize, residual, shoot_energy, solve_quantization,
                       standard_vars)
from heundirac.model import ANALYTIC_ROUTES, level_bracket, level_channel
from heundirac.routes import ROUTE_SOLVERS, f_from_g, g_from_f, mixed1_parts
from heundirac.specfun import (KummerParams, heunc_ode_residual,
                               heunc_series_coefficients, heunc_truncation, kummer,
                               kummer_ode_residual)
from heundirac.verify import COLLAPSE_TOL

def report(name, dev, tol, extra=""):
    status = "PASS" if dev < tol else "FAIL"
    line = f"[{status}] {name}: max deviation {dev:.3e} (tolerance {tol:.1e})"
    if extra:
        line += f" {extra}"
    print(line)
    return dev < tol


def params_grid(couplings=(0.1, 0.3, 0.5), nus=(1, 2, 3), relative=()):
    for nu in nus:
        for e in couplings:
            yield SystemParams(e, nu)
        for frac in relative:
            yield SystemParams(frac * nu, nu)


def test_a1_spectrum_unification():
    tol = 1e-12
    dev = 0.0
    for nu in (1, 2, 3, 4):
        for e in (0.1, 0.3, 0.5, 0.9 * nu):
            p = SystemParams(e, nu)
            for n in range(7):
                ref = energy_closed_form(n, p).E
                for route in ANALYTIC_ROUTES:
                    E = solve_quantization(p, n, route).E
                    dev = max(dev, abs(E - ref) / ref)
    assert report("A1 spectrum unification (4 routes x 112 levels)", dev, tol)


def test_a2_oracle_confirmation():
    tol = 1e-8
    dev = 0.0
    count = 0
    for nu in (1, 2, 3):
        for e in (0.1, 0.3, 0.5):
            for n in range(6):
                p = level_channel(SystemParams(e, nu), n)
                ref = energy_closed_form(n, p).E
                level = shoot_energy(p, *level_bracket(p, n))
                dev = max(dev, abs(level.E - ref) / ref)
                assert level.n == n
                count += 1
    assert report(f"A2 oracle confirmation ({count} shots)", dev, tol)


def test_a3_fine_structure_sanity():
    tol = 1e-12
    e = 0.0072973525693
    p = SystemParams(e, 1)
    # binding energy via the closed form, rearranged free of cancellation:
    # 1 - 1/sqrt(1+q) = q / (sqrt(1+q) (1 + sqrt(1+q))), q = (e/N)^2
    N = p.frobenius_exponent
    q = (e / N) ** 2
    binding = q / (math.sqrt(1.0 + q) * (1.0 + math.sqrt(1.0 + q)))
    reference = e * e / (1.0 + math.sqrt(1.0 - e * e))  # 1 - sqrt(1-e^2)
    dev = abs(binding - reference) / reference
    # and the level energy itself reproduces the binding at float accuracy
    E = energy_closed_form(0, p).E
    assert abs((p.m - E) / p.m - reference) < 1e-15
    assert reference == pytest.approx(2.6626e-5, rel=1e-4)
    assert report("A3 fine-structure binding energy", dev, tol,
                  extra=f"(binding {binding:.6e})")


def test_a4_wavefunction_residuals_and_cross_route_agreement():
    res_tol = 1e-6
    agree_tol = 1e-6
    worst_res = 0.0
    worst_agree = 0.0
    for nu in (1, 2, 3):
        for e in (0.2, 0.5):
            for n in range(5):
                p = level_channel(SystemParams(e, nu), n)
                normed = {}
                for route, solver in ROUTE_SOLVERS.items():
                    sol = solve_closed(solver, p, n)
                    worst_res = max(worst_res, residual(sol))
                    normed[route] = normalize(sol)
                ref = normed["standard"]
                fs, gs = np.max(np.abs(ref.f)), np.max(np.abs(ref.g))
                for sol in normed.values():
                    worst_agree = max(
                        worst_agree,
                        float(np.max(np.abs(sol.f - ref.f)) / fs),
                        float(np.max(np.abs(sol.g - ref.g)) / gs))
    ok_res = report("A4 system residuals (4 routes x 30 levels)", worst_res, res_tol)
    ok_agree = report("A4 cross-route pointwise agreement", worst_agree, agree_tol)
    assert ok_res and ok_agree


def test_a5_operator_closure_and_coefficient_ratio():
    closure_tol = 1e-6
    ratio_tol = 1e-12
    identity_tol = 1e-13
    worst_closure = 0.0
    worst_ratio = 0.0
    worst_identity = 0.0
    for nu, e in ((1, 0.5), (2, 0.3), (3, 0.9)):
        p = SystemParams(e, nu)
        for n in range(1, 5):
            level = energy_closed_form(n, p)
            E, lam = level.E, level.lam
            r, f_part, df, g_part, dg, case, _ = mixed1_parts(p, level, default_grid(lam))
            g_implied = g_from_f(case, p, r, f_part, p.m * df)
            worst_closure = max(worst_closure, float(
                np.max(np.abs(g_implied - g_part)) / np.max(np.abs(g_part))))
            f_back = f_from_g(case, p, r, g_part, p.m * dg)
            mask = np.abs(f_part) > 1e-3 * np.max(np.abs(f_part))
            ratio = f_back[mask] / f_part[mask]
            worst_closure = max(worst_closure, float(
                np.max(np.abs(ratio / ratio[len(ratio) // 2] - 1.0))))

            # C1/C2 of the standard route from each first-order equation
            sv = standard_vars(p, E, lam)
            first = (nu - sv.mu) / n
            second = -(sv.a_frob + sv.eps) / (nu + sv.mu)
            worst_ratio = max(worst_ratio, abs(first - second) / abs(second))
            lhs = nu * nu - sv.mu ** 2
            rhs = sv.a_frob ** 2 - sv.eps ** 2
            worst_identity = max(worst_identity, abs(lhs - rhs) / abs(rhs))
    ok1 = report("A5 first-order map round trip", worst_closure, closure_tol)
    ok2 = report("A5 coefficient-ratio agreement", worst_ratio, ratio_tol)
    ok3 = report("A5 identity nu^2-mu^2 = a^2-eps^2", worst_identity, identity_tol)
    assert ok1 and ok2 and ok3


def test_a6_truncation_audit():
    # Informational: the degree condition is only one of the two
    # polynomial requirements, so collapse past the degree is measured,
    # reported, and not gated.
    print("[AUDIT] A6 series truncation beyond the degree condition:")
    audited = 0
    for nu, e in ((1, 0.5), (2, 0.3), (3, 0.9)):
        for n in range(5):
            p = level_channel(SystemParams(e, nu), n)
            level = energy_closed_form(n, p)
            at = (p, level.E, level.lam)
            maps = {"mixed2": heun_params_case2(*at),
                    "heun": heun_params_full(*at)}
            if not (n == 0 and p.parity == -1):
                maps["mixed1"] = heun_params_case1(*at)
            for name, hp in maps.items():
                coeffs = heunc_series_coefficients(hp, n + 6)
                head = np.max(np.abs(coeffs[:n + 1]))
                beyond = np.max(np.abs(coeffs[n + 1:]))
                collapsed = beyond < COLLAPSE_TOL * head
                print(f"    nu={nu} e={e} n={n} {name}: "
                      f"beyond/head = {beyond / head:.2e}  collapsed={collapsed}")
                audited += 1
    print(f"[PASS] A6 truncation audit ran on {audited} parameter maps")
    assert audited == 42


def test_a7_special_function_property_suite():
    ode_tol = 1e-8
    rel_tol = 1e-10
    worst_ode = 0.0
    # Kummer equation over the stated box
    for a in np.linspace(-5.0, 5.0, 11):
        for c in (0.7, 1.4, 2.6, 4.1):
            kp = KummerParams(float(a), c)
            for x in np.linspace(-20.0, 20.0, 9):
                if x == 0.0:
                    continue
                worst_ode = max(worst_ode, kummer_ode_residual(kp, float(x)))
    ok_kummer = report("A7 Kummer equation residual", worst_ode, ode_tol)

    worst_rel = 0.0
    for n1 in range(1, 7):
        for g in (0.9, 1.7, 3.0, 5.2):
            for y in np.linspace(0.1, 10.0, 12):
                y = float(y)
                f_n = kummer(KummerParams(-n1, g), y)
                f_n1 = kummer(KummerParams(-n1 + 1, g), y)
                f_up = kummer(KummerParams(-n1 + 1, g + 1.0), y)
                lhs = (-n1 / g) * f_up   # d/dy 1F1(a; c; y) = (a/c) 1F1(a+1; c+1; y)
                t1 = (-n1 / y) * f_n1
                t2 = (n1 / y) * f_n
                scale = max(abs(lhs), abs(t1), abs(t2), 1e-12)
                worst_rel = max(worst_rel, abs(lhs - (t1 + t2)) / scale)
                lhs2 = y * f_up
                u1 = g * f_n1
                u2 = g * f_n
                scale2 = max(abs(lhs2), abs(u1), abs(u2), 1e-12)
                worst_rel = max(worst_rel, abs(lhs2 - (u1 - u2)) / scale2)
    ok_rel = report("A7 differentiation rule and contiguous relation",
                    worst_rel, rel_tol)

    worst_heun = 0.0
    for nu, e in ((1, 0.5), (2, 0.3), (3, 2.7)):
        for n in range(4):
            p = level_channel(SystemParams(e, nu), n)
            level = energy_closed_form(n, p)
            maps = [heun_params_full(p, level.E, level.lam),
                    heun_params_case2(p, level.E, level.lam)]
            worst_heun = max(worst_heun, np.max(heunc_ode_residual(
                maps, np.array([-12.0, -0.8, -0.35, 0.4, 0.85]),
                [heunc_truncation(hp)[1] for hp in maps])))
    ok_heun = report("A7 confluent Heun equation residual", worst_heun, ode_tol)
    assert ok_kummer and ok_rel and ok_heun
