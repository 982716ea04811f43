"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one PASS/FAIL line (visible with ``pytest -s``; pytest's
own per-test verdicts mirror them).  Criteria 2, 3, 5, 6 and 7 read the
rows that their benchmark preset writes at its defaults, and pin those
defaults (and the order-fit floor, or the circle of complex steps) here,
so a changed preset fails the criterion instead of passing unchecked.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

from pscomp.coefficients import gamma_smallest_phase, gamma_triple_jump
from pscomp.composition import recursive_family
from pscomp.diagnostics import (
    leading_term, slope_with_floor, symplecticity_defect, taylor_coefficients,
)
from pscomp.problems import (
    CGLParams, S4SIM_B, cgl_nonlinear_map, fisher_reaction_map,
    ho_drift_flow, ho_exact, ho_kick_flow, ho_strang_flow,
    kepler_initial_conditions, kepler_strang_flow, s4sim,
)
from pscomp.problems.splitting import S4SIM_A_FRACTIONS, S4SIM_B_FRACTIONS
from pscomp.bench import run_preset
from pscomp.bench.run import PROBLEMS, TABLE1_NODES, TABLE1_RADIUS


def _halving(tau0, count):
    return tuple(tau0 * 0.5 ** np.arange(count))


def _report(criterion, checks):
    failed = [c for c in checks if not c[1]]
    print(f"ACCEPTANCE {criterion}: {'PASS' if not failed else 'FAIL'}")
    for label, ok, detail in checks:
        print(f"    {'ok  ' if ok else 'FAIL'} {label}: {detail}")
    assert not failed, [c[0] for c in failed]


def _preset_rows(tmp_path, preset, floor=None, **protocol):
    """Rows of ``preset`` run at its defaults, as dicts, after checking that
    its config is ``protocol`` and its order-fit floor is ``floor``."""
    table, _ = run_preset(preset, out_dir=str(tmp_path))
    assert table.metadata["config"] == protocol
    if floor is not None:
        assert PROBLEMS[protocol["problem"]].floor == floor
    return [dict(zip(table.schema, row)) for row in table.rows]


def _order_fits(rows):
    """Fitted orders of the base and of each family level, in that order."""
    return [row["slope"] for row in rows if row["quantity"] == "order_fit"]


def _global_error_slope(method, taus, t_final=1.0, floor=1e-13):
    errors = []
    for tau in taus:
        n = round(t_final / tau)
        mat = np.eye(2, dtype=complex)
        step = method.matrix(tau)
        for _ in range(n):
            mat = step @ mat
        errors.append(np.max(np.abs(mat - ho_exact(t_final))))
    return slope_with_floor(np.asarray(taus), np.asarray(errors), floor=floor)


def test_criterion_01_coefficient_identities():
    checks = []
    for k in (2, 4, 6):
        g = gamma_smallest_phase(k)
        sum_res = abs(g + g.conjugate() - 1.0)
        pow_res = abs(g ** (k + 1) + g.conjugate() ** (k + 1))
        checks.append((f"double-jump sum k={k}", sum_res < 1e-14, f"{sum_res:.2e}"))
        checks.append((f"double-jump power k={k}", pow_res < 1e-13, f"{pow_res:.2e}"))
        g1, g2 = gamma_triple_jump(k)
        tj_res = abs(2.0 * g1 ** (k + 1) + g2 ** (k + 1))
        checks.append((f"triple-jump power k={k}", tj_res < 1e-13, f"{tj_res:.2e}"))
    _report("1 coefficient identities", checks)


def test_criterion_02_truncation_and_defect_table(tmp_path):
    # The ho-table1 preset at its defaults: the Strang family, levels 1-3,
    # read on 32 complex steps of modulus 1.
    rows = _preset_rows(tmp_path, "ho-table1", problem="harmonic",
                        base_method="strang", levels=3, tau_list=(),
                        t_final=0.0, grid_points=None,
                        problem_params={"q0": 2.5, "p0": 0.0})
    assert (TABLE1_RADIUS, TABLE1_NODES) == (1.0, 32)
    fits = {(r["level"], r["quantity"], r["entry"]): (r["slope"], r["coefficient"])
            for r in rows}
    checks = []

    def check_entry(key, label, power, coeff, rel_tol, exp_tol=None):
        exponent, coefficient = fits[key]
        ok_exp = (round(exponent) == power if exp_tol is None
                  else abs(exponent - power) < exp_tol)
        rel = abs(abs(coefficient) - abs(coeff)) / abs(coeff)
        checks.append((f"{label} exponent", ok_exp, f"{exponent:.4f} vs {power}"))
        checks.append((f"{label} coefficient", rel < rel_tol,
                       f"{coefficient:.4e} vs {coeff:.4e} ({rel:.2%})"))

    def check_defects(level, power, coeff, rel_tol):
        for quantity, label in (("symmetry_defect", "symmetry defect"),
                                ("determinant_defect", "determinant defect")):
            check_entry((level, quantity, None), f"level{level} {label}",
                        power, coeff, rel_tol)

    # first projected level: tau^5 truncation pair, tau^8 defects at 1/1728
    check_entry((1, "truncation", "01"), "level1 (0,1)", 5, -1.0 / 180.0, 0.01, exp_tol=0.05)
    check_entry((1, "truncation", "10"), "level1 (1,0)", 5, -1.0 / 120.0, 0.01, exp_tol=0.05)
    check_defects(1, 8, 1.0 / 1728.0, 0.01)

    # second level: tau^7 truncation pair, tau^8 defects at 5.464537e-6
    check_entry((2, "truncation", "01"), "level2 (0,1)", 7, 3.883785e-5, 0.05)
    check_entry((2, "truncation", "10"), "level2 (1,0)", 7, 5.178380e-5, 0.05)
    check_defects(2, 8, 5.464537e-6, 0.05)

    # third level: tau^8 diagonal truncation, tau^8 defects at 1.163950e-8
    check_entry((3, "truncation", "00"), "level3 (0,0)", 8, 5.819748e-9, 0.10)
    check_entry((3, "truncation", "11"), "level3 (1,1)", 8, 5.819748e-9, 0.10)
    check_defects(3, 8, 1.163950e-8, 0.10)

    _report("2 truncation/defect table", checks)


def test_criterion_03_kepler_convergence(tmp_path):
    # Relative energy error at t = 20 of the Strang family, levels 1-3.
    slopes = _order_fits(_preset_rows(
        tmp_path, "kepler-order", floor=1e-13, problem="kepler",
        base_method="strang", levels=3, tau_list=_halving(20.0 / 250.0, 6),
        t_final=20.0, grid_points=None, problem_params={"e": 0.6}))
    checks = [
        ("splitting order 2", abs(slopes[0] - 2.0) < 0.2, f"{slopes[0]:.3f}"),
        ("level1 order 4", abs(slopes[1] - 4.0) < 0.2, f"{slopes[1]:.3f}"),
        ("level2 order 6", abs(slopes[2] - 6.0) < 0.3, f"{slopes[2]:.3f}"),
        ("level3 order >= 6.75", slopes[3] >= 6.75, f"{slopes[3]:.3f}"),
    ]
    _report("3 Kepler convergence", checks)


def test_criterion_04_fourth_order_splitting():
    sum_a = sum(S4SIM_A_FRACTIONS)
    (b1r, b1i), (b2r, b2i), (b3r, b3i) = S4SIM_B_FRACTIONS
    sum_b_re = 2 * (b1r + b2r) + b3r
    sum_b_im = 2 * (b1i + b2i) + b3i
    max_arg = max(abs(cmath.phase(b)) for b in S4SIM_B)
    arg_dev = abs(max_arg - math.acos(4.0 / 5.0))
    method = s4sim(ho_drift_flow(), ho_kick_flow())
    slope = _global_error_slope(method, 0.2 * 0.5 ** np.arange(6))
    checks = [
        ("sum of a coefficients", sum_a == Fraction(1), str(sum_a)),
        ("sum of b coefficients", (sum_b_re, sum_b_im) == (Fraction(1), Fraction(0)),
         f"{sum_b_re}+{sum_b_im}i"),
        ("max |arg b|", arg_dev < 1e-12, f"dev {arg_dev:.2e}"),
        ("order 4 on oscillator", abs(slope - 4.0) < 0.15, f"{slope:.3f}"),
    ]
    _report("4 fourth-order splitting", checks)


def test_criterion_05_coefficient_argument_audit(tmp_path):
    # The Strang family to level 3 and the s4sim family to level 4.
    rows = _preset_rows(tmp_path, "coeff-audit", problem="harmonic",
                        base_method="strang", levels=3, tau_list=(), t_final=0.0,
                        grid_points=None, problem_params={"q0": 2.5, "p0": 0.0})
    audit = {r["method"]: (r["value"], r["status"] == "all_positive_real")
             for r in rows if r["quantity"] == "max_coefficient_argument"}
    max_arg, all_positive = audit["strangx3"]
    target = (math.pi / 2.0) * (71.0 / 105.0)
    s4_arg, s4_positive = audit["s4simx4"]
    checks = [
        ("splitting family max argument", abs(max_arg - target) < 1e-12,
         f"{max_arg:.12f} vs {target:.12f}"),
        ("splitting family positivity", all_positive, str(all_positive)),
        ("fourth-order family bound", s4_arg < 0.96 * (math.pi / 2.0),
         f"{s4_arg / (math.pi / 2.0):.6f} of pi/2"),
        ("fourth-order family positivity", s4_positive, str(s4_positive)),
    ]
    _report("5 coefficient-argument audit", checks)


def test_criterion_06_reaction_diffusion_orders(tmp_path):
    # Successive error at t = 1 of the Strang family, levels 1-2, N = 128.
    slopes = _order_fits(_preset_rows(
        tmp_path, "fisher-order", floor=1e-13, problem="fisher",
        base_method="strang", levels=2, tau_list=_halving(0.05, 5), t_final=1.0,
        grid_points=128, problem_params={}))
    checks = [
        ("splitting order 2", abs(slopes[0] - 2.0) < 0.3, f"{slopes[0]:.3f}"),
        ("level1 order 4", abs(slopes[1] - 4.0) < 0.4, f"{slopes[1]:.3f}"),
        ("level2 order 6", abs(slopes[2] - 6.0) < 0.5, f"{slopes[2]:.3f}"),
    ]
    _report("6 reaction-diffusion orders", checks)


def test_criterion_07_ginzburg_landau_orders(tmp_path):
    # Successive error at t = 1 of the Strang family, levels 1-2, N = 512.
    slopes = _order_fits(_preset_rows(
        tmp_path, "cgl-order", floor=5e-13, problem="cgl",
        base_method="strang", levels=2, tau_list=_halving(0.05, 5), t_final=1.0,
        grid_points=512, problem_params={"c1": 1.0, "c3": -2.0, "eps": 1.0}))
    checks = [
        ("splitting order 2", abs(slopes[0] - 2.0) < 0.3, f"{slopes[0]:.3f}"),
        ("level1 order 4", abs(slopes[1] - 4.0) < 0.4, f"{slopes[1]:.3f}"),
        ("level2 order 6", abs(slopes[2] - 6.0) < 0.5, f"{slopes[2]:.3f}"),
    ]
    _report("7 Ginzburg-Landau orders", checks)


def _rk4(rhs, y0, tau, n_sub):
    y = y0
    h = tau / n_sub
    for _ in range(n_sub):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def test_criterion_08_closed_form_flow_oracles():
    rng = np.random.default_rng(2024)
    params = CGLParams(c1=1.0, c3=-2.0, eps=1.0)
    checks = []
    for tau in (0.05, 0.1, 0.2):
        u0 = rng.uniform(0.05, 0.95, size=64)
        closed = fisher_reaction_map()(u0, tau)
        reference = _rk4(lambda u: u * (1.0 - u), u0.astype(complex), tau, 10_000)
        err = float(np.max(np.abs(closed - reference)))
        checks.append((f"logistic flow tau={tau}", err < 1e-9, f"{err:.2e}"))

        v0 = rng.uniform(-0.8, 0.8, size=64)
        w0 = rng.uniform(-0.8, 0.8, size=64)
        out = cgl_nonlinear_map(params)(np.array([v0, w0]), tau)

        def rhs(y):
            v, w = y
            m = v**2 + w**2
            return np.array([-m * (v + params.c3 * w), -m * (-params.c3 * v + w)])

        ref = _rk4(rhs, np.array([v0, w0]), tau, 10_000)
        err = float(max(np.max(np.abs(out[0] - ref[0])),
                        np.max(np.abs(out[1] - ref[1]))))
        checks.append((f"cubic flow tau={tau}", err < 1e-9, f"{err:.2e}"))

        m0 = v0**2 + w0**2
        modulus = (out[0]**2 + out[1]**2).real
        law = float(np.max(np.abs(modulus - m0 / (1.0 + 2.0 * m0 * tau))))
        checks.append((f"modulus law tau={tau}", law < 1e-12, f"{law:.2e}"))
    _report("8 closed-form flow oracles", checks)


def _leading_series_term(cell, rho, n):
    """Leading term of the one-step series ``cell(tau)`` on a circle of radius rho."""
    c = taylor_coefficients(lambda taus: np.array([cell(t) for t in taus.tolist()]), rho, n)
    return leading_term(c, rho)


def test_criterion_09_pseudo_symmetry_defect_order():
    # The leading degree of the level-1 oscillator symmetry series
    # M(tau)M(-tau) - I, on the ho-table1 circle.
    ho_level1 = recursive_family(ho_strang_flow(), 1).levels[0]
    ho_degree = _leading_series_term(
        lambda t: ho_level1.matrix(t) @ ho_level1.matrix(-t) - np.eye(2),
        TABLE1_RADIUS, TABLE1_NODES)[0]
    checks = [("oscillator defect degree", ho_degree >= 7.75, str(ho_degree))]

    # Kepler (e = 0.6, from perihelion), levels 1-3, at two radii inside the
    # exact flow's nearest singularity (|t| ~ 0.30): a stage can cross the
    # log's cut between nodes without raising, so the radii must agree.
    # Both defects read degree 8 (declared q = r = 7), with the same
    # coefficient at both radii: the symplecticity coefficient is an entry
    # of an antisymmetric matrix, and leading_term takes the sign of the
    # first entry of the +- pair, so roundoff does not flip it.
    x0 = tuple(kepler_initial_conditions(0.6).as_vector().tolist())
    for level, method in enumerate(recursive_family(kepler_strang_flow(), 3).levels, 1):
        cells = {"symmetry": lambda t: np.subtract(method(method(x0, -t), t), x0),
                 "symplecticity": lambda t: symplecticity_defect(method, x0, t)}
        for label, cell in cells.items():
            terms = {rho: _leading_series_term(cell, rho, 64) for rho in (0.1, 0.15)}
            degrees = {t[0] for t in terms.values()}
            coefficients = [t[1] for t in terms.values()]
            checks.append((f"Kepler level{level} {label} defect degree",
                           degrees == {8} and math.isclose(*coefficients, rel_tol=1e-5),
                           ", ".join(f"{d} at rho {rho} (coefficient {coef:.6g}, "
                                     f"noise ratio {noise:.1e})"
                                     for rho, (d, coef, noise) in terms.items())))
    _report("9 pseudo-symmetry and pseudo-symplecticity defect orders", checks)


def test_criterion_10_deterministic_output(tmp_path):
    # Representative subset covering every emission path: an audit table,
    # a fit table, and a PDE order run with snapshot files.
    presets = [
        ("coeff-audit", None),
        ("ho-table1", None),
        ("fisher-order", {"tau_list": [0.025, 0.0125, 0.00625],
                          "grid_points": 64, "levels": 1}),
    ]
    checks = []
    for name, overrides in presets:
        first = tmp_path / f"{name}-one"
        second = tmp_path / f"{name}-two"
        paths = {}
        for out in (first, second):
            _, written = run_preset(name, overrides=overrides, out_dir=str(out))
            paths[out] = written
        identical = all(
            (first / p.split("/")[-1]).read_bytes()
            == (second / p.split("/")[-1]).read_bytes()
            for p in (str(q) for q in paths[first])
        )
        checks.append((f"{name} byte-identical", identical, f"{len(paths[first])} files"))
    _report("10 deterministic output", checks)
