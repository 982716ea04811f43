"""Correctness gates, applied to the CSV file a preset run wrote.

A gate returns a list of checks ``(label, ok, detail)``; the detail shows
the measured value next to its bound.  Cells that raised a singularity
are counted separately by :func:`cell_counts`.
"""

import csv
import math

import numpy as np

#: Fitted-order bounds of acceptance criterion 3 (Kepler energy error).
KEPLER_ORDER_BOUNDS = {"strang": (2.0, 0.2), "level1": (4.0, 0.2),
                       "level2": (6.0, 0.3)}
KEPLER_LEVEL3_MIN_ORDER = 6.75

#: Fitted-order bounds of acceptance criterion 7 (Ginzburg-Landau).
CGL_ORDER_BOUNDS = {"strang": (2.0, 0.3), "level1": (4.0, 0.4),
                    "level2": (6.0, 0.5)}

#: Relative tolerance on the oscillator energy plateau.  Roundoff moves it
#: by about 1e-9 relative at these steps; a wrong method moves it by O(1).
PLATEAU_RTOL = 1e-6

#: Energy plateau per tau of ho-s4sim-long at seed 0, as the unmodified
#: program wrote it (q0 = 2.5, p0 = 0).
SEED0_PLATEAU = {1.2: 1.4611479802795202e-04, 1.0: 5.4577488166955843e-05,
                 0.8: 1.6848858122244793e-05}

CELL_QUANTITIES = ("energy_error", "successive_error", "energy_plateau")


def read_rows(csv_path):
    with open(csv_path, newline="") as fh:
        return list(csv.DictReader(fh))


def cell_counts(rows):
    """``(cells, singular)``: computed cells and those that hit a singularity."""
    cells = [r for r in rows if r["quantity"] in CELL_QUANTITIES]
    singular = [r for r in cells if r["status"].startswith("singular")]
    return len(cells), len(singular)


def _order_checks(rows, bounds, minimum=None):
    slopes = {r["method"]: float(r["slope"] or "nan") for r in rows
              if r["quantity"] == "order_fit"}
    checks = []
    for method, (target, tol) in bounds.items():
        slope = slopes.get(method, math.nan)
        checks.append((f"{method} order", bool(abs(slope - target) < tol),
                       f"{slope:.3f} vs {target:g} +/- {tol:g}"))
    if minimum is not None:
        method, bound = minimum
        slope = slopes.get(method, math.nan)
        checks.append((f"{method} order", bool(slope >= bound),
                       f"{slope:.3f} vs >= {bound:g}"))
    return checks


def kepler_gate(rows, inputs):
    return _order_checks(rows, KEPLER_ORDER_BOUNDS,
                         minimum=("level3", KEPLER_LEVEL3_MIN_ORDER))


def cgl_gate(rows, inputs):
    return _order_checks(rows, CGL_ORDER_BOUNDS)


def _kick(h):
    return np.array([[1.0, 0.0], [-h, 1.0]], dtype=complex)


def _drift(h):
    return np.array([[1.0, h], [0.0, 1.0]], dtype=complex)


def oscillator_level1_matrix(tau):
    """Level-1 map of the s4sim family on the oscillator, built here from
    the paper's formulas rather than from the program's combinators.

    s4sim is kick(b1) drift(1/4) kick(b2) drift(1/4) kick(b3) drift(1/4)
    kick(b2) drift(1/4) kick(b1); level 1 composes it at the conjugate
    steps conj(g) tau then g tau with g = (1 + i tan(pi/10)) / 2, and
    keeps the real part.
    """
    b1, b2, b3 = complex(1 / 10, -1 / 30), complex(4 / 15, 2 / 15), complex(4 / 15, -1 / 5)

    def s4(h):
        mat = _kick(b1 * h)
        for b in (b2, b3, b2, b1):
            mat = _kick(b * h) @ _drift(h / 4) @ mat
        return mat

    g = 0.5 * (1.0 + 1j * math.tan(math.pi / 10))
    return (s4(g * tau) @ s4(g.conjugate() * tau)).real


def oscillator_plateau(tau, t_final, q0, p0):
    """Largest relative energy error over the first 5% of recorded states."""
    n = round(t_final / tau)
    window = max(1, int(0.05 * (n + 1)))
    mat = oscillator_level1_matrix(tau)
    x = np.array([q0, p0])
    h0 = 0.5 * (x @ x)
    worst = 0.0
    for _ in range(window - 1):
        x = mat @ x
        worst = max(worst, abs(0.5 * (x @ x) - h0) / h0)
    return worst


def _relative(a, b):
    return abs(a - b) / abs(b)


def oscillator_gate(rows, inputs):
    params = inputs["problem_params"]
    not_ok = [f"{r['method']}/{r['quantity']}/{r['tau']}" for r in rows
              if r["status"] != "ok"]
    checks = [("every row ok", not not_ok,
               "all ok" if not not_ok else "not ok: " + ", ".join(not_ok))]
    plateaus = {float(r["tau"]): float(r["value"]) for r in rows
                if r["quantity"] == "energy_plateau"}
    pinned = SEED0_PLATEAU if params == {"q0": 2.5, "p0": 0.0} else {}
    for tau in inputs["tau_list"]:
        value = plateaus.get(float(tau), math.nan)
        expected = oscillator_plateau(tau, inputs["t_final"], params["q0"], params["p0"])
        dev = _relative(value, expected)
        checks.append((f"energy_plateau tau={tau:g} vs matrix oracle",
                       bool(dev < PLATEAU_RTOL),
                       f"{value:.6e} vs {expected:.6e}, rel {dev:.1e} < {PLATEAU_RTOL:g}"))
        if tau in pinned:
            dev = _relative(value, pinned[tau])
            checks.append((f"energy_plateau tau={tau:g} vs reference program",
                           bool(dev < PLATEAU_RTOL),
                           f"{value:.6e} vs {pinned[tau]:.6e}, rel {dev:.1e} < {PLATEAU_RTOL:g}"))
    return checks


GATES = {"kepler-deep": kepler_gate, "cgl-wide": cgl_gate,
         "ho-s4sim-long": oscillator_gate}
