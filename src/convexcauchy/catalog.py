"""Manufactured problems: each case is a config plus its exact solution.

A case holds `u_star`, a closed-form solution written as a coordinate
expression (see harness.evaluate_expression), and the config sections of a
problem it solves: the operator's source term q is built so the discrete
residual vanishes at u* (to machine precision for polynomial cases, to
stencil accuracy otherwise), and the geometry resolves the masked subdomain
at desk scale. `{"case": id}` builds it; a key the config gives overrides
the case's. The Cauchy data is read off u* on the two trace layers.
"""

CASES = {
    # 1-D cubic reaction: u* = x^2 + 1 solves u_xx - u^3 + q = 0
    "ELL1D-CUBIC": {
        "u_star": "x0 * x0 + 1.0",
        "family": "elliptic",
        "grid": {"bounds": [[0.0, 1.0]], "resolution": [65]},
        "level": {"a": 0.15, "c": 0.45, "nu": 1.0, "x_width": 1.0},
        "operator": {"id": "cubic", "q": "(x0 * x0 + 1.0) ** 3 - 2.0"},
        "weight": {"lambda": 1.5},
        "functional": {"beta": 1e-3},
    },
    # 2-D Laplace with a harmonic u*; the frequency 6 keeps the stencil
    # truncation visible at desk resolutions, so refinement studies have signal
    "ELL2D-HARMONIC": {
        "u_star": "exp(6.0 * x0) * cos(6.0 * x1)",
        "family": "elliptic",
        "grid": {"bounds": [[0.0, 1.0], [-1.0, 1.0]], "resolution": [33, 33]},
        "level": {"a": 0.25, "c": 0.48, "nu": 1.0, "x_width": 1.0, "epsilon": 0.1},
        "operator": {"id": "linear"},
        "weight": {"lambda": 2.0},
        "functional": {"beta": 5e-3},
    },
    # 2-D cubic reaction used by the convexity certificate sweep: u* is
    # harmonic, so q = u*^3
    "ELL2D-CUBIC": {
        "u_star": "x0 * x0 - x1 * x1 + 3.0",
        "family": "elliptic",
        "grid": {"bounds": [[0.0, 1.0], [-1.0, 1.0]], "resolution": [33, 33]},
        "level": {"a": 0.25, "c": 0.45, "nu": 1.0, "x_width": 1.0, "epsilon": 0.36},
        "operator": {"id": "cubic", "q": "(x0 * x0 - x1 * x1 + 3.0) ** 3"},
        "weight": {"lambda": 2.0},
        "functional": {"beta": 1e-3},
    },
    # 1+1-D cubic reaction-diffusion with lateral data: u_t - u_xx + u^3 - q
    "PAR1D-CUBIC": {
        "u_star": "x0 * x0 + t * t + 1.0",
        "family": "parabolic",
        "grid": {"bounds": [[0.0, 1.0], [-1.0, 1.0]], "resolution": [33, 33]},
        "level": {"a": 0.25, "c": 0.45, "nu": 1.0, "x_width": 1.0, "t_span": 1.0},
        "operator": {"id": "cubic", "q": "2.0 * t - 2.0 + (x0 * x0 + t * t + 1.0) ** 3"},
        "weight": {"lambda": 1.5},
        "functional": {"beta": 1e-3},
    },
    # 1+1-D wave equation: u* = x^2 + t^2 solves u_tt - u_xx = 0
    "HYP1D-QUAD": {
        "u_star": "x0 * x0 + t * t",
        "family": "hyperbolic",
        "grid": {"bounds": [[0.0, 1.0], [-1.0, 1.0]], "resolution": [33, 33]},
        "level": {"c": 0.02, "eta": 0.25, "x0": [0.5]},
        "operator": {"id": "linear"},
        "weight": {"lambda": 1.5},
        "functional": {"beta": 1e-3},
    },
}
