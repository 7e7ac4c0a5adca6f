"""Cavity loss metrology and stray-charge impact budgets.

The analysis chain runs ring-down trace -> linewidth -> finesse -> mirror
reflectivity -> thin-film extinction coefficient, with companion models
for what stray surface charge on the mirrors does to trapped ions and
Rydberg atoms, and for how laser-induced photocurrent charges a grounded
conductive film. Measured values carry one-sigma uncertainties and are
propagated linearly or by Gauss-Hermite cubature.

The namespace is lazy (PEP 562): importing the package loads no
submodule. ``cavitycharge.fit_ringdown`` or ``from cavitycharge import
charging`` imports the defining module on first use, so a command loads
only the modules it runs.
"""

import sys

__version__ = "0.1.0"

# the `budget` targets; here so the CLI parser can list them without
# importing `budgets` or `reports`, which re-export this tuple
BUDGET_TARGETS = (
    "cooling",
    "coupling",
    "lamb-dicke",
    "gate",
    "rydberg-coherence",
    "rydberg-gate",
    "charging",
)

# the `budget` options and their defaults, read by `budgets` and by the
# CLI parser; displacement_m None means the cavity wavelength / 8
BUDGET_DEFAULTS = {
    "intensity_floor": 0.5,      # cooling: carrier-intensity floor
    "modulation_limit": 0.2,     # lamb-dicke: cap on k * x_um
    "displacement_m": None,      # coupling: displacement goal
    "tau_pi_s": 5e-6,            # rydberg-coherence: decoherence-time goal
    "target_infidelity": 0.01,   # rydberg-gate: infidelity goal
}

# public name -> defining submodule
_EXPORTS = {
    name: module
    for module, names in {
        "quantities": (
            "CODATA", "Constants", "UncertainQuantity", "finesse", "fsr_from_length",
            "propagate_cubature", "propagate_linear",
        ),
        "ringdown": (
            "RingdownFit", "RingdownTrace", "fit_ringdown", "load_trace_csv",
            "pool_linewidths", "synthesize_trace",
        ),
        "cavity_optics": (
            "MirrorState", "excess_reflection_loss", "extinction_from_finesse",
            "r0_from_symmetric_finesse", "r1_from_asymmetric_finesse", "resonant_response",
        ),
        "film_optics": ("drude_index",),
        "electrostatics": (
            "ChargeScenario", "disc_point_ratios", "expansion_coefficients", "field_at",
        ),
        "ion_impact": (
            "GateParams", "bessel_j0", "carrier_intensity_factor",
            "equilibrium_position", "gate_detuning_verdict", "lamb_dicke_budget",
            "max_charge_for_cooling", "micromotion_amplitude",
            "shifted_frequency", "zero_point_spread",
        ),
        "rydberg_impact": (
            "blockade_infidelity", "decoherence_time", "dephasing",
            "max_charge_for_infidelity", "stark_shift",
        ),
        "charging": (
            "equilibrium_charge", "film_resistance", "gaussian_clipping_factor",
            "photocurrent", "transport_consistency",
        ),
        "scenario": (
            "Scenario", "load_scenario", "parse_scenario", "serialize_scenario",
        ),
    }.items()
    for name in names
}

_SUBMODULES = frozenset({
    "budgets", "cavity_optics", "charging", "cli", "electrostatics", "errors",
    "film_optics", "ion_impact", "quantities", "reports", "ringdown",
    "rydberg_impact", "scenario",
})

__all__ = ["BUDGET_DEFAULTS", "BUDGET_TARGETS", *_EXPORTS]


def _submodule(name):
    # __import__, unlike importlib.import_module, goes through the
    # interpreter's import statement path, which `-X importtime` logs
    __import__(f"{__name__}.{name}")  # the import binds it here
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    if name in _SUBMODULES:
        return _submodule(name)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
