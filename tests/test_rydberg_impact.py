import math

import numpy as np
import pytest

from cavitycharge.electrostatics import single_charge_field
from cavitycharge.errors import ParameterError, SchemaError
from cavitycharge.rydberg_impact import (
    blockade_infidelity,
    charge_for_coherence_time,
    decoherence_time,
    dephasing,
    max_charge_for_infidelity,
    stark_shift,
)
from cavitycharge.scenario import RydbergSection, parse_scenario

X_Q = 200e-6
CFG = RydbergSection(alpha=53.4e3, rabi_hz=5e6)


def test_stark_shift_at_printed_field():
    shift = stark_shift(CFG, 1.9)
    assert shift == pytest.approx(0.5 * 53.4e3 * 1.9**2, rel=1e-12)
    assert shift == pytest.approx(100e3, rel=0.05)


def test_stark_shift_quadratic_law():
    assert stark_shift(CFG, 0.0) == 0.0
    assert stark_shift(CFG, 3.8) == pytest.approx(4.0 * stark_shift(CFG, 1.9), rel=1e-12)


def test_dephasing_and_decoherence_consistency():
    field = single_charge_field(54.0, X_Q)
    tau_pi = decoherence_time(CFG, field)
    assert tau_pi == pytest.approx(5e-6, rel=0.05)
    assert dephasing(CFG, field, 0.0) == 0.0
    # full decoherence at tau_pi is a pi phase by construction
    assert dephasing(CFG, field, tau_pi) == pytest.approx(math.pi, rel=1e-12)
    assert decoherence_time(CFG, 0.0) == math.inf


def test_dephasing_linear_in_time():
    field = 2.5
    taus = np.array([1e-6, 2e-6, 4e-6, 8e-6])
    phases = np.array([dephasing(CFG, field, t) for t in taus])
    assert np.allclose(phases / taus, phases[0] / taus[0], rtol=1e-12)
    with pytest.raises(ParameterError):
        dephasing(CFG, field, -1e-6)


def test_blockade_infidelity_values():
    field = single_charge_field(140.0, X_Q)
    infid = blockade_infidelity(CFG, stark_shift(CFG, field))
    assert infid == pytest.approx(0.01, rel=0.10)
    assert blockade_infidelity(CFG, 0.0) == 0.0
    assert blockade_infidelity(CFG, CFG.rabi_hz) == 0.5


def test_blockade_inversion_matches_reference():
    budget = max_charge_for_infidelity(CFG, 0.01, X_Q)
    assert budget.q1_e == pytest.approx(140.0, rel=0.05)
    assert budget.field_v_per_m == pytest.approx(5.1, rel=0.05)


def test_blockade_inversion_is_exact_inverse():
    for target in (1e-4, 0.01, 0.3):
        budget = max_charge_for_infidelity(CFG, target, X_Q)
        field = single_charge_field(budget.q1_e, X_Q)
        back = blockade_infidelity(CFG, stark_shift(CFG, field))
        assert back == pytest.approx(target, rel=1e-9)
    # q1 ~ target^(1/4): vanishing target drives the budget to zero
    tiny = max_charge_for_infidelity(CFG, 1e-12, X_Q)
    tinier = max_charge_for_infidelity(CFG, 1e-16, X_Q)
    assert tiny.q1_e < 1.0
    assert tinier.q1_e == pytest.approx(tiny.q1_e / 10.0, rel=1e-9)
    with pytest.raises(ParameterError):
        max_charge_for_infidelity(CFG, 0.6, X_Q)


def test_coherence_charge_inversion():
    budget = charge_for_coherence_time(CFG, 5e-6, X_Q)
    assert budget.q1_e == pytest.approx(54.0, rel=0.05)
    field = single_charge_field(budget.q1_e, X_Q)
    assert decoherence_time(CFG, field) == pytest.approx(5e-6, rel=1e-9)


def test_power_laws_in_charge():
    # shift ~ q1^2 and infidelity ~ q1^4 on log-log samples
    charges = np.array([10.0, 30.0, 90.0, 270.0])
    shifts = np.array(
        [stark_shift(CFG, single_charge_field(q, X_Q)) for q in charges]
    )
    infids = np.array(
        [
            blockade_infidelity(CFG, stark_shift(CFG, single_charge_field(q, X_Q)))
            for q in charges
        ]
    )
    slope_shift = np.diff(np.log(shifts)) / np.diff(np.log(charges))
    slope_infid = np.diff(np.log(infids)) / np.diff(np.log(charges))
    assert np.allclose(slope_shift, 2.0, atol=1e-9)
    assert np.allclose(slope_infid, 4.0, atol=1e-9)


def test_config_metadata_and_validation():
    # the [rydberg] keys are checked where they are read: > 0 at parse
    for key in ("alpha", "rabi_hz"):
        text = "[rydberg]\nalpha = 53400.0\nrabi_hz = 5000000.0\n".replace(
            f"{key} = ", f"{key} = -"
        )
        with pytest.raises(SchemaError, match=f"key '{key}' in \\[rydberg\\] must be > 0"):
            parse_scenario(text)
    # and a Rabi frequency of zero when the section is built, by its
    # constructor or by _replace, before the blockade formulas see it
    for call in (lambda: blockade_infidelity(RydbergSection(alpha=53.4e3, rabi_hz=0.0), 1e3),
                 lambda: max_charge_for_infidelity(CFG._replace(rabi_hz=0.0), 0.01, X_Q)):
        with pytest.raises(SchemaError, match=r"^key 'rabi_hz' in \[rydberg\] must be > 0, got 0.0$"):
            call()


# function -> (the name its message gives the checked argument, call with that argument)
_FIELD_OR_SHIFT = {
    "stark_shift": ("field", lambda x: stark_shift(CFG, x)),
    "dephasing": ("field", lambda x: dephasing(CFG, x, 1e-6)),
    "decoherence_time": ("field", lambda x: decoherence_time(CFG, x)),
    "blockade_infidelity": ("Stark shift", lambda x: blockade_infidelity(CFG, x)),
}


@pytest.mark.parametrize("function", sorted(_FIELD_OR_SHIFT))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_field_or_shift_is_refused(function, bad):
    # each returned nan (or inf) for it
    name, call = _FIELD_OR_SHIFT[function]
    with pytest.raises(ParameterError, match=rf"^{name} must be a finite real number, got {bad!r}$"):
        call(bad)
    with pytest.raises(ParameterError, match=rf"^{name} must be finite, got an array holding {bad!r}$"):
        call(np.array([1.0, bad, 2.0]))
    with pytest.raises(ParameterError, match=rf"^{name} must be a real number"):
        call(True)
