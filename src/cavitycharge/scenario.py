"""Declarative scenario files binding all run parameters in one document.

Format: UTF-8 text, `[section]` headers, `key = value` lines, full-line
`#` comments. Units are fixed by the key-name suffix (`_hz`, `_m`, `_e`,
`_amu`, `_w`, `_f`, ...), so a document is unambiguous without prose.
Unknown sections and keys are rejected rather than ignored, and
serialization is canonical (fixed section/key order, shortest round-trip
float formatting) so parse(serialize(s)) == s and repeated serializations
are byte-identical.

Each key is declared once, as a field of its section class (`[meta]` keys are
`Scenario`'s own): its annotation is its type, it is required when it has no
default, optional when the default is None, and its range rule is metadata.
"""

import math
import numbers
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import NamedTuple, Optional, get_args

from .charging import FilmSample, IlluminationScenario
from .electrostatics import ChargeScenario
from .errors import SchemaError
from .ion_impact import GateParams, TrapConfig
from .quantities import MIN_MC_SAMPLES, UncertainQuantity
from .ringdown import fsr_from_length
from .rydberg_impact import RydbergConfig

__all__ = [
    "Scenario",
    "CavitySection",
    "TrapSection",
    "ChargesSection",
    "RydbergSection",
    "FilmSection",
    "IlluminationSection",
    "parse_scenario",
    "serialize_scenario",
    "load_scenario",
]


# range rules: (test, what a value must be)
_POS = (lambda v: v > 0, "> 0")
_NONNEG = (lambda v: v >= 0, ">= 0")
_UNIT = (lambda v: 0 <= v <= 1, "in [0, 1]")
_MC = (lambda v: v >= MIN_MC_SAMPLES, f">= {MIN_MC_SAMPLES}")
# a parsed value is one stripped line, so a name must be too
_LINE = (lambda v: v == v.strip() and len(v.splitlines()) < 2, "one line without outer blanks")


def _key(rule, default=MISSING):
    return field(default=default, metadata={"rule": rule})


@dataclass(frozen=True)
class CavitySection:
    f00: float = _key(_POS)
    f00_sigma: float = _key(_NONNEG)
    f01: float = _key(_POS)
    f01_sigma: float = _key(_NONNEG)
    film_thickness_m: float = _key(_POS)
    film_thickness_sigma_m: float = _key(_NONNEG)
    wavelength_m: float = _key(_POS)
    fsr_hz: Optional[float] = _key(_POS, None)
    fsr_sigma_hz: float = _key(_NONNEG, 0.0)
    length_m: Optional[float] = _key(_POS, None)
    linewidth_hz: Optional[float] = _key(_POS, None)
    linewidth_sigma_hz: float = _key(_NONNEG, 0.0)


@dataclass(frozen=True)
class TrapSection:
    mass_amu: float = _key(_POS)
    secular_hz: float = _key(_POS)
    rf_hz: float = _key(_POS)
    cooling_wavelength_m: float = _key(_POS)
    gate_wavelength_m: float = _key(_POS)
    cavity_wavelength_m: float = _key(_POS)
    gate_rabi_hz: Optional[float] = _key(_POS, None)
    gate_occupation: int = _key(_NONNEG, 50)


@dataclass(frozen=True)
class ChargesSection:
    q1_e: float
    q2_e: float
    xq_m: float = _key(_POS)


@dataclass(frozen=True)
class RydbergSection:
    alpha: float = _key(_POS)  # polarizability, Hz/(V/m)^2
    rabi_hz: float = _key(_POS)


@dataclass(frozen=True)
class FilmSection:
    rho_ohm_m: float = _key(_POS)
    thickness_m: float = _key(_POS)
    radius_m: float = _key(_POS)
    capacitance_f: float = _key(_POS)


@dataclass(frozen=True)
class IlluminationSection:
    power_w: float = _key(_NONNEG)
    wavelength_m: float = _key(_POS)
    quantum_efficiency: float = _key(_UNIT)
    waist_m: float = _key(_POS)
    photon_rate_per_s: Optional[float] = _key(_NONNEG, None)


@dataclass(frozen=True)
class Scenario:
    name: str = _key(_LINE, "unnamed")
    seed: int = _key(_NONNEG, 0)
    mc_samples: int = _key(_MC, 100_000)
    cavity: Optional[CavitySection] = None
    trap: Optional[TrapSection] = None
    charges: Optional[ChargesSection] = None
    rydberg: Optional[RydbergSection] = None
    film: Optional[FilmSection] = None
    illumination: Optional[IlluminationSection] = None

    # -- typed views used by the physics modules ---------------------------

    def _require(self, section: str):
        value = getattr(self, section)
        if value is None:
            raise SchemaError(
                f"scenario {self.name!r} has no [{section}] section, "
                "required for this computation"
            )
        return value

    def trap_config(self) -> TrapConfig:
        t = self._require("trap")
        return TrapConfig(
            mass_amu=t.mass_amu,
            secular_hz=t.secular_hz,
            rf_hz=t.rf_hz,
            cooling_wavelength_m=t.cooling_wavelength_m,
            gate_wavelength_m=t.gate_wavelength_m,
            cavity_wavelength_m=t.cavity_wavelength_m,
        )

    def gate_params(self) -> GateParams:
        t = self._require("trap")
        if t.gate_rabi_hz is None:
            raise SchemaError(
                f"scenario {self.name!r} is missing key 'gate_rabi_hz' in [trap]"
            )
        return GateParams(rabi_hz=t.gate_rabi_hz, occupation=t.gate_occupation)

    def charge_scenario(self) -> ChargeScenario:
        c = self._require("charges")
        return ChargeScenario(q1_e=c.q1_e, q2_e=c.q2_e, x_q_m=c.xq_m)

    def rydberg_config(self) -> RydbergConfig:
        r = self._require("rydberg")
        return RydbergConfig(polarizability_hz=r.alpha, rabi_hz=r.rabi_hz)

    def film_sample(self) -> FilmSample:
        f = self._require("film")
        return FilmSample(
            resistivity_ohm_m=f.rho_ohm_m,
            thickness_m=f.thickness_m,
            mirror_radius_m=f.radius_m,
            capacitance_f=f.capacitance_f,
        )

    def illumination_scenario(self) -> IlluminationScenario:
        i = self._require("illumination")
        c = self._require("charges")
        return IlluminationScenario(
            power_w=i.power_w,
            wavelength_m=i.wavelength_m,
            quantum_efficiency=i.quantum_efficiency,
            beam_waist_m=i.waist_m,
            mirror_distance_m=c.xq_m,
            photon_rate_override_per_s=i.photon_rate_per_s,
        )

    def f00_quantity(self) -> UncertainQuantity:
        c = self._require("cavity")
        return UncertainQuantity(c.f00, c.f00_sigma)

    def fsr_quantity(self) -> UncertainQuantity:
        c = self._require("cavity")
        if c.fsr_hz is not None:
            return UncertainQuantity(c.fsr_hz, c.fsr_sigma_hz, "Hz")
        return UncertainQuantity(fsr_from_length(c.length_m), 0.0, "Hz")

    def film_thickness_quantity(self) -> UncertainQuantity:
        c = self._require("cavity")
        return UncertainQuantity(c.film_thickness_m, c.film_thickness_sigma_m, "m")

    def linewidth_quantity(self) -> UncertainQuantity:
        c = self._require("cavity")
        if c.linewidth_hz is None:
            raise SchemaError(
                f"scenario {self.name!r} is missing key 'linewidth_hz' in [cavity]"
            )
        return UncertainQuantity(c.linewidth_hz, c.linewidth_sigma_hz, "Hz")


# --------------------------------------------------------------------------
# the key table, derived from the declarations above


class _Key(NamedTuple):
    type: type            # float, int or str
    default: object       # MISSING for a required key, None for an optional one
    rule: Optional[tuple]  # (test, text), see _POS


def _plain(annotation):
    """float for Optional[float]; any other annotation as it is."""
    return next((a for a in get_args(annotation) if a is not type(None)), annotation)


def _keys(declared) -> dict[str, _Key]:
    return {f.name: _Key(_plain(f.type), f.default, f.metadata.get("rule")) for f in declared}


# section name -> section class, and section name -> key name -> _Key
_SECTIONS = {f.name: _plain(f.type) for f in fields(Scenario) if is_dataclass(_plain(f.type))}
_KEYS = {
    "meta": _keys(f for f in fields(Scenario) if f.name not in _SECTIONS),
    **{section: _keys(fields(cls)) for section, cls in _SECTIONS.items()},
}
# what a value of each key type may be before serialize converts it
_ACCEPTED = {float: numbers.Real, int: numbers.Integral, str: str}


def _check(section: str, key: str, spec: _Key, value):
    if spec.type is float and not math.isfinite(value):
        raise SchemaError(f"key '{key}' in [{section}] must be finite, got {value}")
    if spec.rule is not None and not spec.rule[0](value):
        raise SchemaError(f"key '{key}' in [{section}] must be {spec.rule[1]}, got {value!r}")
    return value


def _check_document(collected: dict[str, dict[str, object]]) -> None:
    """Required keys and the cross-key rule, over section -> key -> value."""
    for section, values in collected.items():
        for key, spec in _KEYS[section].items():
            if spec.default is MISSING and key not in values:
                raise SchemaError(f"missing required key '{key}' in [{section}]")
    cavity = collected.get("cavity")
    if cavity is not None and "fsr_hz" not in cavity and "length_m" not in cavity:
        raise SchemaError("section [cavity] needs 'fsr_hz' or 'length_m'")


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document. Unknown keys are rejected."""
    section = None
    collected: dict[str, dict[str, object]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _KEYS:
                raise SchemaError(f"line {lineno}: unknown section [{section}]")
            if section in collected:
                raise SchemaError(f"line {lineno}: duplicate section [{section}]")
            keys = _KEYS[section]
            values = collected[section] = {}
            continue
        if "=" not in line:
            raise SchemaError(f"line {lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise SchemaError(f"line {lineno}: key outside any [section]")
        key, _, token = line.partition("=")
        key = key.strip()
        token = token.strip()
        spec = keys.get(key)
        if spec is None:
            raise SchemaError(f"line {lineno}: unknown key '{key}' in [{section}]")
        if key in values:
            raise SchemaError(f"line {lineno}: duplicate key '{key}' in [{section}]")
        try:
            value = spec.type(token)  # int() reads base 10 only
        except ValueError:
            raise SchemaError(
                f"key '{key}' in [{section}]: cannot parse {token!r} as {spec.type.__name__}"
            ) from None
        values[key] = _check(section, key, spec, value)
    _check_document(collected)
    meta = collected.pop("meta", {})
    return Scenario(**meta, **{sec: _SECTIONS[sec](**v) for sec, v in collected.items()})


def _typed(section: str, key: str, spec: _Key, value):
    """value as parse_scenario would read its text, if its type allows."""
    if isinstance(value, bool) or not isinstance(value, _ACCEPTED[spec.type]):
        raise SchemaError(f"key '{key}' in [{section}] must be of type {spec.type.__name__}, "
                          f"got {value!r}")
    try:
        return spec.type(value)
    except OverflowError:  # an int beyond the float range reads as inf, as its text would
        return math.inf if value > 0 else -math.inf


def serialize_scenario(s: Scenario) -> str:
    """Canonical text form; parse(serialize(s)) == s, byte-stable. Raises
    SchemaError for any value parse_scenario would reject."""
    collected = {}
    for section, keys in _KEYS.items():
        obj = s if section == "meta" else getattr(s, section)
        if obj is None:
            continue
        collected[section] = {
            key: _check(section, key, spec, _typed(section, key, spec, value))
            for key, spec in keys.items()
            if (value := getattr(obj, key)) is not None or spec.default is not None
        }
    _check_document(collected)
    return "\n\n".join(
        "\n".join([f"[{section}]", *(f"{k} = {v}" for k, v in values.items())])
        for section, values in collected.items()
    ) + "\n"


def load_scenario(path) -> Scenario:
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(
            f"{path}: not UTF-8 text: {exc.reason} at byte offset {exc.start}") from None
    return parse_scenario(text)
