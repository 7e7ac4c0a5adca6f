"""Declarative scenario files binding all run parameters in one document.

Format: UTF-8 text, `[section]` headers, `key = value` lines, full-line
`#` comments. Units are fixed by the key-name suffix (`_hz`, `_m`, `_e`,
`_amu`, `_w`, `_f`, ...), so a document is unambiguous without prose.
Unknown sections and keys are rejected rather than ignored, and
serialization is canonical (fixed section/key order, shortest round-trip
float formatting) so parse(serialize(s)) == s and repeated serializations
are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

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

DEFAULT_SEED = 0
DEFAULT_MC_SAMPLES = 100_000


@dataclass(frozen=True)
class CavitySection:
    f00: float
    f00_sigma: float
    f01: float
    f01_sigma: float
    film_thickness_m: float
    film_thickness_sigma_m: float
    wavelength_m: float
    fsr_hz: Optional[float] = None
    fsr_sigma_hz: float = 0.0
    length_m: Optional[float] = None
    linewidth_hz: Optional[float] = None
    linewidth_sigma_hz: float = 0.0


@dataclass(frozen=True)
class TrapSection:
    mass_amu: float
    secular_hz: float
    rf_hz: float
    cooling_wavelength_m: float
    gate_wavelength_m: float
    cavity_wavelength_m: float
    gate_rabi_hz: Optional[float] = None
    gate_occupation: int = 50


@dataclass(frozen=True)
class ChargesSection:
    q1_e: float
    q2_e: float
    xq_m: float


@dataclass(frozen=True)
class RydbergSection:
    alpha: float          # polarizability, Hz/(V/m)^2
    rabi_hz: float


@dataclass(frozen=True)
class FilmSection:
    rho_ohm_m: float
    thickness_m: float
    radius_m: float
    capacitance_f: float


@dataclass(frozen=True)
class IlluminationSection:
    power_w: float
    wavelength_m: float
    quantum_efficiency: float
    waist_m: float
    photon_rate_per_s: Optional[float] = None


@dataclass(frozen=True)
class Scenario:
    name: str = "unnamed"
    seed: int = DEFAULT_SEED
    mc_samples: int = DEFAULT_MC_SAMPLES
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
# schema: section -> key -> (python type, required, constraint)
# constraints: pos, nonneg, unit (in [0,1]), mc (>= MIN_MC_SAMPLES), any

_SCHEMA: dict[str, dict[str, tuple[type, bool, str]]] = {
    "meta": {
        "name": (str, False, "any"),
        "seed": (int, False, "nonneg"),
        "mc_samples": (int, False, "mc"),
    },
    "cavity": {
        "f00": (float, True, "pos"),
        "f00_sigma": (float, True, "nonneg"),
        "f01": (float, True, "pos"),
        "f01_sigma": (float, True, "nonneg"),
        "film_thickness_m": (float, True, "pos"),
        "film_thickness_sigma_m": (float, True, "nonneg"),
        "wavelength_m": (float, True, "pos"),
        "fsr_hz": (float, False, "pos"),
        "fsr_sigma_hz": (float, False, "nonneg"),
        "length_m": (float, False, "pos"),
        "linewidth_hz": (float, False, "pos"),
        "linewidth_sigma_hz": (float, False, "nonneg"),
    },
    "trap": {
        "mass_amu": (float, True, "pos"),
        "secular_hz": (float, True, "pos"),
        "rf_hz": (float, True, "pos"),
        "cooling_wavelength_m": (float, True, "pos"),
        "gate_wavelength_m": (float, True, "pos"),
        "cavity_wavelength_m": (float, True, "pos"),
        "gate_rabi_hz": (float, False, "pos"),
        "gate_occupation": (int, False, "nonneg"),
    },
    "charges": {
        "q1_e": (float, True, "any"),
        "q2_e": (float, True, "any"),
        "xq_m": (float, True, "pos"),
    },
    "rydberg": {
        "alpha": (float, True, "pos"),
        "rabi_hz": (float, True, "pos"),
    },
    "film": {
        "rho_ohm_m": (float, True, "pos"),
        "thickness_m": (float, True, "pos"),
        "radius_m": (float, True, "pos"),
        "capacitance_f": (float, True, "pos"),
    },
    "illumination": {
        "power_w": (float, True, "nonneg"),
        "wavelength_m": (float, True, "pos"),
        "quantum_efficiency": (float, True, "unit"),
        "waist_m": (float, True, "pos"),
        "photon_rate_per_s": (float, False, "nonneg"),
    },
}

_SECTION_TYPES = {
    "cavity": CavitySection,
    "trap": TrapSection,
    "charges": ChargesSection,
    "rydberg": RydbergSection,
    "film": FilmSection,
    "illumination": IlluminationSection,
}


def _convert(section: str, key: str, token: str):
    typ, _required, constraint = _SCHEMA[section][key]
    try:
        if typ is str:
            value = token
        elif typ is int:
            value = int(token, 10)
        else:
            value = float(token)
    except ValueError:
        raise SchemaError(
            f"key '{key}' in [{section}]: cannot parse {token!r} as {typ.__name__}"
        ) from None
    if typ is not str:
        if not math.isfinite(value):
            raise SchemaError(f"key '{key}' in [{section}] must be finite, got {value}")
        if constraint == "pos" and not value > 0:
            raise SchemaError(f"key '{key}' in [{section}] must be > 0, got {value}")
        if constraint == "nonneg" and not value >= 0:
            raise SchemaError(f"key '{key}' in [{section}] must be >= 0, got {value}")
        if constraint == "unit" and not 0 <= value <= 1:
            raise SchemaError(
                f"key '{key}' in [{section}] must be in [0, 1], got {value}"
            )
        if constraint == "mc" and not value >= MIN_MC_SAMPLES:
            raise SchemaError(
                f"key '{key}' in [{section}] must be >= {MIN_MC_SAMPLES}, got {value}"
            )
    return value


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
            if section not in _SCHEMA:
                raise SchemaError(f"line {lineno}: unknown section [{section}]")
            if section in collected:
                raise SchemaError(f"line {lineno}: duplicate section [{section}]")
            collected[section] = {}
            continue
        if "=" not in line:
            raise SchemaError(f"line {lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise SchemaError(f"line {lineno}: key outside any [section]")
        key, _, token = line.partition("=")
        key = key.strip()
        token = token.strip()
        if key not in _SCHEMA[section]:
            raise SchemaError(f"line {lineno}: unknown key '{key}' in [{section}]")
        if key in collected[section]:
            raise SchemaError(f"line {lineno}: duplicate key '{key}' in [{section}]")
        collected[section][key] = _convert(section, key, token)

    for sec, keys in collected.items():
        for key, (_typ, required, _c) in _SCHEMA[sec].items():
            if required and key not in keys:
                raise SchemaError(f"missing required key '{key}' in [{sec}]")

    cavity = collected.get("cavity")
    if cavity is not None and "fsr_hz" not in cavity and "length_m" not in cavity:
        raise SchemaError("section [cavity] needs 'fsr_hz' or 'length_m'")

    meta = collected.get("meta", {})
    kwargs = {
        "name": meta.get("name", "unnamed"),
        "seed": meta.get("seed", DEFAULT_SEED),
        "mc_samples": meta.get("mc_samples", DEFAULT_MC_SAMPLES),
    }
    for sec, cls in _SECTION_TYPES.items():
        if sec in collected:
            kwargs[sec] = cls(**collected[sec])
    return Scenario(**kwargs)


def _format_value(value) -> str:
    if isinstance(value, bool):
        raise SchemaError("boolean scenario values are not supported")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_scenario(s: Scenario) -> str:
    """Canonical text form; parse(serialize(s)) == s, byte-stable."""
    lines = ["[meta]"]
    lines.append(f"name = {s.name}")
    lines.append(f"seed = {s.seed}")
    lines.append(f"mc_samples = {s.mc_samples}")
    for sec, cls in _SECTION_TYPES.items():
        value = getattr(s, sec)
        if value is None:
            continue
        lines.append("")
        lines.append(f"[{sec}]")
        for f in fields(cls):
            v = getattr(value, f.name)
            if v is None:
                continue
            lines.append(f"{f.name} = {_format_value(v)}")
    return "\n".join(lines) + "\n"


def load_scenario(path) -> Scenario:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))
