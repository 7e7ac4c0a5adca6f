"""Declarative scenario files binding all run parameters in one document.

Format: UTF-8 text, `[section]` headers, `key = value` lines, full-line
`#` comments. Units are fixed by the key-name suffix (`_hz`, `_m`, `_e`,
`_amu`, `_w`, `_f`, ...), so a document is unambiguous without prose.
Unknown sections and keys are rejected rather than ignored, and
serialization is canonical (fixed section/key order, shortest round-trip
float formatting) so parse(serialize(s)) == s and repeated serializations
are byte-identical.

Each key is declared once, as a field of its section class (`[meta]`'s one
key, name, is `Scenario`'s own): its annotation is its type, float or str,
it is required when it has no default, optional when the default is None,
and its range rule, if any, is the annotation's metadata,
`Annotated[type, rule]`.

The rules run once, in _check_keys, when a section or a Scenario is built (by
parse_scenario, in Python or by _replace; see quantities.checked): SchemaError
names the key a value breaks, or a Scenario section that is not its section
record or None, so no record holds one. serialize_scenario only formats.
"""

import math
import os
from typing import Annotated, NamedTuple, Optional, get_args, get_origin

from .errors import SchemaError
from .quantities import _as_float, checked

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
# a parsed value is one stripped line, so a name must be too
_LINE = (lambda v: v == v.strip() and len(v.splitlines()) < 2, "one line without outer blanks")


def _check_keys(record):
    """record's values, checked: SchemaError names the first key, in declaration
    order, whose type, finiteness or range rule refuses its value, a [cavity]
    with neither fsr_hz nor length_m, or a Scenario section that is not its
    section record (which checked its keys when it was built) or None. A float
    key's value is stored as quantities._as_float converts it: an int, a
    Fraction or a NumPy number becomes a float."""
    section, keys = _SPECS[type(record)]
    values = []
    for (key, spec), value in zip(keys.items(), record):
        if value is not None or spec.default is not None:  # None leaves out an optional key
            if type(value) is not spec.type:
                value = _typed(section, key, spec, value)
            _check(section, key, spec, value)
        values.append(value)
    for (name, cls), value in zip(_SECTIONS.items(), record[len(values):]):
        if value is not None and not isinstance(value, cls):
            raise SchemaError(f"section [{name}] is a {type(value).__name__}, not {cls.__name__}")
    if type(record) is CavitySection and record.fsr_hz is None and record.length_m is None:
        raise SchemaError("section [cavity] needs 'fsr_hz' or 'length_m'")
    return (*values, *record[len(values):])


@checked
class CavitySection(NamedTuple):
    f00: Annotated[float, _POS]
    f00_sigma: Annotated[float, _NONNEG]
    wavelength_m: Annotated[float, _POS]
    fsr_hz: Annotated[Optional[float], _POS] = None
    fsr_sigma_hz: Annotated[float, _NONNEG] = 0.0
    length_m: Annotated[Optional[float], _POS] = None
    linewidth_hz: Annotated[Optional[float], _POS] = None
    linewidth_sigma_hz: Annotated[float, _NONNEG] = 0.0


@checked
class TrapSection(NamedTuple):
    mass_amu: Annotated[float, _POS]
    secular_hz: Annotated[float, _POS]
    rf_hz: Annotated[float, _POS]
    cooling_wavelength_m: Annotated[float, _POS]
    gate_wavelength_m: Annotated[float, _POS]
    cavity_wavelength_m: Annotated[float, _POS]
    gate_rabi_hz: Annotated[Optional[float], _POS] = None


@checked
class ChargesSection(NamedTuple):
    q1_e: float
    q2_e: float
    xq_m: Annotated[float, _POS]


@checked
class RydbergSection(NamedTuple):
    alpha: Annotated[float, _POS]  # polarizability, Hz/(V/m)^2
    rabi_hz: Annotated[float, _POS]


@checked
class FilmSection(NamedTuple):
    rho_ohm_m: Annotated[float, _POS]
    thickness_m: Annotated[float, _POS]
    capacitance_f: Annotated[float, _POS]
    thickness_sigma_m: Annotated[float, _NONNEG] = 0.0


@checked
class IlluminationSection(NamedTuple):
    power_w: Annotated[float, _NONNEG]
    wavelength_m: Annotated[float, _POS]
    quantum_efficiency: Annotated[float, _UNIT]
    waist_m: Annotated[float, _POS]
    photon_rate_per_s: Annotated[Optional[float], _NONNEG] = None


@checked
class Scenario(NamedTuple):
    name: Annotated[str, _LINE] = "unnamed"
    cavity: Optional[CavitySection] = None
    trap: Optional[TrapSection] = None
    charges: Optional[ChargesSection] = None
    rydberg: Optional[RydbergSection] = None
    film: Optional[FilmSection] = None
    illumination: Optional[IlluminationSection] = None

    def _require(self, section: str, key: Optional[str] = None):
        """The named section, or its key's value when a key is named; SchemaError
        naming the section, or the key, when the scenario has none."""
        value = getattr(self, section)
        if value is None:
            raise SchemaError(
                f"scenario {self.name!r} has no [{section}] section, "
                "required for this computation"
            )
        if key is not None and (value := getattr(value, key)) is None:
            raise SchemaError(f"scenario {self.name!r} is missing key '{key}' in [{section}]")
        return value

    # The physics functions read the sections themselves. Four accessors
    # remain: charge_scenario and gate_params build the records that the
    # charge and gate functions take (budgets and the benchmark's budget
    # check call them), importing their modules on first use so that this
    # one loads no physics module; trap_config and rydberg_config return
    # the section itself and remain only because that check calls them.

    def trap_config(self) -> TrapSection:
        return self._require("trap")

    def rydberg_config(self) -> RydbergSection:
        return self._require("rydberg")

    def charge_scenario(self):
        from .electrostatics import ChargeScenario

        c = self._require("charges")
        return ChargeScenario(c.q1_e, c.q2_e, c.xq_m)

    def gate_params(self):
        from .ion_impact import GateParams

        return GateParams(self._require("trap", "gate_rabi_hz"))


# --------------------------------------------------------------------------
# the key table, derived from the declarations above


class _Key(NamedTuple):
    type: type            # float or str
    default: object       # _REQUIRED for a required key, None for an optional one
    rule: Optional[tuple]  # (test, text), see _POS


_REQUIRED = object()


def _plain(annotation):
    """float for Optional[float]; any other annotation as it is."""
    return next((a for a in get_args(annotation) if a is not type(None)), annotation)


def _keys(cls, names) -> dict[str, _Key]:
    keys = {}
    for name in names:
        annotation, rule = cls.__annotations__[name], None
        if get_origin(annotation) is Annotated:
            annotation, rule = get_args(annotation)
        keys[name] = _Key(_plain(annotation), cls._field_defaults.get(name, _REQUIRED), rule)
    return keys


# section name -> section class, and section name -> key name -> _Key
_SECTIONS = {name: _plain(annotation) for name, annotation in Scenario.__annotations__.items()
             if hasattr(_plain(annotation), "_fields")}
_KEYS = {
    "meta": _keys(Scenario, [name for name in Scenario._fields if name not in _SECTIONS]),
    **{section: _keys(cls, cls._fields) for section, cls in _SECTIONS.items()},
}
# section class -> (section name, its keys), for _check_keys, the checked hook of each
_SPECS = {cls: (section, _KEYS[section]) for section, cls in {"meta": Scenario, **_SECTIONS}.items()}
for cls in _SPECS:
    cls._checked = _check_keys


def _typed(section: str, key: str, spec: _Key, value):
    """value as parse_scenario would read its text, if its type allows: a
    real number as quantities._as_float converts it, a str as a str."""
    typed = _as_float(value) if spec.type is float else (
        str(value) if isinstance(value, str) else None)
    if typed is None:
        raise SchemaError(f"key '{key}' in [{section}] must be of type {spec.type.__name__}, "
                          f"got {value!r}")
    return typed


def _check(section: str, key: str, spec: _Key, value) -> None:
    if spec.type is float and not math.isfinite(value):
        raise SchemaError(f"key '{key}' in [{section}] must be finite, got {value}")
    if spec.rule is not None and not spec.rule[0](value):
        raise SchemaError(f"key '{key}' in [{section}] must be {spec.rule[1]}, got {value!r}")


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario document; each section is checked as it is built.
    Unknown keys are rejected."""
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
            values[key] = spec.type(token)
        except ValueError:
            raise SchemaError(
                f"key '{key}' in [{section}]: cannot parse {token!r} as {spec.type.__name__}"
            ) from None
    for section, values in collected.items():
        for key, spec in _KEYS[section].items():
            if spec.default is _REQUIRED and key not in values:
                raise SchemaError(f"missing required key '{key}' in [{section}]")
    meta = collected.pop("meta", {})
    return Scenario(**meta, **{sec: _SECTIONS[sec](**v) for sec, v in collected.items()})


def serialize_scenario(s: Scenario) -> str:
    """Canonical text form; parse(serialize(s)) == s, byte-stable. The values
    were checked when s and its sections were built."""
    blocks = []
    for section, keys in _KEYS.items():
        obj = s if section == "meta" else getattr(s, section)
        if obj is not None:
            blocks.append("\n".join([f"[{section}]", *(
                f"{key} = {value}"
                for key in keys if (value := getattr(obj, key)) is not None)]))
    return "\n\n".join(blocks) + "\n"


#: Largest scenario file load_scenario reads, in bytes (1 MiB).
_MAX_FILE_BYTES = 1 << 20


def load_scenario(path) -> Scenario:
    """The scenario in the file at path, a str or an os.PathLike.

    The file holds at most _MAX_FILE_BYTES of UTF-8 text, with or without a
    leading byte-order mark; a larger file or other bytes are a SchemaError
    that names path. An empty path names no file (FileNotFoundError); an int
    is no path (TypeError), although the builtin open would take it as a file
    descriptor and close it.
    """
    with open(os.fspath(path), "rb") as fh:
        data = fh.read(_MAX_FILE_BYTES + 1)  # a device or pipe may never end
    if len(data) > _MAX_FILE_BYTES:
        raise SchemaError(f"{path}: larger than the {_MAX_FILE_BYTES}-byte scenario limit")
    try:
        # a leading byte-order mark, as some editors save UTF-8, is not text;
        # it is dropped after decoding so error offsets count from the file start
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise SchemaError(
            f"{path}: not UTF-8 text: {exc.reason} at byte offset {exc.start}") from None
    return parse_scenario(text)
