"""Experiment configuration: strict key=value parsing and validated assembly.

The format is INI-style: bracketed section headers, one ``key = value`` per
line, ``#`` comments. Unknown sections, and keys that the build never reads
(unknown, misspelt, or unused by their section as written), are hard errors:
a silently ignored typo in an order or mesh key would invalidate recovery
constants. Error messages name ``section.key``; an unread key's also give its
line, and a missing key's list the unread keys of its section. The
defaults of omitted keys (solver, bump cutoff, ergodic repetitions and
seed) are the library's own, and each bound the library enforces is
checked by the library's own function, its error prefixed with the key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .fields import GridSpec
from .forward import _KIND_FORM, _KINDS, ScatteringConfig, _box_normal, _check_born_order, _check_tol
from .migr import MigrSpec, ball_indicator_field, gaussian_bump_field
from .recovery import (_check_band_terms, _check_mesh_size, _check_repetitions, _check_sample_radius,
                       midpoint_mesh)

_SECTIONS = ("grid", "source", "potential", "band", "directions", "experiment", "solver",
             "nearfield", "ergodic")


class _Section(dict):
    """One section's key=value pairs; ``unread`` maps each key not yet read to its line.

    ``get`` is the build's only read of a key.
    """

    def __init__(self, name):
        super().__init__()
        self.name = name
        self.unread = {}

    def get(self, key, default=None):
        self.unread.pop(key, None)
        return super().get(key, default)


def parse_sections(text: str) -> dict:
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigurationError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise ConfigurationError(f"line {lineno}: duplicate section [{name}]")
            current = sections[name] = _Section(name)
            continue
        if current is None:
            raise ConfigurationError(f"line {lineno}: key outside any section: {line!r}")
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigurationError(f"line {lineno}: expected key = value, got {line!r}")
        key = key.strip()
        if key in current:
            raise ConfigurationError(f"line {lineno}: duplicate key {current.name}.{key}")
        current[key] = value.strip()
        current.unread[key] = lineno
    return sections


def _require(sections, name):
    if name not in sections:
        raise ConfigurationError(f"missing required section [{name}]")
    return sections[name]


def _get(sect, key, default=None):
    val = sect.get(key, default)
    if val is None:
        # a misspelt required key is among the unread ones
        unread = ", ".join(f"{sect.name}.{k} (line {line})" for k, line in sect.unread.items())
        raise ConfigurationError(f"{sect.name}.{key}: missing key"
                                 + (f"; unread keys of [{sect.name}]: {unread}" if unread else ""))
    return val


def _keyed(where, build, *args):
    """``build(*args)``, with any ConfigurationError it raises prefixed by ``where``."""
    try:
        return build(*args)
    except ConfigurationError as e:
        raise ConfigurationError(f"{where}: {e}") from None


def _as_float(val, where):
    try:
        num = float(val)
    except ValueError:
        raise ConfigurationError(f"{where}: cannot parse {val!r} as a number") from None
    if not np.isfinite(num):
        raise ConfigurationError(f"{where}: {val!r} is not a finite number")
    return num


def _as_int(val, where):
    try:
        return int(val)
    except ValueError:
        raise ConfigurationError(f"{where}: cannot parse {val!r} as an integer") from None


def _as_vector(val, where):
    parts = val.split()
    if len(parts) != 3:
        raise ConfigurationError(f"{where}: expected three numbers, got {val!r}")
    return tuple(_as_float(p, where) for p in parts)


def _as_vector_list(val, where):
    groups = [g.strip() for g in val.split(";") if g.strip()]
    if not groups:
        raise ConfigurationError(f"{where}: expected 'x y z; x y z; ...'")
    return [_as_vector(g, where) for g in groups]


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic quasi-uniform direction set on the unit sphere."""
    if n < 1:
        raise ConfigurationError("direction count must be positive")
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    dirs = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return dirs


def _build_shape(grid, sect, prefix=""):
    name = sect.name
    shape = _get(sect, prefix + "shape", default="zero" if prefix else None)
    where = f"{name}.{prefix}shape"
    if shape == "zero":
        return None
    center = _as_vector(_get(sect, prefix + "center"), f"{name}.{prefix}center")
    amplitude = _as_float(_get(sect, prefix + "amplitude"), f"{name}.{prefix}amplitude")
    if shape == "gaussian-bump":
        width = _as_float(_get(sect, prefix + "width"), f"{name}.{prefix}width")
        # an absent cutoff takes the bump's own default
        cutoff = sect.get("cutoff")
        extra = {} if cutoff is None else {"cutoff_radii": _as_float(cutoff, f"{name}.cutoff")}
        return gaussian_bump_field(grid, center, amplitude, width, **extra)
    if shape == "ball-indicator":
        radius = _as_float(_get(sect, prefix + "radius"), f"{name}.{prefix}radius")
        return ball_indicator_field(grid, center, radius, amplitude)
    raise ConfigurationError(f"{where}: unknown shape {shape!r}")


def _build_ingredient(grid, sect):
    """A [source]/[potential] block: a rough-field spec or a deterministic field."""
    kind = _get(sect, "kind", default="migr")
    strength = _build_shape(grid, sect)
    if strength is None:
        raise ConfigurationError(f"{sect.name}.shape: 'zero' is not a valid strength shape")
    if kind == "deterministic":
        return strength
    if kind != "migr":
        raise ConfigurationError(f"{sect.name}.kind: expected migr or deterministic, got {kind!r}")
    m = _as_float(_get(sect, "m"), f"{sect.name}.m")
    mean = _build_shape(grid, sect, prefix="mean_")
    return MigrSpec(order=m, strength=strength, mean=mean)


@dataclass(frozen=True)
class BandSpec:
    k_lo: float
    delta: float
    n_terms: int
    tau_list: tuple
    freqs: np.ndarray


@dataclass(frozen=True)
class SolverSpec:
    tol: float
    max_born_order: int


@dataclass(frozen=True)
class NearfieldSpec:
    k_hi: float
    delta: float
    probes: tuple


@dataclass(frozen=True)
class ErgodicSpec:
    c0: float
    m: float
    tau: float
    bands: tuple
    # the n_rep and seed0 keywords of ergodic_diagnostic the config gives; the rest take its defaults
    repetitions: dict


@dataclass(frozen=True)
class ExperimentConfig:
    grid: GridSpec
    source: object
    potential: object
    band: Optional[BandSpec]
    dirs: Optional[np.ndarray]
    mode: str
    seed: int
    output: str
    solver: SolverSpec
    nearfield: Optional[NearfieldSpec] = None
    ergodic: Optional[ErgodicSpec] = None
    separating_normal: Optional[tuple] = None
    text: str = ""

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def _build_band(sect, mode, grid: GridSpec) -> BandSpec:
    k_lo = _as_float(_get(sect, "k_lo"), "band.k_lo")
    if k_lo <= 0:
        raise ConfigurationError("band.k_lo must be positive")
    n_terms = _as_int(_get(sect, "n_terms"), "band.n_terms")
    _check_band_terms(n_terms, "band.n_terms")
    delta = k_lo / n_terms
    # a tau moves the data frequency by half * tau, which must be a mesh multiple
    half = _KIND_FORM[mode][1]
    tau_unit = delta / half
    unit_name = "delta" if half == 1.0 else f"{1.0 / half:g}*delta"
    if "tau_list" in sect:
        taus = [_as_float(t, "band.tau_list") for t in sect.get("tau_list").split()]
        if not taus:
            raise ConfigurationError("band.tau_list: expected at least one tau")
        for i, tau in enumerate(taus):
            _check_sample_radius(tau, grid, f"band.tau_list[{i}]")
        tau_max = max(taus)
    else:
        tau_max = _as_float(_get(sect, "tau_max"), "band.tau_max")
        step = _as_float(sect.get("tau_step", str(tau_unit)), "band.tau_step")
        _check_sample_radius(tau_max, grid, "band.tau_max")
        # checked before the list is built, so a tiny step cannot make a huge one
        units = step / tau_unit
        if not (0.5 <= units < np.inf and abs(units - np.rint(units)) <= 1e-9):
            raise ConfigurationError(
                f"band.tau_step: {step} is not a positive multiple of {unit_name} = {tau_unit}")
    # the sweep mesh covers [k_lo, 2 k_lo + half tau_max); counted before it or a
    # tau list is built, so a huge n_terms or a tiny k_lo fails at once
    _check_mesh_size(n_terms * (1.0 + half * tau_max / k_lo), "band.n_terms")
    if "tau_list" not in sect:
        taus = [i * step for i in range(int(np.floor(tau_max / step + 1e-9)) + 1)]
    for i, tau in enumerate(taus):
        steps = tau / tau_unit
        if abs(steps - round(steps)) > 1e-9:
            raise ConfigurationError(
                f"band.tau_list[{i}]: {tau} is not a multiple of {unit_name} = {tau_unit}"
            )
    freqs = midpoint_mesh(k_lo, 2.0 * k_lo + half * max(taus), delta)
    return BandSpec(k_lo=k_lo, delta=float(delta), n_terms=n_terms,
                    tau_list=tuple(sorted(set(taus))), freqs=freqs)


def load_config(path) -> ExperimentConfig:
    """Parse and fully validate an experiment file."""
    with open(path) as fh:
        text = fh.read()
    return config_from_text(text)


def config_from_text(text: str) -> ExperimentConfig:
    sections = parse_sections(text)

    gsect = _require(sections, "grid")
    dims_raw = _get(gsect, "dims").split()
    if len(dims_raw) == 1:
        dims = (_as_int(dims_raw[0], "grid.dims"),) * 3
    elif len(dims_raw) == 3:
        dims = tuple(_as_int(d, "grid.dims") for d in dims_raw)
    else:
        raise ConfigurationError("grid.dims: expected one or three integers")
    # a grid of unit spacing checks the dims alone, so a failure of the grid below names the spacing
    _keyed("grid.dims", GridSpec.centered, dims, 1.0)
    spacing = _as_float(_get(gsect, "spacing"), "grid.spacing")
    origin_raw = _get(gsect, "origin", default="centered")
    if origin_raw == "centered":
        grid = _keyed("grid.spacing", GridSpec.centered, dims, spacing)
    else:
        grid = _keyed("grid.spacing", GridSpec, dims, _as_vector(origin_raw, "grid.origin"), spacing)

    esect = _require(sections, "experiment")
    mode = _get(esect, "mode")
    if mode not in _KINDS:
        raise ConfigurationError(f"experiment.mode: expected one of {_KINDS}, got {mode!r}")
    seed = _as_int(_get(esect, "seed"), "experiment.seed")
    if seed < 0:
        raise ConfigurationError("experiment.seed must be nonnegative")
    output = _get(esect, "output", default=".")

    source = _build_ingredient(grid, sections["source"]) if "source" in sections else None
    potential = _build_ingredient(grid, sections["potential"]) if "potential" in sections else None
    if source is None and potential is None:
        raise ConfigurationError("at least one of [source] or [potential] must be present")

    normal = None
    if isinstance(source, MigrSpec) and isinstance(potential, MigrSpec):
        # MigrSpec keeps each mean inside its strength's box, so the strength boxes
        # bound the supports
        try:
            normal = tuple(_box_normal(source.strength.support_box, potential.strength.support_box))
        except ConfigurationError as e:
            raise ConfigurationError(
                f"source/potential supports: {e} (their convex support boxes must keep "
                "a positive distance so a separating normal exists)"
            ) from None

    band = _build_band(sections["band"], mode, grid) if "band" in sections else None

    dirs = None
    if "directions" in sections:
        dsect = sections["directions"]
        distribution = _get(dsect, "distribution", default="fibonacci-sphere")
        if distribution == "fibonacci-sphere":
            count = _as_int(_get(dsect, "count"), "directions.count")
            dirs = _keyed("directions.count", fibonacci_sphere, count)
        elif distribution == "explicit":
            vecs = _as_vector_list(_get(dsect, "values"), "directions.values")
            arr = np.asarray(vecs, dtype=np.float64)
            norms = np.linalg.norm(arr, axis=1)
            if np.any(norms == 0):
                raise ConfigurationError("directions.values: zero vector")
            dirs = arr / norms[:, None]
        else:
            raise ConfigurationError(
                f"directions.distribution: expected fibonacci-sphere or explicit, got {distribution!r}"
            )

    ssect = sections.get("solver", {})
    solver = SolverSpec(
        tol=_as_float(ssect.get("tol", ScatteringConfig.tol), "solver.tol"),
        max_born_order=_as_int(ssect.get("max_born_order", ScatteringConfig.max_born_order),
                               "solver.max_born_order"),
    )
    _keyed("solver.tol", _check_tol, solver.tol)
    _keyed("solver.max_born_order", _check_born_order, solver.max_born_order)

    nearfield = None
    if "nearfield" in sections:
        nsect = sections["nearfield"]
        nearfield = NearfieldSpec(
            k_hi=_as_float(_get(nsect, "k_hi"), "nearfield.k_hi"),
            delta=_as_float(_get(nsect, "delta"), "nearfield.delta"),
            probes=tuple(_as_vector_list(_get(nsect, "probes"), "nearfield.probes")),
        )
        if nearfield.k_hi <= 1.0 or nearfield.delta <= 0:
            raise ConfigurationError("nearfield.k_hi must exceed 1 and nearfield.delta be positive")
        # the probe traces run on the mesh of [1, k_hi); counted before it is built
        _check_mesh_size((nearfield.k_hi - 1.0) / nearfield.delta, "nearfield.delta")

    ergodic = None
    if "ergodic" in sections:
        zsect = sections["ergodic"]
        tau = _as_float(zsect.get("tau", "0.0"), "ergodic.tau")
        bands = []
        for i, item in enumerate(_get(zsect, "bands").split(";")):
            item = item.strip()
            if not item:
                continue
            parts = item.split(":")
            if len(parts) != 2:
                raise ConfigurationError(f"ergodic.bands[{i}]: expected K:delta, got {item!r}")
            K, delta = (_as_float(p, f"ergodic.bands[{i}]") for p in parts)
            if not delta > 0:
                raise ConfigurationError(f"ergodic.bands[{i}]: spacing must be positive, got {item!r}")
            # a band's mesh covers [K, 2 K + tau)
            _check_mesh_size((K + tau) / delta, f"ergodic.bands[{i}]")
            bands.append((K, delta))
        # an absent n_rep or seed takes the diagnostic's own default
        repetitions = {}
        for key, keyword in (("n_rep", "n_rep"), ("seed", "seed0")):
            value = zsect.get(key)
            if value is not None:
                repetitions[keyword] = _as_int(value, f"ergodic.{key}")
        if "n_rep" in repetitions:
            _keyed("ergodic.n_rep", _check_repetitions, repetitions["n_rep"])
        ergodic = ErgodicSpec(
            c0=_as_float(zsect.get("c0", "1.0"), "ergodic.c0"),
            m=_as_float(zsect.get("m", "0.0"), "ergodic.m"),
            tau=tau,
            bands=tuple(bands),
            repetitions=repetitions,
        )

    unread = [(f"{sect.name}.{key}", line) for sect in sections.values() for key, line in sect.unread.items()]
    if unread:
        name, line = unread[0]
        raise ConfigurationError(f"{name}: its section, as written, never reads this key (line {line})")
    return ExperimentConfig(
        grid=grid, source=source, potential=potential, band=band, dirs=dirs,
        mode=mode, seed=seed, output=output, solver=solver,
        nearfield=nearfield, ergodic=ergodic, separating_normal=normal, text=text,
    )
