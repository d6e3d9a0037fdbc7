"""Experiment configuration: strict key=value parsing and validated assembly.

The format is INI-style: bracketed section headers, one ``key = value`` per
line, ``#`` comments. Unknown sections or keys, and keys that their section
never reads, are hard errors: a silently ignored typo in an order or mesh
key would invalidate recovery constants. Error messages name ``section.key``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .fields import GridSpec
from .forward import _KINDS, _box_normal
from .migr import MigrSpec, ball_indicator_field, gaussian_bump_field
from .recovery import _KIND_FORM, MAX_MESH_POINTS, midpoint_mesh

_SHAPE_KEYS = {
    "kind", "m", "shape", "center", "amplitude", "width", "radius", "cutoff",
    "mean_shape", "mean_center", "mean_amplitude", "mean_width", "mean_radius",
}

ALLOWED_KEYS = {
    "grid": {"dims", "spacing", "origin"},
    "source": _SHAPE_KEYS,
    "potential": _SHAPE_KEYS,
    "band": {"k_lo", "n_terms", "tau_max", "tau_step", "tau_list"},
    "directions": {"count", "distribution", "values"},
    "experiment": {"mode", "seed", "output"},
    "solver": {"tol", "max_born_order"},
    "nearfield": {"k_hi", "delta", "probes"},
    "ergodic": {"c0", "m", "tau", "bands", "n_rep", "seed"},
}


class _Section(dict):
    """One section's key=value pairs; ``get``, the build's only read, records each key in ``read``."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
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
            if name not in ALLOWED_KEYS:
                raise ConfigurationError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise ConfigurationError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = _Section()
            current = name
            continue
        if current is None:
            raise ConfigurationError(f"line {lineno}: key outside any section: {line!r}")
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigurationError(f"line {lineno}: expected key = value, got {line!r}")
        key = key.strip()
        value = value.strip()
        if key not in ALLOWED_KEYS[current]:
            raise ConfigurationError(f"line {lineno}: unknown key {current}.{key}")
        if key in sections[current]:
            raise ConfigurationError(f"line {lineno}: duplicate key {current}.{key}")
        sections[current][key] = value
    return sections


def _require(sections, name):
    if name not in sections:
        raise ConfigurationError(f"missing required section [{name}]")
    return sections[name]


def _get(sect, section_name, key, default=None):
    val = sect.get(key, default)
    if val is None:
        raise ConfigurationError(f"missing key {section_name}.{key}")
    return val


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


def _build_shape(grid, sect, section_name, prefix=""):
    shape = _get(sect, section_name, prefix + "shape", default="zero" if prefix else None)
    where = f"{section_name}.{prefix}shape"
    if shape == "zero":
        return None
    center = _as_vector(_get(sect, section_name, prefix + "center"), f"{section_name}.{prefix}center")
    amplitude = _as_float(_get(sect, section_name, prefix + "amplitude"), f"{section_name}.{prefix}amplitude")
    if shape == "gaussian-bump":
        width = _as_float(_get(sect, section_name, prefix + "width"), f"{section_name}.{prefix}width")
        cutoff = _as_float(sect.get("cutoff", "4.0"), f"{section_name}.cutoff")
        return gaussian_bump_field(grid, center, amplitude, width, cutoff_radii=cutoff)
    if shape == "ball-indicator":
        radius = _as_float(_get(sect, section_name, prefix + "radius"), f"{section_name}.{prefix}radius")
        return ball_indicator_field(grid, center, radius, amplitude)
    raise ConfigurationError(f"{where}: unknown shape {shape!r}")


def _build_ingredient(grid, sect, section_name):
    """A [source]/[potential] block: a rough-field spec or a deterministic field."""
    kind = _get(sect, section_name, "kind", default="migr")
    strength = _build_shape(grid, sect, section_name)
    if strength is None:
        raise ConfigurationError(f"{section_name}.shape: 'zero' is not a valid strength shape")
    if kind == "deterministic":
        return strength
    if kind != "migr":
        raise ConfigurationError(f"{section_name}.kind: expected migr or deterministic, got {kind!r}")
    m = _as_float(_get(sect, section_name, "m"), f"{section_name}.m")
    mean = _build_shape(grid, sect, section_name, prefix="mean_")
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
    tol: float = 1e-10
    max_born_order: int = 20


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
    n_rep: int
    seed: int


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


def _check_mesh(count, key):
    """Exit 2 naming ``key`` when the mesh it sets would hold more than MAX_MESH_POINTS."""
    if not count <= MAX_MESH_POINTS:
        raise ConfigurationError(
            f"{key}: the frequency mesh would hold {count:.4g} points, above the cap of {MAX_MESH_POINTS}")


def _build_band(sect, mode, grid: GridSpec) -> BandSpec:
    k_lo = _as_float(_get(sect, "band", "k_lo"), "band.k_lo")
    if k_lo <= 0:
        raise ConfigurationError("band.k_lo must be positive")
    n_terms = _as_int(_get(sect, "band", "n_terms"), "band.n_terms")
    if n_terms < 16:
        raise ConfigurationError(f"band.n_terms: band holds {n_terms} mesh points; at least 16 required")
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
            if not 0 <= tau < grid.nyquist:
                raise ConfigurationError(f"band.tau_list[{i}]: {tau} is not in [0, grid Nyquist {grid.nyquist})")
        tau_max = max(taus)
    else:
        tau_max = _as_float(_get(sect, "band", "tau_max"), "band.tau_max")
        step = _as_float(sect.get("tau_step", str(tau_unit)), "band.tau_step")
        if not 0 <= tau_max < grid.nyquist:
            raise ConfigurationError(f"band.tau_max: {tau_max} is not in [0, grid Nyquist {grid.nyquist})")
        # checked before the list is built, so a tiny step cannot make a huge one
        units = step / tau_unit
        if not (0.5 <= units < np.inf and abs(units - np.rint(units)) <= 1e-9):
            raise ConfigurationError(
                f"band.tau_step: {step} is not a positive multiple of {unit_name} = {tau_unit}")
    # the sweep mesh covers [k_lo, 2 k_lo + half tau_max); counted before it or a
    # tau list is built, so a huge n_terms or a tiny k_lo fails at once
    _check_mesh(n_terms * (1.0 + half * tau_max / k_lo), "band.n_terms")
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
    dims_raw = _get(gsect, "grid", "dims").split()
    if len(dims_raw) == 1:
        dims = (_as_int(dims_raw[0], "grid.dims"),) * 3
    elif len(dims_raw) == 3:
        dims = tuple(_as_int(d, "grid.dims") for d in dims_raw)
    else:
        raise ConfigurationError("grid.dims: expected one or three integers")
    spacing = _as_float(_get(gsect, "grid", "spacing"), "grid.spacing")
    origin_raw = _get(gsect, "grid", "origin", default="centered")
    if origin_raw == "centered":
        grid = GridSpec.centered(dims, spacing)
    else:
        grid = GridSpec(dims=dims, origin=_as_vector(origin_raw, "grid.origin"), spacing=spacing)

    esect = _require(sections, "experiment")
    mode = _get(esect, "experiment", "mode")
    if mode not in _KINDS:
        raise ConfigurationError(f"experiment.mode: expected one of {_KINDS}, got {mode!r}")
    seed = _as_int(_get(esect, "experiment", "seed"), "experiment.seed")
    if seed < 0:
        raise ConfigurationError("experiment.seed must be nonnegative")
    output = _get(esect, "experiment", "output", default=".")

    source = _build_ingredient(grid, sections["source"], "source") if "source" in sections else None
    potential = _build_ingredient(grid, sections["potential"], "potential") if "potential" in sections else None
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
        distribution = _get(dsect, "directions", "distribution", default="fibonacci-sphere")
        if distribution == "fibonacci-sphere":
            count = _as_int(_get(dsect, "directions", "count"), "directions.count")
            dirs = fibonacci_sphere(count)
        elif distribution == "explicit":
            vecs = _as_vector_list(_get(dsect, "directions", "values"), "directions.values")
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
        tol=_as_float(ssect.get("tol", "1e-10"), "solver.tol"),
        max_born_order=_as_int(ssect.get("max_born_order", "20"), "solver.max_born_order"),
    )
    if solver.tol <= 0 or solver.max_born_order < 1:
        raise ConfigurationError("solver.tol must be positive and solver.max_born_order >= 1")

    nearfield = None
    if "nearfield" in sections:
        nsect = sections["nearfield"]
        nearfield = NearfieldSpec(
            k_hi=_as_float(_get(nsect, "nearfield", "k_hi"), "nearfield.k_hi"),
            delta=_as_float(_get(nsect, "nearfield", "delta"), "nearfield.delta"),
            probes=tuple(_as_vector_list(_get(nsect, "nearfield", "probes"), "nearfield.probes")),
        )
        if nearfield.k_hi <= 1.0 or nearfield.delta <= 0:
            raise ConfigurationError("nearfield.k_hi must exceed 1 and nearfield.delta be positive")
        # the probe traces run on the mesh of [1, k_hi); counted before it is built
        _check_mesh((nearfield.k_hi - 1.0) / nearfield.delta, "nearfield.delta")

    ergodic = None
    if "ergodic" in sections:
        zsect = sections["ergodic"]
        tau = _as_float(zsect.get("tau", "0.0"), "ergodic.tau")
        bands = []
        for i, item in enumerate(_get(zsect, "ergodic", "bands").split(";")):
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
            _check_mesh((K + tau) / delta, f"ergodic.bands[{i}]")
            bands.append((K, delta))
        ergodic = ErgodicSpec(
            c0=_as_float(zsect.get("c0", "1.0"), "ergodic.c0"),
            m=_as_float(zsect.get("m", "0.0"), "ergodic.m"),
            tau=tau,
            bands=tuple(bands),
            n_rep=_as_int(zsect.get("n_rep", "50"), "ergodic.n_rep"),
            seed=_as_int(zsect.get("seed", "0"), "ergodic.seed"),
        )
        if ergodic.n_rep < 2:
            raise ConfigurationError(f"ergodic.n_rep: {ergodic.n_rep} repetitions; at least 2 required")

    unread = [f"{name}.{key}" for name, sect in sections.items() for key in sect if key not in sect.read]
    if unread:
        raise ConfigurationError(f"{unread[0]}: its section, as written, never reads this key")
    return ExperimentConfig(
        grid=grid, source=source, potential=potential, band=band, dirs=dirs,
        mode=mode, seed=seed, output=output, solver=solver,
        nearfield=nearfield, ergodic=ergodic, separating_normal=normal, text=text,
    )
