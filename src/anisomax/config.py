"""Experiment configuration: a YAML file resolved against defaults.

One structured-text file per run.  Every parameter referenced by an
experiment lives here, so the run manifest can record the fully resolved
configuration.  Dotted overrides ("surface.kind=quartic-flat") patch
individual keys after the file is read.

Files and override values are parsed by PyYAML's libyaml loader,
yaml.CSafeLoader, when PyYAML was built with libyaml, and by the
pure-Python yaml.SafeLoader otherwise.  Both resolve and construct with the
same safe rules, so a config reads the same under either; the C parser is
only faster.
"""

import copy
from dataclasses import asdict, dataclass

import yaml

from .atoms import AtomicSum, make_atom, random_atomic_sum
from .dilation import DilationStructure, _is_integer, _number, validate_dilation
from .errors import AnisoError, ConfigInvalidError
from .grid import GridCube
from .surface import check_node_count, make_surface

DEFAULTS = {
    "matrix": [[2.0, 0.0], [0.0, 4.0]],
    "surface": {"kind": "circle-arc", "dim": 2, "coeffs": None},
    "eps": 0.25,
    "zeta": 0.03125,
    "alpha": 1.0,
    "atoms": {
        "count": 12,
        "tau_range": [-3, 0],
        "lam_range": [0.1, 2.0],
        "profile": "haar",
        "index_span": 6,
        "list": None,
    },
    "lattice": {"box": [[-4.0, 4.0], [-4.0, 4.0]], "shape": [512, 512]},
    "k_range": [-4, 4],
    "s_range": [4, 16],
    "n_gl": 200,
    "out_dir": "runs",
    "seed": 7,
}


# the keys an atoms.list row may set
_ROW_KEYS = {"tau", "index", "lam", "profile", "seed"}


def _coeff_key(key) -> tuple:
    """Monomial key: a list in YAML, or a comma-joined string like "4,0"."""
    parts = key if isinstance(key, (list, tuple)) else str(key).split(",")
    if not all(_is_integer(v) or str(v).strip().removeprefix("-").isdecimal() for v in parts):
        raise ConfigInvalidError(f"surface.coeffs key {key!r} must hold integer exponents")
    return tuple(int(v) for v in parts)


@dataclass
class ExperimentConfig:
    """Fully resolved run parameters; build through load_config."""

    matrix: list
    surface: dict
    eps: float
    zeta: float
    alpha: float
    atoms: dict
    lattice: dict
    k_range: list
    s_range: list
    n_gl: int
    out_dir: str
    seed: int

    def dilation(self) -> DilationStructure:
        return validate_dilation(self.matrix)

    def surface_obj(self):
        kind = self.surface["kind"]
        dim = self.surface["dim"]
        coeffs = self.surface.get("coeffs")
        if coeffs is not None:
            coeffs = {_coeff_key(key): c for key, c in coeffs.items()}
        return make_surface(kind, dim=dim, coeffs=coeffs)

    def atomic_sum(self) -> AtomicSum:
        """The input function: an explicit atom list or a seeded draw."""
        D = self.dilation()
        spec = self.atoms
        if spec.get("list") is not None:
            terms = []
            for row in spec["list"]:
                cube = GridCube(0, row["tau"], tuple(row["index"]), D)
                atom = make_atom(cube, row.get("profile", "haar"),
                                 seed=int(row.get("seed", 0)))
                terms.append((atom, float(row["lam"])))
            return AtomicSum(terms=terms, dilation=D)
        lo, hi = spec["tau_range"]
        return random_atomic_sum(
            D, int(spec["count"]), range(lo, hi + 1),
            tuple(float(v) for v in spec["lam_range"]), int(self.seed),
            profile=spec["profile"], index_span=spec["index_span"])

    def entries(self):
        """The mass instance (cube, lambda) seen by the decompositions."""
        return [(atom.support, lam) for atom, lam in self.atomic_sum().terms]

    def s_values(self) -> list:
        lo, hi = (int(v) for v in self.s_range)
        return list(range(lo, hi + 1))

    def as_dict(self) -> dict:
        return asdict(self)


def _parse(stream):
    """One YAML document from a string or file: the one place a loader is
    chosen, libyaml's when PyYAML has it."""
    return yaml.load(stream, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def _merge(base: dict, patch: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in patch.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigInvalidError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigInvalidError(f"{where} must be a mapping, got {value!r}")
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path=None, overrides=(), seed=None, out_dir=None) -> ExperimentConfig:
    """Read a YAML config, apply dotted overrides, validate everything."""
    data = {}
    if path is not None:
        try:
            with open(path) as fh:
                data = _parse(fh) or {}
        except OSError as exc:
            raise ConfigInvalidError(f"cannot read config: {exc}")
        except yaml.YAMLError as exc:
            raise ConfigInvalidError(f"config is not valid YAML: {exc}")
    if not isinstance(data, dict):
        raise ConfigInvalidError("config root must be a mapping")
    merged = _merge(DEFAULTS, data)
    for item in overrides:
        merged = _apply_override(merged, item)
    if seed is not None:
        merged["seed"] = int(seed)
    if out_dir is not None:
        merged["out_dir"] = str(out_dir)
    return _validate(merged)


def _apply_override(merged: dict, item: str) -> dict:
    if "=" not in item:
        raise ConfigInvalidError(f"override must look like key=value: {item!r}")
    key, _, raw = item.partition("=")
    try:
        value = _parse(raw)
    except yaml.YAMLError:
        value = raw
    patch = {}
    node = patch
    parts = key.strip().split(".")
    for part in parts[:-1]:
        node[part] = {}
        node = node[part]
    node[parts[-1]] = value
    return _merge(merged, patch)


def _int_pair(value) -> bool:
    """A list of two integers, as the range fields are written."""
    return isinstance(value, list) and len(value) == 2 and all(map(_is_integer, value))


def _positive(value) -> bool:
    return _number(value) and value > 0


def _validate(raw: dict) -> ExperimentConfig:
    cfg = ExperimentConfig(**raw)
    # int() would truncate 2.5 and leave the manifest a value the run never used
    for name, value in (("surface.dim", cfg.surface["dim"]), ("n_gl", cfg.n_gl)):
        if not _is_integer(value):
            raise ConfigInvalidError(f"{name} must be an integer, got {value!r}")
    matrix = cfg.matrix
    if not (isinstance(matrix, list) and all(
            isinstance(row, list) and len(row) == len(matrix) and all(map(_number, row))
            for row in matrix)):
        raise ConfigInvalidError(
            f"matrix must be square rows of finite numbers, got {matrix!r}")
    coeffs = cfg.surface["coeffs"]
    if not (coeffs is None or isinstance(coeffs, dict)):
        raise ConfigInvalidError(f"surface.coeffs must be a mapping, got {coeffs!r}")
    try:
        dim = cfg.dilation().dim
        cfg.surface_obj()
        # the manifest records n_gl, so it must be the node count the run uses
        check_node_count(cfg.n_gl)
    except AnisoError as exc:
        raise ConfigInvalidError(f"config rejected by its module: {exc}")
    for name, value in (("eps", cfg.eps), ("zeta", cfg.zeta), ("alpha", cfg.alpha)):
        if not _positive(value):
            raise ConfigInvalidError(
                f"{name} must be a number, positive and finite, got {value!r}")
    if not (_int_pair(cfg.k_range) and cfg.k_range[0] <= cfg.k_range[1]):
        raise ConfigInvalidError("k_range must be [lo, hi] integers with lo <= hi")
    if not (_int_pair(cfg.s_range) and 0 <= cfg.s_range[0] <= cfg.s_range[1]):
        raise ConfigInvalidError("s_range must be [lo, hi] integers with 0 <= lo <= hi")
    box, shape = cfg.lattice.get("box"), cfg.lattice.get("shape")
    if not (box and shape and isinstance(box, list) and isinstance(shape, list)
            and len(box) == len(shape)):
        raise ConfigInvalidError("lattice needs box and shape lists of equal dimension")
    for side in box:
        if not (isinstance(side, list) and len(side) == 2 and all(map(_number, side))):
            raise ConfigInvalidError(
                f"lattice.box must hold [lo, hi] sides of finite numbers, got {side!r}")
        if not side[1] > side[0]:
            raise ConfigInvalidError("lattice box sides must have positive length")
    if not all(_is_integer(n) and n > 0 for n in shape):
        raise ConfigInvalidError("lattice.shape must be positive integers")
    dims = {"matrix": dim,
            "surface.dim": cfg.surface["dim"],
            "lattice": len(box)}
    if len(set(dims.values())) > 1:
        raise ConfigInvalidError("dimensions disagree: " + ", ".join(
            f"{name} {d}" for name, d in dims.items()))
    rows = cfg.atoms.get("list")
    if not (rows is None or isinstance(rows, list) and all(isinstance(row, dict) for row in rows)):
        raise ConfigInvalidError(f"atoms.list must be a list of mappings, got {rows!r}")
    seeds = {"seed": cfg.seed}
    for pos, row in enumerate(rows or ()):
        unknown = [key for key in row if key not in _ROW_KEYS]
        if unknown:
            raise ConfigInvalidError(f"unknown config key: atoms.list[{pos}].{unknown[0]}")
        seeds[f"atoms.list[{pos}].seed"] = row.get("seed", 0)
        index = row.get("index")
        if not (isinstance(index, list) and all(map(_is_integer, [row.get("tau"), *index]))):
            raise ConfigInvalidError(f"atoms.list[{pos}] tau and index must be integers")
    for name, value in seeds.items():
        if not (_is_integer(value) and value >= 0):
            raise ConfigInvalidError(f"{name} must be a nonnegative integer, got {value!r}")
    if rows is None:
        count = cfg.atoms["count"]
        if not (_is_integer(count) and count >= 0):
            raise ConfigInvalidError(f"atoms.count must be a nonnegative integer, got {count!r}")
        span, taus = cfg.atoms["index_span"], cfg.atoms["tau_range"]
        if not (_is_integer(span) and span >= 0):
            raise ConfigInvalidError(f"atoms.index_span must be a nonnegative integer, got {span!r}")
        if not (_int_pair(taus) and taus[0] <= taus[1]):
            raise ConfigInvalidError("atoms.tau_range must be [lo, hi] integers with lo <= hi")
        lams = cfg.atoms["lam_range"]
        if not (isinstance(lams, list) and len(lams) == 2 and all(map(_positive, lams))
                and lams[0] <= lams[1]):
            raise ConfigInvalidError(
                "atoms.lam_range must be [lo, hi] numbers with 0 < lo <= hi, "
                f"both finite, got {lams!r}")
    else:
        for pos, row in enumerate(rows):
            if not _positive(row.get("lam")):
                raise ConfigInvalidError(
                    f"atoms.list[{pos}].lam must be a finite number with lam > 0, "
                    f"got {row.get('lam')!r}")
    return cfg
