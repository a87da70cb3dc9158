"""Structure config files: line-oriented JSON, 1-based vertex indices.

A config carries the combinatorial structure (K, N, glue classes,
boundary), the cell network and measure, optional per-copy weights, an
optional weak network, and an optional coordinate chart.  The shipped
builtin configs additionally record the parameter family they were
generated from, which the verify suites use to select expected values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import ConfigError, InvalidStructure
from .network import ElectricalNetwork
from .renorm import CoordinateChart
from .selfsim import SelfSimilarStructure, point_index

BUILTIN_NAMES = ("sierpinski", "gamma_bar", "gamma_bar_semi", "interval")


@dataclass
class StructureConfig:
    """Parsed config: structure plus cell network, measure and chart."""

    name: str
    structure: SelfSimilarStructure
    network: ElectricalNetwork
    measure: np.ndarray
    chart: CoordinateChart | None = None
    family: str = ""
    params: dict = field(default_factory=dict)


def _expect(raw, key, kind, context):
    if key not in raw:
        raise ConfigError(f"{context}: missing field '{key}'")
    value = raw[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"{context}: field '{key}' has the wrong type")
    return value


def _point(entry, k, n, context):
    try:
        copy, vertex = int(entry[0]), int(entry[1])
    except (TypeError, ValueError, IndexError):
        raise ConfigError(f"{context}: expected a [copy, vertex] pair, got {entry!r}")
    if not (1 <= copy <= n and 1 <= vertex <= k):
        raise ConfigError(f"{context}: point [{copy}, {vertex}] out of range")
    return point_index(copy - 1, vertex - 1, k)


def parse_config(raw: dict, name="config") -> StructureConfig:
    k = int(_expect(raw, "K", int, name))
    n = int(_expect(raw, "N", int, name))
    glue_raw = _expect(raw, "glue", list, name)
    listed = []
    covered = set()
    for c_i, cls in enumerate(glue_raw):
        ctx = f"{name}: glue class {c_i}"
        pts = tuple(sorted(_point(e, k, n, ctx) for e in cls))
        if not pts:
            raise ConfigError(f"{ctx} is empty")
        for p in pts:
            if p in covered:
                raise ConfigError(f"{ctx}: point listed twice across classes")
            covered.add(p)
        listed.append(pts)
    for p in range(k * n):
        if p not in covered:
            listed.append((p,))
    boundary_raw = _expect(raw, "boundary", list, name)
    if len(boundary_raw) != k:
        raise ConfigError(f"{name}: boundary must list exactly K = {k} points")
    boundary = tuple(_point(e, k, n, f"{name}: boundary") for e in boundary_raw)

    weights = raw.get("weights")
    ww = wb = None
    if weights is not None:
        ww = tuple(float(v) for v in _expect(weights, "w", list, f"{name}: weights"))
        wb = tuple(float(v) for v in _expect(weights, "b", list, f"{name}: weights"))

    weak = None
    weak_raw = raw.get("weak")
    if weak_raw is not None:
        cond = {}
        for e_i, entry in enumerate(weak_raw.get("edges", [])):
            ctx = f"{name}: weak edge {e_i}"
            try:
                a, b, rho = entry
            except (TypeError, ValueError):
                raise ConfigError(f"{ctx}: expected [[c,x],[c',x'], rho]")
            pa, pb = _point(a, k, n, ctx), _point(b, k, n, ctx)
            key = (min(pa, pb), max(pa, pb))
            cond[key] = cond.get(key, 0.0) + float(rho)
        diss = [0.0] * (k * n)
        for d_i, entry in enumerate(weak_raw.get("dissipative", [])):
            ctx = f"{name}: weak dissipative {d_i}"
            try:
                pt, v = entry
            except (TypeError, ValueError):
                raise ConfigError(f"{ctx}: expected [[c,x], v]")
            diss[_point(pt, k, n, ctx)] += float(v)
        try:
            weak = ElectricalNetwork(k * n, cond, tuple(diss), signed=True)
        except ValueError as exc:
            raise ConfigError(f"{name}: weak network: {exc}")

    try:
        structure = SelfSimilarStructure(
            cell_size=k,
            num_copies=n,
            glue_classes=tuple(listed),
            boundary_map=boundary,
            weights_w=ww,
            weights_b=wb,
            weak=weak,
            name=str(raw.get("name", name)),
        )
    except InvalidStructure as exc:
        raise ConfigError(f"{name}: {exc}")

    net_raw = _expect(raw, "network", dict, name)
    cond = {}
    for e_i, entry in enumerate(net_raw.get("edges", [])):
        ctx = f"{name}: network edge {e_i}"
        try:
            i, j, rho = entry
        except (TypeError, ValueError):
            raise ConfigError(f"{ctx}: expected [i, j, rho]")
        i, j = int(i) - 1, int(j) - 1
        if not (0 <= i < k and 0 <= j < k) or i == j:
            raise ConfigError(f"{ctx}: bad vertex pair")
        cond[(min(i, j), max(i, j))] = cond.get((min(i, j), max(i, j)), 0.0) + float(rho)
    diss = net_raw.get("dissipative", [0.0] * k)
    if len(diss) != k:
        raise ConfigError(f"{name}: network dissipative must have K entries")
    try:
        network = ElectricalNetwork(k, cond, tuple(float(v) for v in diss))
    except ValueError as exc:
        raise ConfigError(f"{name}: network: {exc}")

    measure = np.asarray(_expect(raw, "measure", list, name), dtype=float)
    if measure.shape != (k,) or np.any(measure <= 0):
        raise ConfigError(f"{name}: measure must be K strictly positive entries")

    chart = None
    if raw.get("chart") is not None:
        try:
            chart = CoordinateChart(tuple(np.asarray(p, dtype=float) for p in raw["chart"]))
        except ValueError as exc:
            raise ConfigError(f"{name}: chart: {exc}")

    return StructureConfig(
        name=str(raw.get("name", name)),
        structure=structure,
        network=network,
        measure=measure,
        chart=chart,
        family=str(raw.get("family", "")),
        params=dict(raw.get("params", {})),
    )


def serialize_config(cfg: StructureConfig) -> dict:
    """Back to the JSON dict form (1-based indices, singletons omitted)."""
    k = cfg.structure.cell_size
    glue = [
        [[p // k + 1, p % k + 1] for p in cls]
        for cls in cfg.structure.glue_classes
        if len(cls) > 1
    ]
    out = {
        "name": cfg.name,
        "K": k,
        "N": cfg.structure.num_copies,
        "glue": glue,
        "boundary": [[p // k + 1, p % k + 1] for p in cfg.structure.boundary_map],
        "network": {
            "edges": [
                [i + 1, j + 1, rho]
                for (i, j), rho in sorted(cfg.network.conductances.items())
            ],
            "dissipative": list(cfg.network.dissipative),
        },
        "measure": [float(v) for v in cfg.measure],
    }
    if cfg.structure.weights_w is not None:
        out["weights"] = {
            "w": list(cfg.structure.weights_w),
            "b": list(cfg.structure.weights_b or ()),
        }
    if cfg.structure.weak is not None:
        weak = cfg.structure.weak
        out["weak"] = {
            "edges": [
                [[a // k + 1, a % k + 1], [b // k + 1, b % k + 1], rho]
                for (a, b), rho in sorted(weak.conductances.items())
            ],
            "dissipative": [
                [[p // k + 1, p % k + 1], v]
                for p, v in enumerate(weak.dissipative)
                if v != 0.0
            ],
        }
    if cfg.chart is not None:
        out["chart"] = [p.tolist() for p in cfg.chart.projectors]
    if cfg.family:
        out["family"] = cfg.family
    if cfg.params:
        out["params"] = cfg.params
    return out


def _lines_list(items, indent):
    pad = " " * indent
    if not items:
        return "[]"
    body = (",\n" + pad).join(json.dumps(it) for it in items)
    return "[\n" + pad + body + "\n" + " " * (indent - 1) + "]"


def dump_config(cfg: StructureConfig) -> str:
    """One semantic item (glue class, edge, projector) per line."""
    d = serialize_config(cfg)
    parts = []
    for key, val in d.items():
        if key in ("glue", "chart"):
            parts.append(f' "{key}": {_lines_list(val, 2)}')
        elif key in ("network", "weak"):
            sub = []
            for sk, sv in val.items():
                if sk in ("edges", "dissipative") and sv and isinstance(sv[0], list):
                    sub.append(f'  "{sk}": {_lines_list(sv, 3)}')
                else:
                    sub.append(f'  "{sk}": {json.dumps(sv)}')
            parts.append(f' "{key}": {{\n' + ",\n".join(sub) + "\n }")
        else:
            parts.append(f' "{key}": {json.dumps(val)}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def load_config(source) -> StructureConfig:
    """Load from a path, or from a builtin name (sierpinski, gamma_bar,
    gamma_bar_semi, interval)."""
    text = None
    name = str(source)
    if name in BUILTIN_NAMES:
        text = resources.files("fractal_spectra").joinpath(f"configs/{name}.json").read_text()
    else:
        try:
            with open(name) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {name!r}: {exc}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{name}: line {exc.lineno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: top level must be an object")
    return parse_config(raw, name=str(raw.get("name", name)))
