"""Self-describing network description files.

A description file is a YAML key-value tree.  Core network keys::

    classes: 2                 # number of classes K
    stations: 2                # number of stations J
    alpha: [1.0, 0.0]          # exogenous inflow rate per class
    mu: [2.0, 3.0]             # potential outflow rate per class
    routing:                   # K x K proportions, row-major
      - [0.0, 1.0]
      - [0.0, 0.0]
    constituency:              # J x K, one station per class
      - [1, 0]
      - [0, 1]
    discipline: work_conserving   # or: priority
    priority_order: [0, 1]     # only for priority: classes, highest first

Classes and stations are indexed from zero everywhere.  Optional sections
``skorokhod`` (theta, reflection, z0, push_bound), ``queueing`` (interarrival,
service), ``simulate`` (x0, selector) and ``fluidlimit`` (direction, scales)
configure the matching commands.  Unknown keys are rejected.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import yaml

from ._util import is_integer
from .dynamics import MaxDrain
from .errors import ParseError
from .fluidlimit import QueueingSpec
from .model import PRIORITY, NetworkSpec, validate
from .skorokhod import LspInstance

_NETWORK_KEYS = {
    "classes",
    "stations",
    "alpha",
    "mu",
    "routing",
    "constituency",
    "discipline",
    "priority_order",
}
#: the optional sections and the keys each allows
_SECTION_KEYS = {
    "skorokhod": {"theta", "reflection", "z0", "push_bound"},
    "queueing": {"interarrival", "service"},
    "simulate": {"x0", "selector"},
    "fluidlimit": {"direction", "scales"},
}


@dataclass(frozen=True, eq=False)
class ParsedSpecFile:
    network: NetworkSpec | None
    skorokhod: LspInstance | None
    queueing: QueueingSpec | None
    simulate: dict | None
    fluidlimit: dict | None


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ParseError(f"unknown key {unknown[0]!r} in {where}")


def _section(doc: dict, name: str) -> dict:
    """The named optional section, checked to be a mapping of known keys."""
    section = doc[name]
    if not isinstance(section, dict):
        raise ParseError(f"{name} section must be a mapping")
    _reject_unknown(section, _SECTION_KEYS[name], f"{name} section")
    return section


def _require(mapping: dict, keys, where: str) -> None:
    missing = sorted(k for k in keys if k not in mapping)
    if missing:
        raise ParseError(f"missing key {missing[0]!r} in {where}")


def _finite(value, key: str, where: str) -> np.ndarray:
    """``value`` as a float array; text and YAML's ``.nan`` and ``.inf`` are rejected."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"key {key!r} in {where} must be numeric, got {value!r}") from exc
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"key {key!r} in {where} must be finite, got {arr.tolist()}")
    return arr


def _vector(value, key: str, where: str) -> list[float]:
    """``value`` as a flat list of finite floats; a scalar, a nested list or an
    empty list is rejected."""
    arr = _finite(value, key, where)
    if arr.ndim != 1 or arr.size == 0:
        raise ParseError(f"key {key!r} in {where} must be a nonempty flat list, got {value!r}")
    return [float(v) for v in arr]


def _scalar(value, key: str, where: str) -> float:
    """``value`` as a finite float; a list is rejected."""
    arr = _finite(value, key, where)
    if arr.ndim != 0:
        raise ParseError(f"key {key!r} in {where} must be a number, got {value!r}")
    return float(arr)


def _integer(value, key: str, where: str) -> int:
    """``value`` as an int; text, booleans and non-integral numbers are rejected."""
    if is_integer(value):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ParseError(f"key {key!r} in {where} must be an integer, got {value!r}")


def _parse_network(doc: dict) -> NetworkSpec | None:
    present = _NETWORK_KEYS & set(doc)
    if not present:
        return None
    required = {"classes", "stations", "alpha", "mu", "routing", "constituency", "discipline"}
    where = "network description"
    _require(doc, required, where)
    k = _integer(doc["classes"], "classes", where)
    j = _integer(doc["stations"], "stations", where)
    discipline = str(doc["discipline"])
    priority = None
    if discipline == PRIORITY:
        _require(doc, {"priority_order"}, "priority network description")
        order = doc["priority_order"]
        if not isinstance(order, list):
            raise ParseError(f"key 'priority_order' in {where} must be a list, got {order!r}")
        order = [_integer(c, "priority_order", where) for c in order]
        if sorted(order) != list(range(k)):
            raise ParseError(f"priority_order must list every class exactly once, got {order}")
        ranks = [0] * k
        for rank, cls in enumerate(order):
            ranks[cls] = rank
        priority = tuple(ranks)
    elif "priority_order" in doc:
        raise ParseError("priority_order is only valid with the priority discipline")

    alpha = _finite(doc["alpha"], "alpha", where)
    mu = _finite(doc["mu"], "mu", where)
    routing = _finite(doc["routing"], "routing", where)
    constituency = _finite(doc["constituency"], "constituency", where)
    if alpha.shape != (k,) or mu.shape != (k,):
        raise ParseError(f"alpha and mu must have {k} entries")
    if routing.shape != (k, k):
        raise ParseError(f"routing must be {k}x{k}, got {routing.shape}")
    if constituency.shape != (j, k):
        raise ParseError(f"constituency must be {j}x{k}, got {constituency.shape}")
    return validate(alpha, mu, routing, constituency, discipline, priority)


def _parse_skorokhod(section: dict) -> LspInstance:
    where = "skorokhod section"
    _require(section, {"theta", "reflection", "z0"}, where)
    return LspInstance(
        _finite(section["theta"], "theta", where),
        _finite(section["reflection"], "reflection", where),
        _finite(section["z0"], "z0", where),
        push_bound=(
            _scalar(section["push_bound"], "push_bound", where) if "push_bound" in section else None
        ),
    )


def parse_spec_text(text: str) -> ParsedSpecFile:
    try:
        doc = yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        raise ParseError(
            f"invalid YAML: {exc.problem}",
            line=None if mark is None else mark.line + 1,
            column=None if mark is None else mark.column + 1,
        ) from exc
    except yaml.YAMLError as exc:
        raise ParseError(f"invalid YAML: {exc}") from exc
    if doc is None:
        raise ParseError("empty description file")
    if not isinstance(doc, dict):
        raise ParseError("description file must be a key-value mapping")
    _reject_unknown(doc, _NETWORK_KEYS | set(_SECTION_KEYS), "description file")

    network = _parse_network(doc)

    lsp = None
    if "skorokhod" in doc:
        lsp = _parse_skorokhod(_section(doc, "skorokhod"))

    queueing = None
    if "queueing" in doc:
        section = _section(doc, "queueing")
        if network is None:
            raise ParseError("queueing section requires the network keys")
        queueing = QueueingSpec(
            network,
            section.get("interarrival", "exponential"),
            section.get("service", "exponential"),
        )

    simulate_cfg = None
    if "simulate" in doc:
        section = _section(doc, "simulate")
        simulate_cfg = {"selector": str(section.get("selector", MaxDrain.name))}
        if "x0" in section:
            simulate_cfg["x0"] = _vector(section["x0"], "x0", "simulate section")

    fluidlimit_cfg = None
    if "fluidlimit" in doc:
        section = _section(doc, "fluidlimit")
        fluidlimit_cfg = {
            key: _vector(section[key], key, "fluidlimit section")
            for key in ("direction", "scales") if key in section
        }

    return ParsedSpecFile(network, lsp, queueing, simulate_cfg, fluidlimit_cfg)


def parse_spec_file(path) -> ParsedSpecFile:
    try:
        with open(path, "r") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_spec_text(text)


def network_to_dict(spec: NetworkSpec) -> dict:
    """Round-trippable plain mapping for a network description."""
    doc = {
        "classes": spec.K,
        "stations": spec.J,
        "alpha": spec.alpha.tolist(),
        "mu": spec.mu.tolist(),
        "routing": spec.routing.tolist(),
        "constituency": [[int(v) for v in row] for row in spec.constituency],
        "discipline": spec.discipline,
    }
    if spec.priority is not None:
        order = sorted(range(spec.K), key=lambda k: spec.priority[k])
        doc["priority_order"] = order
    return doc


def network_to_yaml(spec: NetworkSpec) -> str:
    return yaml.safe_dump(network_to_dict(spec), sort_keys=False)
