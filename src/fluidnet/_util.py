"""Small shared helpers: norms, seeding, float, count and read-only arrays, the
LP solver, atomic IO, CSV text."""
from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from .errors import BadCount, BadFactor, BadHorizon, BadSeed, DimensionMismatch, NonFiniteInput


def l1(x) -> float:
    """The l1 norm used throughout: sum of absolute component values."""
    return float(np.abs(np.asarray(x, dtype=float)).sum())


def is_integer(value) -> bool:
    """True for a Python or numpy integer; False for a bool and every float (2.0, NaN)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_seed(seed: int) -> int:
    """The seed itself if it is a nonnegative integer, as SeedSequence requires; else BadSeed."""
    if not is_integer(seed):
        raise BadSeed(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise BadSeed(f"seed must be nonnegative, got {seed}")
    return seed


def check_count(name: str, value: int, cap: int | None = None, low: int = 0) -> int:
    """The count itself if it is an integer (numpy integers too) of at least
    ``low`` (default: nonnegative) and at most ``cap``; else BadCount."""
    if not is_integer(value):
        raise BadCount(f"{name} must be an integer, got {value!r}")
    if value < low:
        bound = "nonnegative" if low == 0 else f"at least {low}"
        raise BadCount(f"{name} must be {bound}, got {value}")
    if cap is not None and value > cap:
        raise BadCount(f"{name} must lie in 0..{cap}, got {value}")
    return value


def check_factor(name: str, value: float) -> float:
    """The value as a float (:func:`float_scalar`) if finite and positive; else BadFactor."""
    value = float_scalar(name, value)
    if not (math.isfinite(value) and value > 0):
        raise BadFactor(f"{name} must be finite and positive, got {value!r}")
    return value


def check_horizon(horizon) -> float:
    """The horizon as a float (:func:`float_scalar`) if finite and nonnegative; else BadHorizon."""
    horizon = float_scalar("horizon", horizon)
    if not (math.isfinite(horizon) and horizon >= 0):
        raise BadHorizon(f"horizon must be finite and nonnegative, got {horizon!r}")
    return horizon


def float_array(name: str, value) -> np.ndarray:
    """``value`` as a new float array: DimensionMismatch for a ragged nesting,
    NonFiniteInput for an entry that is not a number."""
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError):  # a ragged nesting leaves sequences among object cells
        if any(np.ndim(cell) for cell in np.array(value, dtype=object).flat):
            raise DimensionMismatch(f"{name}: ragged nesting, got {value!r}") from None
        raise NonFiniteInput(f"{name}: an entry is not a number, got {value!r}") from None


def float_scalar(name: str, value) -> float:
    """``value`` as a float: errors as :func:`float_array`, and DimensionMismatch
    for an array of any shape but ()."""
    a = float_array(name, value)
    if a.ndim:
        raise DimensionMismatch(f"{name} needs a number, got shape {a.shape}")
    return float(a)


def count_array(name: str, value) -> np.ndarray:
    """``value`` as an int64 array, never truncated: errors as :func:`float_array`,
    NonFiniteInput for NaN or infinity, BadCount for a fraction or a count outside
    int64.  Integer-dtype input converts exactly; other input is read as floats
    (``[5.0, 5.0]``), so past 2^53 it keeps only a float's digits."""
    a = float_array(name, value)
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput(f"{name}: an entry is not finite, got {a.tolist()}")
    exact = np.asarray(value)
    if exact.dtype.kind in "iu":
        outside = np.any(exact > np.iinfo(np.int64).max)
    else:
        exact, outside = a, np.any(np.abs(a) >= 2.0**63)
    if outside or np.any(a != np.trunc(a)):
        raise BadCount(f"{name}: an entry is no whole number within int64, got {exact.tolist()}")
    return exact.astype(np.int64)


def square_matrix(name: str, value, k: int | None) -> np.ndarray:
    """``value`` as a float matrix (:func:`float_array`): DimensionMismatch unless
    square (k x k unless k is None), NonFiniteInput unless finite."""
    a = float_array(name, value)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or k not in (None, a.shape[0]):
        size = "square" if k is None else f"{k} x {k}"
        raise DimensionMismatch(f"{name} needs a {size} matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput(f"{name} needs finite entries, got {a.tolist()}")
    return a


def readonly(name: str, a) -> np.ndarray:
    """A read-only :func:`float_array` copy of ``a``; the caller's array stays writable."""
    a = float_array(name, a)
    a.setflags(write=False)
    return a


def freeze_arrays(obj, names) -> None:
    """Set each named field of a frozen dataclass to a read-only float array, in
    place (``Trajectory``, ``SamplePath``).  A float array, as the library
    builds them, is kept without a copy; anything else goes through
    :func:`float_array`."""
    for name in names:
        arr = getattr(obj, name)
        if not (isinstance(arr, np.ndarray) and arr.dtype == float):
            arr = float_array(name, arr)
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


def linprog(c, **constraints):
    """scipy's HiGHS solver on min c . x under ``constraints`` (``A_ub``, ``b_ub``,
    ``A_eq``, ``b_eq``, ``bounds``).  scipy.optimize is imported by the first call,
    so a process that solves no LP never loads it."""
    from scipy.optimize import linprog as solve

    return solve(c, method="highs", **constraints)


def window_points(horizon: float, *stamps) -> np.ndarray:
    """The sorted distinct stamps within [0, horizon], with both ends; BadHorizon
    for a horizon that is negative, infinite or NaN."""
    horizon = check_horizon(horizon)
    return np.unique(np.concatenate([*(s[s <= horizon] for s in stamps), [0.0, horizon]]))


def rng_from(seed: int) -> np.random.Generator:
    """Counter-based generator so spawned streams are independent and reproducible."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(check_seed(seed))))


def child_seeds(seed: int, n: int) -> list[int]:
    """n independent 31-bit seeds spawned from one top-level seed."""
    children = np.random.SeedSequence(check_seed(seed)).spawn(check_count("seed count", n))
    return [int(c.generate_state(1)[0]) % (2**31) for c in children]


def atomic_write_text(path, text: str) -> None:
    """Write-temp-rename so readers never observe a partial file."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-fluidnet-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def fmt(value: float) -> str:
    """17 significant digits: enough to round-trip a double exactly."""
    return f"{float(value):.17g}"


def csv_text(header, rows) -> str:
    """CSV lines: the header, then one line per row with every cell through :func:`fmt`."""
    lines = [",".join(header)]
    lines.extend(",".join(map(fmt, row)) for row in rows)
    return "\n".join(lines) + "\n"


def to_jsonable(obj):
    """Recursively convert numpy scalars/arrays so json.dumps accepts the object."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, frozenset):
        return sorted(to_jsonable(v) for v in obj)
    return obj
