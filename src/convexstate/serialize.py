"""JSON-friendly conversion for report and certificate objects.

Canonical form: dict keys sorted by the emitter, Fractions as 'p/q'
strings, numpy arrays as nested lists (complex entries as [re, im]
pairs).  Deterministic for deterministic inputs, so identical runs give
byte-identical JSON.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

import numpy as np


def jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.generic):
        return jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj) and float(np.max(np.abs(np.imag(obj)))) == 0.0:
            obj = np.real(obj)
        return [jsonable(x) for x in obj.tolist()] if obj.ndim else jsonable(obj.item())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"
