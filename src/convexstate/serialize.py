"""JSON out and in: reports written canonically, input files read once.

Canonical form: dict keys sorted by the emitter, Fractions as 'p/q'
strings, numpy arrays as nested lists (complex entries as [re, im]
pairs).  Deterministic for deterministic inputs, so identical runs give
byte-identical JSON.  A Fraction whose numerator or denominator has more
digits than ``str()`` writes raises ``PreconditionError``.

Every input file, theory or state, goes through ``read_json``, and every
number in one through ``read_numbers``; each raises the error class its
caller names (``TheoryFormatError`` for theories, ``PreconditionError``
for states).
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction

import numpy as np

from .errors import PreconditionError
from .lp import rat


def jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, Fraction):
        try:
            return str(obj)
        except ValueError:  # more digits than str() may write
            raise PreconditionError(
                f"a number in the report exceeds the limit ({sys.get_int_max_str_digits()} "
                "digits) for integer string conversion") from None
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


def read_json(path: str, error: type[Exception]):
    """The JSON value in the file at ``path``.  A file that cannot be read,
    is not UTF-8, nests too deeply or is not JSON raises ``error``; a
    syntax error's text gives its line and column."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"{path}: {exc}") from exc


def read_numbers(values, source: str, error: type[Exception], read=rat) -> list:
    """``read`` of each entry of the JSON list ``values``, every number going
    through ``rat``.  A value that is not a list, or an entry that ``read``
    refuses, raises ``error`` naming ``source`` and the entry's index."""
    if not isinstance(values, list):
        raise error(f"{source}: expected a list, got {type(values).__name__}")
    out = []
    for i, value in enumerate(values):
        try:
            out.append(q := read(value))
            # Decimal text with an exponent can read to a numerator or denominator
            # longer than str() writes, which int() refuses in int text.  As
            # 2**(3*limit) < 10**limit, a short int skips the power of ten.
            if type(value) is str and ("e" in value or "E" in value) and type(q) is Fraction:
                limit = sys.get_int_max_str_digits()
                big = max(-q.numerator, q.numerator, q.denominator)
                if limit and big.bit_length() >= 3 * limit and big >= 10 ** limit:
                    raise ValueError(f"Exceeds the limit ({limit} digits) for integer string "
                                     "conversion in the exact value of a decimal")
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise error(f"{source} {i}: {exc}") from exc
    return out
