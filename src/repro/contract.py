"""JSON contracts as data, and the one function that checks them.

Every JSON document the system hands to a user or a client — a trace
export, a query-log record, the workload report, a server response —
has a stable contract declared as a *spec* next to the code that
produces it.  A spec is a plain Python literal:

* a type or a tuple of types: ``isinstance``, except that a ``bool`` is
  never a number; it matches only a spec that names ``bool``;
* a ``set`` or ``frozenset``: the value must be one of its members
  (enums and schema versions);
* a one-element list ``[item]``: an array whose every element is ``item``;
* a dict: a value of its ``"type"`` (default ``dict``) refined by
  ``"min"``/``"max"`` (numbers), ``"min_len"`` (strings and arrays),
  ``"pattern"`` (strings, ``re.search``), ``"items"`` (array elements),
  ``"required"``/``"optional"`` (object keys → specs), ``"values"`` (the
  spec of every other key's value), ``"closed"`` (no other keys) and
  ``"check"``: a callable taking the object and returning messages,
  run only when everything else about the object passed — the hook
  for the few rules that relate two fields.

:func:`violations` walks a value against a spec and returns every
violation as ``"<path>: <message>"``; an empty list means the value
meets the contract.  :func:`require` raises the first one instead.  No request or statement path calls it: the specs
are checked by the tests and ``tools/check_schema.py``.
"""

from __future__ import annotations

import re
from typing import List

NUMBER = (int, float)
NON_NEGATIVE = {"type": NUMBER, "min": 0}
COUNT = {"type": int, "min": 0}
NULL = type(None)


def violations(value: object, spec: object, where: str = "$") -> List[str]:
    """Every way ``value`` breaks ``spec``, as ``"<path>: <message>"``."""
    if isinstance(spec, (set, frozenset)):
        if _is_member(value, spec):
            return []
        return [f"{where}: {value!r} is not one of "
                f"{', '.join(sorted(map(repr, spec)))}"]
    if isinstance(spec, list):
        spec = {"type": list, "items": spec[0]}
    elif not isinstance(spec, dict):
        spec = {"type": spec}
    types = spec.get("type", dict)
    if not _is_instance(value, types):
        return [f"{where}: must be {_type_names(types)}, "
                f"got {type(value).__name__}"]
    if isinstance(value, NUMBER):
        if value < spec.get("min", value) or value > spec.get("max", value):
            return [f"{where}: {value!r} is outside "
                    f"[{spec.get('min', '-inf')}, {spec.get('max', 'inf')}]"]
    if isinstance(value, (str, list)) and len(value) < spec.get("min_len", 0):
        return [f"{where}: length {len(value)} is below {spec['min_len']}"]
    if isinstance(value, str) and not re.search(spec.get("pattern", ""), value):
        return [f"{where}: {value!r} does not match {spec['pattern']!r}"]
    found: List[str] = []
    if isinstance(value, list) and "items" in spec:
        for index, item in enumerate(value):
            found += violations(item, spec["items"], f"{where}[{index}]")
    if isinstance(value, dict):
        required = spec.get("required", {})
        optional = spec.get("optional", {})
        found += [f"{where}: missing key {key!r}"
                  for key in required if key not in value]
        for key, item in value.items():
            if not isinstance(key, str):
                found.append(f"{where}: key {key!r} is not a string")
                continue
            item_spec = required.get(key, optional.get(key, spec.get("values")))
            if item_spec is not None:
                found += violations(item, item_spec, f"{where}.{key}")
            elif spec.get("closed"):
                found.append(f"{where}: unknown key {key!r}")
        if not found and "check" in spec:
            found += [f"{where}: {message}" for message in spec["check"](value)]
    return found


def require(value: object, spec: object, error: type, where: str = "$") -> None:
    """Raise ``error`` with the first violation of ``spec``, if any."""
    found = violations(value, spec, where)
    if found:
        raise error(found[0])


def _is_instance(value: object, types) -> bool:
    types = types if isinstance(types, tuple) else (types,)
    return isinstance(value, types) and (
        not isinstance(value, bool) or bool in types
    )


def _is_member(value: object, choices) -> bool:
    try:
        found = value in choices
    except TypeError:  # unhashable: an array or object is never a member
        return False
    return found and (
        not isinstance(value, bool) or any(c is value for c in choices)
    )


def _type_names(types) -> str:
    types = types if isinstance(types, tuple) else (types,)
    names = {dict: "object", list: "array", str: "string", bool: "boolean",
             int: "integer", float: "float", NULL: "null"}
    return " or ".join(names.get(kind, kind.__name__) for kind in types)
