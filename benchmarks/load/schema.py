"""Checks a ``--json`` report against ``report.schema.json``.

Only the handful of JSON Schema keywords that file uses — ``type``,
``required``, ``properties``, ``additionalProperties`` — so the benchmark
needs nothing beyond the standard library.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

SCHEMA_PATH = Path(__file__).resolve().parent / "report.schema.json"

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _is(value: Any, type_name: str) -> bool:
    if type_name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if type_name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, _TYPES[type_name])


def errors(value: Any, schema: Dict[str, Any], where: str = "$") -> List[str]:
    """Every way ``value`` departs from ``schema`` (empty when it fits)."""
    wanted = schema.get("type")
    if wanted is not None:
        names = wanted if isinstance(wanted, list) else [wanted]
        if not any(_is(value, name) for name in names):
            return [f"{where}: expected {wanted}, got {type(value).__name__}"]
    found: List[str] = []
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                found.append(f"{where}: missing {key!r}")
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, item in value.items():
            if key in properties:
                found += errors(item, properties[key], f"{where}.{key}")
            elif isinstance(extra, dict):
                found += errors(item, extra, f"{where}.{key}")
    return found


def validate(document: Any) -> List[str]:
    with open(SCHEMA_PATH, encoding="utf-8") as handle:
        return errors(document, json.load(handle))
