"""The verdict of draft 2020-12 JSON Schema on a document, for the
keywords the bundled schemas use: `type`, `properties`, `required`,
`additionalProperties`, `items`, the size and range keywords in _HOLDS,
`pattern`, `enum`, `const`, `oneOf` and a local `$ref`. Other keywords
are ignored; tests/test_schema_check.py holds the bundled schemas to
this list and the verdicts to jsonschema's. `conforms` descends only
where the schema does, so a deeply nested value fails the `type` test of
the leaf it sits in."""
from __future__ import annotations

import functools
import re

# an integral float is an integer, and a bool is no number
_TYPES = {"object": lambda x: isinstance(x, dict), "array": lambda x: isinstance(x, list),
          "string": lambda x: isinstance(x, str),
          "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
          "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                                or isinstance(x, float) and x.is_integer())}
# keyword: (the type it applies to, holds(x, value)); other types pass it
_HOLDS = {
    "minimum": ("number", lambda x, v: x >= v),
    "maximum": ("number", lambda x, v: x <= v),
    "exclusiveMinimum": ("number", lambda x, v: x > v),
    "minLength": ("string", lambda x, v: len(x) >= v),
    "pattern": ("string", lambda x, v: re.search(v, x) is not None),
    "minItems": ("array", lambda x, v: len(x) >= v),
    "maxItems": ("array", lambda x, v: len(x) <= v),
    "minProperties": ("object", lambda x, v: len(x) >= v),
    "maxProperties": ("object", lambda x, v: len(x) <= v),
}


def _same(a, b) -> bool:  # JSON equality for a scalar b: true is not 1
    return a is b if isinstance(a, bool) or isinstance(b, bool) else a == b


def conforms(schema: dict, x, root: dict | None = None) -> bool:
    """Whether x is valid against schema, a subschema of root (schema
    itself by default)."""
    root = schema if root is None else root
    for key, v in schema.items():
        if key == "type":
            ok = _TYPES[v](x)
        elif key in _HOLDS:
            kind, holds = _HOLDS[key]
            ok = not _TYPES[kind](x) or holds(x, v)
        elif key == "const":
            ok = _same(x, v)
        elif key == "enum":
            ok = any(_same(x, e) for e in v)
        elif not isinstance(x, dict) and key in ("required", "properties",
                                                 "additionalProperties"):
            continue
        elif key == "required":
            ok = all(name in x for name in v)
        elif key == "properties":
            ok = all(conforms(s, x[k], root) for k, s in v.items() if k in x)
        elif key == "additionalProperties":
            known = schema.get("properties", {})
            ok = all(v is not False and conforms(v, x[k], root) for k in x if k not in known)
        elif key == "items":
            ok = not isinstance(x, list) or all(conforms(v, item, root) for item in x)
        elif key == "oneOf":
            ok = sum(conforms(s, x, root) for s in v) == 1
        elif key == "$ref":
            ok = conforms(functools.reduce(dict.__getitem__, v[2:].split("/"), root), x, root)
        else:
            continue
        if not ok:
            return False
    return True
