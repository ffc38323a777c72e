"""schema_check against jsonschema, the reference oracle.

`conforms` must give jsonschema's verdict on every document, and a
rejected document's SchemaError must carry the path and message of the
error jsonschema's best_match picks. The bundled schemas must use only
what `conforms` implements, so a later schema edit cannot go unchecked.
"""
import copy

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from acs_verify.errors import SchemaError
from acs_verify.scenarios import (
    bundled_scenario_names,
    find_scenario,
    load_json,
    load_schema,
    validate_document,
)
from acs_verify.schema_check import conforms

SCHEMAS = ["scenario.schema.json", "lvmb_input.schema.json"]
MUTANT_VALUES = [-1, 0, 1.5, 1e300, "x", True, None, [], {}]


def assert_agrees(doc, name=None, schema=None):
    """conforms and jsonschema agree on doc against the bundled schema
    name, or against schema; returns the verdict. A document the bundled
    schema rejects raises jsonschema's best error, with its path."""
    schema = load_schema(name) if schema is None else schema
    want = list(jsonschema.Draft202012Validator(schema).iter_errors(doc))
    verdict = conforms(schema, doc)
    assert verdict == (not want), (doc, [e.message for e in want])
    if want and name is not None:
        best = jsonschema.exceptions.best_match(want)
        path = "/".join(str(p) for p in best.absolute_path) or "<root>"
        with pytest.raises(SchemaError) as raised:
            validate_document(doc, name)
        assert str(raised.value) == f"scenario invalid at {path}: {best.message}"
    return verdict


def leaf_paths(doc, path=()):
    if isinstance(doc, (dict, list)) and doc:
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from leaf_paths(value, path + (key,))
    else:
        yield path


def object_paths(doc, path=()):
    if isinstance(doc, dict):
        yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from object_paths(value, path + (key,))


def replaced(doc, path, value=None, delete=False):
    out = copy.deepcopy(doc)
    if not path:
        return value
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def mutants(doc):
    """Each leaf deleted or set to each of MUTANT_VALUES, and one unknown
    key added to each object."""
    for path in leaf_paths(doc):
        if path:
            yield replaced(doc, path, delete=True)
        for value in MUTANT_VALUES:
            yield replaced(doc, path, value)
    for path in object_paths(doc):
        target = copy.deepcopy(doc)
        parent = target
        for key in path:
            parent = parent[key]
        parent["unknown_key"] = 1
        yield target


def sweep_documents():
    for scenario in bundled_scenario_names():
        doc = load_json(find_scenario(scenario))
        yield scenario, "scenario.schema.json", doc
        if doc["kind"] == "lvmb":
            yield scenario + "/data", "lvmb_input.schema.json", doc["payload"]["data"]


@pytest.mark.parametrize("label, name, doc", list(sweep_documents()),
                         ids=[label for label, _, _ in sweep_documents()])
def test_single_leaf_mutations_get_the_verdict_and_message_of_jsonschema(label, name, doc):
    assert assert_agrees(doc, name)
    verdicts = [assert_agrees(mutant, name) for mutant in mutants(doc)]
    # the sweep reaches both verdicts
    assert True in verdicts and False in verdicts


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4) | st.sampled_from(["universal", "lvmb", "x-1", "", "a b"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4) | st.sampled_from(["id", "kind", "seed", "n", "m"]),
                      inner, max_size=3),
    max_leaves=8)
BUNDLED = [(name, doc) for _, name, doc in sweep_documents()]


@st.composite
def near_documents(draw):
    """A bundled document with one subtree replaced by an arbitrary value."""
    name, doc = draw(st.sampled_from(BUNDLED))
    paths = sorted(set(p[:k] for p in leaf_paths(doc) for k in range(1, len(p) + 1)), key=str)
    return name, replaced(doc, draw(st.sampled_from(paths)), draw(JSON))


@settings(max_examples=300, deadline=None)
@given(doc=JSON, name=st.sampled_from(SCHEMAS))
def test_any_json_value_gets_the_verdict_of_jsonschema(doc, name):
    assert_agrees(doc, name)


@settings(max_examples=300, deadline=None)
@given(case=near_documents())
def test_a_bundled_document_with_a_random_subtree_gets_the_verdict_of_jsonschema(case):
    assert_agrees(case[1], case[0])


@pytest.mark.parametrize("name, doc, message", [
    # an integral float is an integer
    ("scenario.schema.json", {"id": "x", "kind": "fields", "seed": 2.0}, None),
    ("scenario.schema.json", {"id": "x", "kind": "fields", "seed": 1e300},
     "scenario invalid at seed: 1e+300 is greater than the maximum of 18446744073709551615"),
    # a bool is never a number
    ("scenario.schema.json", {"id": "x", "kind": "fields", "seed": True},
     "scenario invalid at seed: True is not of type 'integer'"),
    ("lvmb_input.schema.json", {"m": 1, "N": 3, "E": [[0]], "ell": [[[False, 0]], [[0, 0]]]},
     "scenario invalid at ell/0/0/0: False is not of type 'number'"),
    # const: true does not match 1
    ("scenario.schema.json", {"id": "x", "kind": "universal", "seed": 1,
                              "payload": {"structure": {"standard": 1}}},
     "scenario invalid at payload/structure/standard: True was expected"),
    # $ref applies together with its sibling keywords
    ("scenario.schema.json", {"id": "x", "kind": "universal", "seed": 1,
                              "payload": {"versality_samples": []}},
     "scenario invalid at payload/versality_samples: [] should be non-empty"),
    ("scenario.schema.json", {"id": "x", "kind": "universal", "seed": 1,
                              "payload": {"versality_samples": [["a"]]}},
     "scenario invalid at payload/versality_samples/0/0: 'a' is not of type 'number'"),
    # oneOf: samples must match one of the grid and the point list; with
    # equally relevant errors in both branches the oneOf error is reported
    ("scenario.schema.json", {"id": "x", "kind": "fields", "seed": 1,
                              "samples": {"points": [[0.5]], "counts": [2]}},
     "scenario invalid at samples: {'points': [[0.5]], 'counts': [2]} is not valid under any "
     "of the given schemas"),
    ("scenario.schema.json", {"id": "x", "kind": "fields", "seed": 1,
                              "samples": {"points": [[0.5]], "dims": 0}},
     "scenario invalid at samples/dims: 0 is less than the minimum of 1"),
], ids=["integral-float", "1e300", "bool-seed", "bool-in-ell", "const-true", "ref-sibling",
        "ref-target", "one-of-tie", "one-of-deepest"])
def test_draft_2020_12_semantics(name, doc, message):
    assert assert_agrees(doc, name) == (message is None)
    if message is not None:
        with pytest.raises(SchemaError) as raised:
            validate_document(doc, name)
        assert str(raised.value) == message


@pytest.mark.parametrize("schema, doc", [
    # two branches of a oneOf match
    ({"oneOf": [{"type": "integer"}, {"type": "number"}]}, 1),
    ({"oneOf": [{"minimum": 0}, {"type": "string"}, {"maximum": 5}]}, 3),
    ({"properties": {"a": {"$ref": "#/$defs/small", "minimum": 5}},
      "$defs": {"small": {"type": "integer", "maximum": 3}}}, {"a": 4}),
    # the size keywords away from their edge
    ({"maxItems": 0, "minLength": 2, "maxProperties": 0}, [1]),
    ({"minLength": 2}, "a"),
    ({"maxProperties": 0, "minProperties": 3}, {"a": 1}),
    ({"minItems": 3}, [1]),
    # additionalProperties given as a schema
    ({"properties": {"a": {}}, "additionalProperties": {"type": "integer"}},
     {"a": "x", "b": "y", "c": 1.5}),
    ({"properties": {"a": {}}, "additionalProperties": {"type": "integer"}}, {"a": "x", "b": 2}),
    # a keyword tests only values of its type
    ({"pattern": "^a", "minimum": 2, "required": ["a"], "items": {"type": "string"}}, True),
    ({"enum": [1, "a", None]}, True),
    ({"enum": [1, "a", None]}, 1.0),
    ({"const": 1}, 1.0),
], ids=["one-of-each", "one-of-each-of-three", "ref-sibling", "max-items-0", "min-length-2",
        "max-properties-0", "min-items-3", "additional-schema", "additional-schema-valid",
        "off-type", "enum-bool", "enum-float", "const-float"])
def test_keyword_forms_the_bundled_schemas_do_not_use(schema, doc):
    assert implemented(schema)
    assert_agrees(doc, schema=schema)


KEYWORDS = {"type", "properties", "required", "additionalProperties", "items", "minItems",
            "maxItems", "minProperties", "maxProperties", "minimum", "maximum",
            "exclusiveMinimum", "minLength", "pattern", "enum", "const", "oneOf", "$ref"}
ANNOTATIONS = {"$schema", "$defs", "title", "description"}
TYPES = ("object", "array", "string", "number", "integer")


def implemented(schema) -> bool:
    """Whether conforms implements everything in schema: no keyword outside
    KEYWORDS and ANNOTATIONS, one type name of TYPES, scalars under enum
    and const, a $ref within the document, and objects as subschemas."""
    if (not isinstance(schema, dict) or set(schema) - KEYWORDS - ANNOTATIONS
            or schema.get("type", "array") not in TYPES
            or any(isinstance(v, (list, dict)) for v in [schema.get("const"),
                                                          *schema.get("enum", [])])
            or not schema.get("$ref", "#/").startswith("#/")):
        return False
    extra = schema.get("additionalProperties", False)
    return all(implemented(sub) for sub in [
        *schema.get("properties", {}).values(), *schema.get("$defs", {}).values(),
        *schema.get("oneOf", []), *([schema["items"]] if "items" in schema else []),
        *([] if extra is False else [extra])])


@pytest.mark.parametrize("name", SCHEMAS)
def test_the_bundled_schemas_use_only_what_conforms_implements(name):
    assert implemented(load_schema(name))


def edited(name, path, key, value):
    schema = copy.deepcopy(load_schema(name))
    target = schema
    for part in path:
        target = target[part]
    target[key] = value
    return schema


@pytest.mark.parametrize("name, path, key, value", [
    ("scenario.schema.json", (), "patternProperties", {"^x": {}}),
    ("scenario.schema.json", ("$defs", "rows"), "uniqueItems", True),
    ("scenario.schema.json", ("properties", "samples", "oneOf", 1), "anyOf", []),
    ("lvmb_input.schema.json", ("properties", "ell", "items"), "prefixItems", []),
    ("lvmb_input.schema.json", ("properties", "m"), "type", ["integer", "null"]),
    ("lvmb_input.schema.json", ("properties", "m"), "type", "boolean"),
    ("lvmb_input.schema.json", ("properties", "m"), "enum", [[1]]),
    ("lvmb_input.schema.json", ("properties", "m"), "$ref", "other.json#/m"),
    ("lvmb_input.schema.json", (), "additionalProperties", True),
], ids=["patternProperties", "uniqueItems-under-defs", "anyOf-under-oneOf", "prefixItems",
        "type-list", "type-boolean", "enum-of-lists", "remote-ref", "true-subschema"])
def test_a_schema_edit_beyond_what_conforms_implements_is_caught(name, path, key, value):
    assert not implemented(edited(name, path, key, value))
