"""Each loader refuses every document its shipped JSON Schema refuses.

A valid document is mutated by dropping, adding or retyping one key of one
of its JSON objects; wherever jsonschema refuses the result, the loader
must refuse it too. A loader may refuse more than its schema does."""

import copy
import importlib.resources as res
import json
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from shufflesc.automata import FormatError, dfa_from_dict
from shufflesc.reach import (
    Certificate, ReachReport, bfs_reach, certify, load_letters, verify_certificate,
)

jsonschema = pytest.importorskip("jsonschema")

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "shufflesc" / "fixtures"

#: values a key is retyped to: other JSON types, and values at the edges
#: of the schemas' ranges
RETYPED = [None, True, 0, -1, 2.5, "", "x", [], [""], [0], [1, 1], ["a", True, 9], {},
           {"x": 1}]


def schema(name: str) -> dict:
    return json.loads(res.files("shufflesc").joinpath(f"schemas/{name}").read_text())


def object_paths(doc, path=()):
    """The path to every JSON object in doc, the document itself first."""
    if isinstance(doc, dict):
        yield path
        for key, value in doc.items():
            yield from object_paths(value, (*path, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from object_paths(value, (*path, i))


@st.composite
def mutated(draw, docs):
    """A copy of one of docs with one key of one object dropped, added or
    retyped."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    target = reduce(getitem, draw(st.sampled_from(list(object_paths(doc)))), doc)
    op = draw(st.sampled_from(["drop", "add", "retype"]))
    if op == "add" or not target:
        target["extra"] = draw(st.sampled_from(RETYPED))
    else:
        key = draw(st.sampled_from(sorted(target)))
        if op == "drop":
            del target[key]
        else:
            target[key] = draw(st.sampled_from(RETYPED))
    return doc


def refused_by(doc, name: str) -> bool:
    return not jsonschema.Draft202012Validator(schema(name)).is_valid(doc)


REPORTS = [
    bfs_reach(2, 2).to_dict(),
    bfs_reach(3, 3, load_letters(FIXTURES / "letters_3x3.json"), max_generations=2).to_dict(),
]
DFAS = [json.loads((FIXTURES / "witness_2x2_left.json").read_text())]
CERTIFICATES = [certify(2, 2).to_dict()]


@pytest.mark.parametrize("docs, name", [
    (REPORTS, "reach_report.schema.json"), (DFAS, "dfa.schema.json"),
    (CERTIFICATES, "certificate.schema.json"),
], ids=["report", "dfa", "certificate"])
def test_unmutated_documents_are_valid(docs, name):
    for doc in docs:
        assert not refused_by(doc, name)


@settings(max_examples=300, deadline=None)
@given(doc=mutated(REPORTS))
def test_reach_report_loader_refuses_what_the_schema_refuses(doc):
    if refused_by(doc, "reach_report.schema.json"):
        with pytest.raises(ValueError):
            ReachReport.from_dict(doc)


@settings(max_examples=300, deadline=None)
@given(doc=mutated(DFAS))
def test_dfa_loader_refuses_what_the_schema_refuses(doc):
    if refused_by(doc, "dfa.schema.json"):
        with pytest.raises(FormatError):
            dfa_from_dict(doc)


@settings(max_examples=200, deadline=None)
@given(doc=mutated(CERTIFICATES))
def test_certificate_loader_refuses_what_the_schema_refuses(doc):
    """The refusal may come from from_dict or from the verifier."""
    if refused_by(doc, "certificate.schema.json"):
        try:
            cert = Certificate.from_dict(doc)
        except ValueError:
            return
        assert not verify_certificate(cert)
