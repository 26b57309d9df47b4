"""Each loader refuses every document its shipped JSON Schema refuses.

A valid document is mutated by dropping, adding or retyping one key of one
of its JSON objects; wherever jsonschema refuses the result, the loader
must refuse it too. A loader may refuse more than its schema does. The
letters file and the checkpoint header have no schema, so each of their
mutations must be refused."""

import copy
import importlib.resources as res
import json
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from shufflesc.automata import FormatError, dfa_from_dict
from shufflesc.reach import (
    Certificate, CheckpointError, ReachReport, bfs_reach, certify, load_letters,
    read_checkpoint, verify_certificate,
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


with tempfile.TemporaryDirectory() as tmp:
    bfs_reach(2, 2, checkpoint_dir=tmp, max_generations=1)
    CHECKPOINT = (Path(tmp) / "gen-000001.ckpt").read_bytes()
HEADERS = [json.loads(CHECKPOINT[:CHECKPOINT.index(b"\n")])]
LETTERS = [json.loads((FIXTURES / "letters_3x3.json").read_text())]


def read_with_header(header: dict):
    """read_checkpoint of the 2x2 generation-1 checkpoint with its header
    line rewritten to header and its body kept."""
    body = CHECKPOINT[CHECKPOINT.index(b"\n"):]
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "gen-000001.ckpt").write_bytes(json.dumps(header, sort_keys=True).encode()
                                                    + body)
        (Path(tmp) / "LATEST").write_text("gen-000001.ckpt\n")
        return read_checkpoint(tmp, 2, 2, "full")


def test_unmutated_header_and_letters_load():
    assert read_with_header(HEADERS[0])[0] == 1
    assert len(load_letters(FIXTURES / "letters_3x3.json")) == len(LETTERS[0])


@settings(max_examples=200, deadline=None)
@given(header=mutated(HEADERS))
def test_checkpoint_header_mutations_refused(header):
    assume(header != HEADERS[0])
    with pytest.raises(CheckpointError):
        read_with_header(header)


@settings(max_examples=200, deadline=None)
@given(letters=mutated(LETTERS))
def test_letters_file_mutations_refused(letters):
    """A dropped or added key is refused by load_letters, a retyped value
    by load_letters or by bfs_reach, which refuses a letter of the wrong
    degree, such as one with s = [1, 1]."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "letters.json"
        path.write_text(json.dumps(letters))
        try:
            loaded = load_letters(path)
        except ValueError:
            return
    assert all(set(letter) == {"s", "t"} for letter in letters)
    with pytest.raises(ValueError):
        bfs_reach(3, 3, loaded, max_generations=0)
