import io
import json

import numpy as np
import pytest

from framekit import constructions as cons
from framekit import serialization as ser
from framekit.errors import BadParam
from framekit.frame import Frame

from oracles import read_matrix_csv


def test_json_round_trip_bit_identical():
    for k in range(500):
        cplx = k % 2 == 1
        n = 2 + k % 3
        m = 1 + k % 5
        f = cons.random_unit(n, m, 70000 + k, field="complex" if cplx else "real")
        text = ser.frame_to_json(f)
        g = ser.doc_to_frame(json.loads(text))
        assert g.field == f.field
        assert np.array_equal(g.vectors, f.vectors)  # exact, not approximate


def test_json_metadata():
    f = cons.simplex(2)
    doc = ser.frame_to_doc(f, name="simplex", construction={"kind": "simplex", "n": 2})
    assert doc["name"] == "simplex"
    assert doc["construction"]["kind"] == "simplex"
    assert ser.doc_to_frame(doc).m == 3


def test_complex_entries_are_pairs():
    f = cons.complex_eij_basis(2)
    doc = ser.frame_to_doc(f)
    entry = doc["vectors"][3][0]
    assert isinstance(entry, list) and len(entry) == 2


def test_malformed_documents():
    with pytest.raises(BadParam):
        ser.doc_to_frame({"field": "real", "n": 2})
    with pytest.raises(BadParam):
        ser.doc_to_frame({"field": "real", "n": 2, "vectors": [[1.0]]})
    with pytest.raises(BadParam):
        ser.doc_to_frame({"field": "octonion", "n": 1, "vectors": [[1.0]]})


@pytest.mark.parametrize("doc", [
    {"field": "real", "n": "abc", "vectors": [[1.0]]},
    {"field": "real", "n": "1", "vectors": [[1.0]]},
    {"field": "real", "n": 2.7, "vectors": [[1.0, 0.0]]},
    {"field": "real", "n": True, "vectors": [[1.0]]},
    {"field": "real", "n": 1e400, "vectors": [[1.0]]},
    {"field": "real", "n": 1, "vectors": 5},
    {"field": "real", "n": 1, "vectors": [5]},
    {"field": "real", "n": 1, "vectors": [[[1]]]},
    {"field": "real", "n": 1, "vectors": [["x"]]},
    {"field": "real", "n": 1, "vectors": [["1.0"]]},
    {"field": "real", "n": 1, "vectors": [[True]]},
    {"field": "real", "n": 1, "vectors": [[10 ** 400]]},
    {"field": "complex", "n": 1, "vectors": [[1]]},
    {"field": "complex", "n": 1, "vectors": [[[1, 2, 3]]]},
    {"field": "complex", "n": 1, "vectors": [[["a", 1]]]},
    {"field": [], "n": 1, "vectors": [[1.0]]},
    [1, 2], "frame", None,
])
def test_malformed_structure_raises_bad_param(doc):
    with pytest.raises(BadParam, match="malformed|unknown field"):
        ser.doc_to_frame(doc)


def test_write_read_stream():
    f = cons.epsilon_pair(0.25)
    buf = io.StringIO()
    ser.write_frame(f, buf, name="eps")
    buf.seek(0)
    g = ser.read_frame(buf)
    assert np.array_equal(g.vectors, f.vectors)


@pytest.mark.parametrize("cplx", [False, True])
def test_matrix_csv_round_trip(cplx):
    rng = np.random.default_rng(71)
    m = rng.standard_normal((3, 4))
    if cplx:
        m = m + 1j * rng.standard_normal((3, 4))
    buf = io.StringIO()
    ser.write_matrix_csv(m, buf)
    buf.seek(0)
    back = read_matrix_csv(buf)
    assert np.array_equal(back, m)  # shortest-round-trip decimals are exact


def test_frame_document_schema_fields():
    f = Frame.from_vectors(np.eye(2))
    doc = json.loads(ser.frame_to_json(f))
    assert set(doc) >= {"schema", "field", "n", "vectors"}
    assert doc["n"] == 2


def test_to_json_equals_json_dump_of_each_document():
    # the two renderings it replaces: cli's dumps + newline, and write_frame's
    # json.dump to a stream + newline
    f = cons.random_unit(3, 4, 9, field="complex")
    for doc in (ser.frame_to_doc(f, name="r", construction={"kind": "random_unit"}),
                {"command": "verify", "rows": [{"x": 1.5, "y": None}], "failures": 0}):
        assert ser.to_json(doc) == json.dumps(doc, indent=2) + "\n"
        buf = io.StringIO()
        json.dump(doc, buf, indent=2)
        assert ser.to_json(doc) == buf.getvalue() + "\n"
    out = io.StringIO()
    ser.write_frame(f, out, name="r")
    assert out.getvalue() == ser.frame_to_json(f, name="r") == ser.to_json(
        ser.frame_to_doc(f, name="r"))
