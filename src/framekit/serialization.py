"""JSON frame documents, and CSV output of bare matrices.

JSON is the only input format, because frames need field metadata.  CSV
is only written (``analyze --gram-csv``): a bare matrix, row-major, complex
split into re/im column pairs.  Floats are written as shortest-round-trip
decimals, so both formats carry every bit.
"""

import json

import numpy as np

from .errors import BadParam
from .frame import COMPLEX, REAL, Frame

SCHEMA_VERSION = "framekit/1"


def frame_to_doc(f: Frame, name=None, construction=None) -> dict:
    if f.field == COMPLEX:
        vectors = [[[float(z.real), float(z.imag)] for z in row] for row in f.vectors]
    else:
        vectors = [[float(x) for x in row] for row in f.vectors]
    doc = {"schema": SCHEMA_VERSION, "field": f.field, "n": f.n, "vectors": vectors}
    if name is not None:
        doc["name"] = name
    if construction is not None:
        doc["construction"] = construction
    return doc


def doc_to_frame(doc: dict) -> Frame:
    """The frame of a JSON document; BadParam for any malformed document."""
    try:
        field = doc["field"]
        n = doc["n"]
        raw = doc["vectors"]
    except (KeyError, TypeError) as exc:
        raise BadParam(f"malformed frame document: {exc}") from exc
    if not isinstance(n, int) or isinstance(n, bool):
        raise BadParam(f"malformed frame document: n = {json.dumps(n)} is not an integer")
    if field not in (REAL, COMPLEX):
        raise BadParam(f"unknown field {field!r}")
    if not isinstance(raw, list):
        raise BadParam("malformed frame document: vectors must be a list of rows")
    rows = []
    for row in raw:
        if not isinstance(row, list):
            raise BadParam(f"malformed frame document: vector {json.dumps(row)} is not a list")
        if len(row) != n:
            raise BadParam(f"vector of length {len(row)} in a dimension-{n} document")
        try:
            if field == COMPLEX:
                rows.append([complex(*_pair(z)) for z in row])
            else:
                rows.append([_number(x) for x in row])
        except (TypeError, OverflowError) as exc:
            raise BadParam(f"malformed frame document: {exc}") from exc
    return Frame(field=field, vectors=np.array(rows))


def is_number(x) -> bool:
    """Whether a parsed JSON value is a number (a bool is not)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _number(x) -> float:
    """A JSON number as a float; TypeError for anything else, strings
    included, which float() would parse."""
    if not is_number(x):
        raise TypeError(f"entry {json.dumps(x)} is not a number")
    return float(x)


def _pair(z) -> tuple:
    """A complex entry [re, im] as two floats."""
    if not (isinstance(z, list) and len(z) == 2):
        raise TypeError(f"complex entry {json.dumps(z)} is not a pair [re, im]")
    return _number(z[0]), _number(z[1])


def to_json(doc: dict) -> str:
    """The JSON text of a document: indent 2, then a newline."""
    return json.dumps(doc, indent=2) + "\n"


def write_frame(f: Frame, fp, **meta) -> None:
    fp.write(frame_to_json(f, **meta))


def read_frame(fp) -> Frame:
    return doc_to_frame(json.load(fp))


def frame_to_json(f: Frame, **meta) -> str:
    return to_json(frame_to_doc(f, **meta))


def write_matrix_csv(matrix, fp) -> None:
    """Row-major CSV; complex matrices get paired c{j}_re, c{j}_im columns."""
    import csv  # only analyze --gram-csv writes CSV

    m = np.asarray(matrix)
    writer = csv.writer(fp)
    if np.iscomplexobj(m):
        header = []
        for j in range(m.shape[1]):
            header += [f"c{j}_re", f"c{j}_im"]
        writer.writerow(header)
        for row in m:
            flat = []
            for z in row:
                flat += [repr(float(z.real)), repr(float(z.imag))]
            writer.writerow(flat)
    else:
        writer.writerow([f"c{j}" for j in range(m.shape[1])])
        for row in m:
            writer.writerow([repr(float(x)) for x in row])
