import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gentlehh import fileformat
from gentlehh.fileformat import FormatError

GOOD = """
{
  "name": "wedge",
  "triangles": [
    [
      {"label": "e1", "kind": "boundary", "from": "1", "to": "2"},
      {"label": "e2", "kind": "boundary", "from": "2", "to": "3"},
      {"label": "d", "kind": "arc", "from": "3", "to": "1"}
    ],
    [
      {"label": "d", "kind": "arc", "from": "1", "to": "3"},
      {"label": "e3", "kind": "boundary", "from": "3", "to": "4"},
      {"label": "e4", "kind": "boundary", "from": "4", "to": "1"}
    ]
  ]
}
"""


def test_parse_good_document():
    data = fileformat.loads(GOOD)
    assert data.name == "wedge"
    assert len(data.triangles) == 2
    assert data.triangles[0].sides[2].kind == "arc"
    assert data.triangles[0].sides[2].src == "3"


def test_round_trip():
    data = fileformat.loads(GOOD)
    assert fileformat.loads(fileformat.dumps(data)) == data


def test_extra_keys_ignored():
    import json
    doc = json.loads(GOOD)
    doc["expected"] = {"anything": 1}
    doc["notes"] = ["kept out of the parser's way"]
    assert fileformat.parse_triangulation(doc).name == "wedge"


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.pop("name"), "name"),
    (lambda d: d.update(name=""), "name"),
    (lambda d: d.update(triangles=[]), "triangles"),
    (lambda d: d["triangles"][0].pop(), "three sides"),
    (lambda d: d["triangles"][0][0].pop("label"), "missing key"),
    (lambda d: d["triangles"][0][0].update(kind="edge"), "kind"),
    (lambda d: d["triangles"][0][0].update({"from": ""}), "non-empty"),
    (lambda d: d.update(name="\ud800"), "Unicode"),
    (lambda d: d["triangles"][0][0].update(label="e\udfff"), "Unicode"),
    (lambda d: d["triangles"][1][2].update({"from": "\u00e9\udc00"}), "Unicode"),
    (lambda d: d["triangles"][1][2].update(to="\udbff4"), "Unicode"),
])
def test_malformed_documents_rejected(mutate, fragment):
    doc = json.loads(GOOD)
    mutate(doc)
    with pytest.raises(FormatError) as err:
        fileformat.parse_triangulation(doc)
    assert fragment in str(err.value)


def test_invalid_json_rejected():
    # an integer literal past the interpreter's 4300-digit limit, too
    for text in ("{not json", "[" * 200000, '{"name": 1%s}' % ("0" * 5000)):
        with pytest.raises(FormatError):
            fileformat.loads(text)


def test_escaped_surrogate_pairs_are_text():
    # a pair of escapes is one astral character; only a lone half is rejected
    text = GOOD.replace('"wedge"', '"w\\ud83d\\ude00 \\u00e9"')
    assert fileformat.loads(text).name == "w\U0001f600 \u00e9"


def test_load_and_dump_file(tmp_path):
    data = fileformat.loads(GOOD)
    path = tmp_path / "wedge.json"
    fileformat.dump_file(data, path)
    assert fileformat.load_file(path) == data


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=20)


@given(JSON_VALUES)
def test_indented_json_is_the_standard_indent_2_text(value):
    assert fileformat.indented_json(value) == json.dumps(value, indent=2)
