"""`serialize.write_json` writes the text `json.dumps(payload, indent=2)`
writes, plus a final newline, byte for byte."""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

import navol.cli as cli
from navol.serialize import write_json

# quotes, backslashes, control characters, non-ASCII and astral characters,
# mixed with any other character
TRICKY = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é",
                          " ", "\U0001F600"])
TEXT = st.text(TRICKY | st.characters(), max_size=12)
SCALARS = (st.none() | st.booleans() | TEXT
           | st.integers(-2 ** 80, 2 ** 80)
           | st.sampled_from([-0.0, 0.0, 1e-300, 1e300, 5e-324, 0.1,
                              float("inf"), float("nan")])
           | st.floats())
# rows of rows: list and tuple rows of strings, empty rows, and now and then
# a row holding a non-string
ROW = st.lists(TEXT, max_size=4)
ROWS = st.lists(ROW | ROW.map(tuple) | st.lists(TEXT | SCALARS, max_size=3), max_size=5)
PAYLOADS = st.recursive(
    SCALARS | ROWS,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.lists(TEXT, max_size=5)
                   | st.dictionaries(TEXT, TEXT, max_size=5)
                   | st.dictionaries(TEXT, inner, max_size=5)),
    max_leaves=30)


# a map of strings as large as `navol ma-solve`'s values map, and the same
# map with non-string values mixed in, which the writer takes entry by entry
STRING_MAP = {f"v{i}": f"{i}/{i % 7 + 1}" for i in range(1500)}
MIXED_MAP = {**STRING_MAP, "v750": ["1", 2, None], "passed": True}


@settings(max_examples=200)
@given(payload=PAYLOADS)
@example(payload=STRING_MAP)
@example(payload=MIXED_MAP)
@example(payload={"reports": [STRING_MAP, MIXED_MAP], "\u00e9\"": {"k\n": "\x00"}})
def test_write_json_matches_json_dumps(payload, tmp_path_factory):
    out = tmp_path_factory.getbasetemp() / "json-writer"
    text = write_json(str(out), "p.json", payload)
    assert text == json.dumps(payload, indent=2) + "\n"
    assert (out / "p.json").read_text(encoding="utf-8") == text


def test_every_command_summary_matches_json_dumps(tmp_path, capsys, monkeypatch):
    # every command on every bundled instance, with the payload and text each
    # summary was written from
    written = []

    def spy(out_dir, filename, payload):
        text = write_json(out_dir, filename, payload)
        written.append((payload, text))
        return text

    monkeypatch.setattr(cli, "write_json", spy)
    for name, source in cli.bundled_instance_texts():
        path = tmp_path / name
        path.write_text(source, encoding="utf-8")
        for command in cli.COMMANDS:
            before = len(written)
            rc = cli.main([command, str(path), "--out-dir", str(tmp_path / "out")])
            out = capsys.readouterr().out
            if rc in (0, 1):
                payload, text = written[before]
                assert text == json.dumps(payload, indent=2) + "\n"
                assert out == text
    assert len(written) >= 30
