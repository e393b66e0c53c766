"""Every command writes its summary as one line of JSON from the json
module's C encoder: stdout and `<command>.json` both hold
`json.dumps(summary) + "\\n"`, which `json.loads` reads back to the summary."""

import json

import navol.cli as cli
from navol.serialize import write_json


def test_every_command_writes_its_summary_as_one_line_of_json(tmp_path, capsys, monkeypatch):
    # every command on every bundled instance, with the summary each wrote
    written = []

    def spy(out_dir, filename, payload):
        written.append((filename, payload))
        return write_json(out_dir, filename, payload)

    monkeypatch.setattr(cli, "write_json", spy)
    out_dir = tmp_path / "out"
    for name, source in cli.bundled_instance_texts():
        path = tmp_path / name
        path.write_text(source, encoding="utf-8")
        for command in cli.COMMANDS:
            before = len(written)
            rc = cli.main([command, str(path), "--out-dir", str(out_dir)])
            out = capsys.readouterr().out
            # a wrong instance kind exits 3 and writes no summary
            assert len(written) == before + (rc in (0, 1)), (command, name, rc)
            if rc in (0, 1):
                filename, summary = written[before]
                text = json.dumps(summary) + "\n"
                assert out == text
                assert (out_dir / filename).read_text(encoding="utf-8") == text
                assert json.loads(text) == summary
    assert len(written) >= 30
