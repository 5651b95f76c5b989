import io
import sys

import golden


def test_golden_exits_1_on_a_changed_line_unless_written(tmp_path, monkeypatch, capsys):
    """Without --write a changed line exits 1 and leaves the file alone;
    --write rewrites it and exits 0, after which nothing differs."""
    golden_file = tmp_path / "golden_x.jsonl"
    golden_file.write_text('{"a":1}\n{"b":2}\n')
    built = ['{"a":1}\n', '{"b":3}\n']
    monkeypatch.setattr(golden, "HERE", tmp_path)
    monkeypatch.setattr(golden, "_build", lambda tmp: {golden_file.name: built})
    assert golden.main([]) == 1
    assert golden_file.read_text() == '{"a":1}\n{"b":2}\n'
    assert "1 of 2 lines differ" in capsys.readouterr().out
    assert golden.main(["--write"]) == 0
    assert golden_file.read_text() == "".join(built)
    assert golden.main([]) == 0
    assert "0 of 2 lines differ" in capsys.readouterr().out.splitlines()[-1]


def test_golden_prints_the_source_line_count_first(tmp_path, monkeypatch, capsys):
    """The first line is the line count of src/semiabel/*.py, as wc -l
    counts it, ahead of the per-file verdicts."""
    monkeypatch.setattr(golden, "HERE", tmp_path)
    monkeypatch.setattr(golden, "_build", lambda tmp: {})
    assert golden.main([]) == 0
    n = sum(len(p.read_bytes().split(b"\n")) - 1 for p in golden.SRC.glob("*.py"))
    assert n > 0
    assert capsys.readouterr().out.splitlines()[0] == f"src/semiabel/*.py: {n} lines"


class _ClosedAfterOneLine(io.StringIO):
    """A stdout whose reader goes away after the first line, as `| head -1`."""

    def write(self, s):
        if "\n" in self.getvalue():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(s)


def test_golden_on_a_closed_pipe_keeps_the_work_and_the_status(tmp_path, monkeypatch):
    """A closed stdout stops the printing only: a changed line still exits
    1, and --write still rewrites every file and exits 0, with no traceback."""
    built = {"golden_x.jsonl": ['{"a":1}\n'], "golden_y.jsonl": ['{"b":2}\n']}
    for name in built:
        (tmp_path / name).write_text('{"z":0}\n')
    monkeypatch.setattr(golden, "HERE", tmp_path)
    monkeypatch.setattr(golden, "_build", lambda tmp: built)
    monkeypatch.setattr(sys, "stdout", _ClosedAfterOneLine())
    assert golden.main([]) == 1
    assert all((tmp_path / name).read_text() == '{"z":0}\n' for name in built)
    stdout = _ClosedAfterOneLine()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert golden.main(["--write"]) == 0
    for name, lines in built.items():
        assert (tmp_path / name).read_text() == "".join(lines)
    assert stdout.getvalue().startswith("src/semiabel/*.py: ")
    assert stdout.getvalue().count("\n") == 1
