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
