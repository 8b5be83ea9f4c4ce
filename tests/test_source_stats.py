"""tools/source_stats.py on two synthetic modules, one below the parser's
4,096-token step and one at it: comments and blank lines are not parser
tokens, and only the second module is marked."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_modules_at_the_token_step_are_marked(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "source_stats", os.path.join(ROOT, "tools", "source_stats.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # 1,023 statements of 4 tokens each (NAME OP NUMBER NEWLINE), 4,092
    body = "x = 1  # a comment\n" * 1023
    (tmp_path / "below.py").write_text(body + "\n# a comment line\n")  # + ENDMARKER
    (tmp_path / "at.py").write_text(body + "-x\n")  # + OP NAME NEWLINE + ENDMARKER
    (tmp_path / "notes.txt").write_text("not a module\n")
    lines = [line.split() for line in tool.report(str(tmp_path))]
    assert lines[0] == ["at.py", "1024", "lines", "4096", "tokens", "*"]
    assert lines[1] == ["below.py", "1025", "lines", "4093", "tokens"]
    assert lines[2][:5] == ["total", "2049", "lines", "8189", "tokens;"]
    assert len(lines) == 3
