"""tools/source_stats.py on synthetic modules: one below the parser's
4,096-token step and one at it (comments and blank lines are not parser
tokens, and only the second module is marked), and the per-module token
change from a git revision of a scratch checkout."""

import importlib.util
import os
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "source_stats", os.path.join(ROOT, "tools", "source_stats.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_modules_at_the_token_step_are_marked(tmp_path):
    tool = load_tool()
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


def test_token_changes_from_a_revision(tmp_path):
    tool = load_tool()
    package = tmp_path / "src" / "thermowave"
    package.mkdir(parents=True)

    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                        "-c", "user.email=t@t", *args], check=True, capture_output=True)
    git("init", "-q")
    (package / "kept.py").write_text("x = 1  # 4 tokens + ENDMARKER\n")
    (package / "gone.py").write_text("y = 2\n")
    (package / "notes.txt").write_text("not a module\n")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (package / "kept.py").write_text("x = 1\n\n# comment\nz = x + 1\n")  # + 6 tokens
    (package / "gone.py").unlink()
    (package / "new.py").write_text("w = 3\n")
    lines = [line.split() for line in tool.token_changes("HEAD", root=str(tmp_path))]
    assert lines == [["gone.py", "5", "->", "0", "tokens", "(-5)"],
                     ["kept.py", "5", "->", "11", "tokens", "(+6)"],
                     ["new.py", "0", "->", "5", "tokens", "(+5)"]]
