"""Line and parser-token counts of thermowave's modules.

Usage (from anywhere):

    python3 tools/source_stats.py [REV]

For each ``src/thermowave/*.py`` of this checkout it prints the line count
and the parser tokens: the ``tokenize`` tokens without COMMENT and NL,
which the parser never sees.  It marks with ``*`` every module of
``TOKEN_STEP`` tokens or more.  CPython's parser doubles its token array
there, so compiling such a module takes about 230 KB more transient
memory; that read +0.04 to +0.07 MB on ``perfbench``'s ``peak_rss_mb``,
whose bound is 0.1 MB, because the benchmark writes no bytecode cache and
so parses every module in each process.  Given a git revision REV, it also
prints the net change in the lines of ``src/`` Python files, from REV to
the working tree, and each module's parser tokens at REV and now, with the
change (a module missing on one side counts 0 there).
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOKEN_STEP = 4096


def parser_tokens(text: str) -> int:
    """The tokens of ``text`` that the parser reads."""
    return sum(tok.type not in (tokenize.COMMENT, tokenize.NL)
               for tok in tokenize.generate_tokens(io.StringIO(text).readline))


def _modules(directory: str) -> dict:
    """name -> text of every ``*.py`` in ``directory``."""
    out = {}
    for name in os.listdir(directory):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as f:
                out[name] = f.read()
    return out


def report(directory: str) -> list:
    """One line per ``*.py`` in ``directory``, in name order: its lines and
    parser tokens, marked ``*`` at ``TOKEN_STEP`` tokens or more; then the
    totals."""
    out, total_lines, total_tokens = [], 0, 0
    for name, text in sorted(_modules(directory).items()):
        lines, tokens = text.count("\n"), parser_tokens(text)
        mark = "  *" if tokens >= TOKEN_STEP else ""
        out.append(f"{name:<20} {lines:>6} lines {tokens:>7} tokens{mark}")
        total_lines, total_tokens = total_lines + lines, total_tokens + tokens
    out.append(f"{'total':<20} {total_lines:>6} lines {total_tokens:>7} tokens; "
               f"* = {TOKEN_STEP} or more")
    return out


def _git(*args, root: str = ROOT) -> str:
    return subprocess.run(["git", "-C", root, *args], check=True, capture_output=True,
                          text=True).stdout


def src_lines_at(rev: str) -> int:
    """Lines of the ``src/`` Python files at git revision ``rev``."""
    return sum(_git("show", f"{rev}:{path}").count("\n")
               for path in _git("ls-tree", "-r", "--name-only", rev, "--", "src").split()
               if path.endswith(".py"))


def token_changes(rev: str, root: str = ROOT) -> list:
    """One line per module of ``src/thermowave`` at git revision ``rev`` or
    in the working tree of the checkout ``root``, in name order: its parser
    tokens at ``rev`` and now, and the change."""
    package = "src/thermowave/"
    before = {path[len(package):]: parser_tokens(_git("show", f"{rev}:{path}", root=root))
              for path in _git("ls-tree", "--name-only", rev, "--", package, root=root).split()
              if path.endswith(".py")}
    after = {name: parser_tokens(text)
             for name, text in _modules(os.path.join(root, package)).items()}
    out = []
    for name in sorted(before.keys() | after.keys()):
        old, new = before.get(name, 0), after.get(name, 0)
        out.append(f"{name:<20} {old:>7} -> {new:>7} tokens ({new - old:+d})")
    return out


def src_lines() -> int:
    """Lines of the ``src/`` Python files in the working tree."""
    total = 0
    for folder, _, names in os.walk(os.path.join(ROOT, "src")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as f:
                    total += f.read().count("\n")
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", nargs="?", help="git revision to count src/ lines against")
    args = parser.parse_args(argv)
    print("\n".join(report(os.path.join(ROOT, "src", "thermowave"))))
    if args.rev:
        before, after = src_lines_at(args.rev), src_lines()
        print(f"src/ lines: {before} at {args.rev}, {after} now, net {after - before:+d}")
        print(f"parser tokens at {args.rev} and now:")
        print("\n".join(token_changes(args.rev)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
