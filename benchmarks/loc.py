"""Code lines in ``src/`` and ``tests/``: no blank line, no comment, no
docstring.

A line counts when a token other than a comment or a docstring starts or
continues on it. A docstring is a string literal that is a statement by
itself (the module's, a class's or a function's, or a bare string
anywhere else); every line it spans is left out. Standard library only
(``tokenize``), so it runs anywhere the tree does::

    python benchmarks/loc.py [ROOT]

prints ``src`` and ``tests`` with their code-line counts, and the files
of each, for the tree at ``ROOT`` (by default the one this file is in).
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

#: Tokens that are layout, not code.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
#: Tokens after which a new statement starts.
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """Code lines of one Python file."""
    with path.open("rb") as handle:
        tokens = [
            tok
            for tok in tokenize.tokenize(handle.readline)
            if tok.type not in (tokenize.NL, tokenize.COMMENT)
        ]
    lines: set[int] = set()
    previous = tokenize.ENCODING
    for index, tok in enumerate(tokens):
        if tok.type not in _LAYOUT:
            following = tokens[index + 1].type if index + 1 < len(tokens) else tokenize.ENDMARKER
            is_docstring = (
                tok.type == tokenize.STRING
                and previous in _STATEMENT_START
                and following in (tokenize.NEWLINE, tokenize.ENDMARKER)
            )
            if not is_docstring:
                lines.update(range(tok.start[0], tok.end[0] + 1))
        previous = tok.type
    return len(lines)


def count(directory: Path) -> tuple[int, int]:
    """(code lines, files) over every ``*.py`` under ``directory``."""
    files = sorted(directory.rglob("*.py"))
    return sum(code_lines(path) for path in files), len(files)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    for name in ("src", "tests"):
        lines, files = count(root / name)
        print(f"{name:6} {lines:7d} code lines in {files} files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
