"""Print, for each module of ``src/quadconc`` and in total, the ``wc -l``
count, the code lines (lines holding a token outside docstrings and
comments) and the docstring lines; then the same totals for ``tests/`` and
``perfbench/``, so a move between them reads on both sides.  Run
``python tools/loc.py``."""

import ast
import pathlib
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}
OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(path: pathlib.Path) -> tuple[int, int, int]:
    text = path.read_text(encoding="utf-8")
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, OWNERS) and ast.get_docstring(node) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    with path.open("rb") as fh:
        code = {row for tok in tokenize.tokenize(fh.readline) if tok.type not in SKIP
                for row in range(tok.start[0], tok.end[0] + 1)}
    return text.count("\n"), len(code - docs), len(docs)


def line(name: str, row) -> None:
    print(f"{name:<18}{row[0]:>7}{row[1]:>7}{row[2]:>7}")


def total(paths) -> list[int]:
    return [sum(column) for column in zip((0, 0, 0), *map(counts, paths))]


def main() -> None:
    repo = pathlib.Path(__file__).resolve().parent.parent
    modules = sorted((repo / "src" / "quadconc").glob("*.py"))
    line("module", ("wc -l", "code", "doc"))
    for path in modules:
        line(path.name, counts(path))
    line("total", total(modules))
    for tree in ("tests", "perfbench"):
        line(f"{tree}/ total", total(sorted((repo / tree).glob("*.py"))))


if __name__ == "__main__":
    main()
