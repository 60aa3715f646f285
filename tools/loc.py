"""Print, for each module of ``src/quadconc`` and in total, the ``wc -l``
count, the code lines (lines holding a token outside docstrings and
comments) and the docstring lines.  Run ``python tools/loc.py``."""

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


def main() -> None:
    root = pathlib.Path(__file__).resolve().parent.parent / "src" / "quadconc"
    total = [0, 0, 0]
    print(f"{'module':<18}{'wc -l':>7}{'code':>7}{'doc':>7}")
    for path in sorted(root.glob("*.py")):
        row = counts(path)
        total = [a + b for a, b in zip(total, row)]
        print(f"{path.name:<18}{row[0]:>7}{row[1]:>7}{row[2]:>7}")
    print(f"{'total':<18}{total[0]:>7}{total[1]:>7}{total[2]:>7}")


if __name__ == "__main__":
    main()
