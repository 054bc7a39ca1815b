"""Raw and code lines of each module under src/, and in total.

Code lines leave out blank lines, comment lines, and the module, class
and function docstrings, found by an `ast` walk. Standard library only.

    python tools/src_lines.py [SRC_DIR]
"""

import ast
import sys
from pathlib import Path

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The 1-based line numbers that docstrings span in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(raw lines, code lines) of one module."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text, str(path)))
    code = sum(1 for i, line in enumerate(lines, start=1)
               if line.strip() and not line.strip().startswith("#")
               and i not in docs)
    return len(lines), code


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else
                Path(__file__).resolve().parent.parent / "src")
    rows = [(str(p.relative_to(root)), *count(p))
            for p in sorted(root.rglob("*.py"))]
    width = max(len("total"), *(len(name) for name, _, _ in rows))
    print(f"{'module':<{width}}  {'raw':>6}  {'code':>6}")
    for name, raw, code in rows:
        print(f"{name:<{width}}  {raw:>6}  {code:>6}")
    print(f"{'total':<{width}}  {sum(r for _, r, _ in rows):>6}"
          f"  {sum(c for _, _, c in rows):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
