"""Count the code lines of the cellsim package, its public names and its config keys.

    python tools/src_size.py [SRC_DIR]

A code line is a physical line that holds a token other than a comment,
with docstrings (module, class and function) left out.  Prints one line per
module, the total, the length of ``cellsim.__all__`` and the number of
config keys, the annotated fields of ``scenario.ScenarioConfig``; both
counts are read from the source without importing it.  SRC_DIR defaults to
the ``src`` directory next to this script.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def public_names(package: Path) -> int:
    """``len(__all__)`` read from the package's ``__init__`` without importing it."""
    for node in ast.parse((package / "__init__.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return len(ast.literal_eval(node.value))
    return 0


def config_keys(package: Path) -> int:
    """The annotated fields of ``ScenarioConfig`` read from ``scenario.py`` without importing it."""
    for node in ast.parse((package / "scenario.py").read_text()).body:
        if isinstance(node, ast.ClassDef) and node.name == "ScenarioConfig":
            return sum(isinstance(item, ast.AnnAssign) for item in node.body)
    return 0


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    package = src / "cellsim"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:<16} {count:>5}")
    print(f"{'total':<16} {total:>5}")
    print(f"{'__all__ names':<16} {public_names(package):>5}")
    print(f"{'config keys':<16} {config_keys(package):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
