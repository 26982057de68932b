"""Print the size of the package source three ways.

Physical lines change with layout alone; logical lines (``tokenize``
NEWLINE tokens) and AST statements do not, so a change that only
reformats code leaves the last two as they were.

Run from the repository root:  python tests/src_size.py [PACKAGE_DIR]
(default src/iotsla).
"""

import ast
import sys
import tokenize
from pathlib import Path


def sizes(package: Path) -> dict[str, int]:
    physical = logical = statements = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_bytes()
        physical += len(source.splitlines())
        with path.open("rb") as handle:
            logical += sum(token.type == tokenize.NEWLINE
                           for token in tokenize.tokenize(handle.readline))
        statements += sum(isinstance(node, ast.stmt) for node in ast.walk(ast.parse(source)))
    return {"physical_lines": physical, "logical_lines": logical, "ast_statements": statements}


if __name__ == "__main__":
    package = Path(sys.argv[1] if len(sys.argv) > 1 else "src/iotsla")
    for name, value in sizes(package).items():
        print(f"{name} {value}")
