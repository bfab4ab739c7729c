"""Code lines of src/entrokit: per module and in total, with `wc -l` beside them.

A code line holds a token other than a comment; blank lines and
docstrings (of modules, classes and functions) do not count.

    python tools/code_lines.py            # the working tree
    python tools/code_lines.py HEAD^1     # any git revision, read through git show
"""

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

PACKAGE = "src/entrokit"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(src: str) -> int:
    """Lines of src holding a token other than a comment, docstring lines left out."""
    docs = set()
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, SCOPES) and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant) \
                and isinstance(node.body[0].value.value, str):
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def sources(rev: str | None) -> dict[str, str]:
    """Path -> text of each src/entrokit/*.py, in the working tree or at git revision rev."""
    if rev is None:
        return {str(p): p.read_text(encoding="utf-8") for p in sorted(Path(PACKAGE).glob("*.py"))}

    def git(*args):
        return subprocess.run(["git", *args], check=True, capture_output=True,
                              text=True, encoding="utf-8").stdout

    names = sorted(n for n in git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
                   if n.endswith(".py"))
    return {f"{PACKAGE}/{n}": git("show", f"{rev}:{PACKAGE}/{n}") for n in names}


def main(argv) -> int:
    rev = argv[0] if argv else None
    print(f"{'code':>6} {'wc -l':>6}  module" + (f" at {rev}" if rev else ""))
    total_code = total_wc = 0
    for path, src in sources(rev).items():
        n_code, n_wc = code_lines(src), src.count("\n")
        total_code, total_wc = total_code + n_code, total_wc + n_wc
        print(f"{n_code:>6} {n_wc:>6}  {path}")
    print(f"{total_code:>6} {total_wc:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
