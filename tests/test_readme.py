"""README's Library block runs, and shows what it computes."""

import ast
import io
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_block_runs_as_shown():
    # every expression line carries the repr of its value as a comment
    source = library_block()
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    namespace = {}
    checked = 0
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert repr(value) == comments.pop(node.end_lineno), ast.unparse(node)
            checked += 1
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert checked == 5 and not comments
