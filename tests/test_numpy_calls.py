"""The engine calls numpy's C entry points, not its Python-level wrappers.

A step of the 100-DO compare preset is mostly fixed cost per numpy call.
Each of numpy's `fromnumeric` wrappers forwards to the ndarray method, and a
boolean `.any()`/`.all()` reduces through a ufunc; isolated at n = 100, in
microseconds per call (2-core host, one BLAS thread):

    np.argsort       1.95    .argsort           0.96
    np.cumsum        1.97    .cumsum            0.99
    np.take          1.26    .take              0.38
    np.compress      1.58    .compress          0.69
    np.repeat        1.32    .repeat            0.64
    np.searchsorted  1.43    .searchsorted      0.65
    np.flatnonzero   1.23    .nonzero()[0]      0.28
    bool .any()      0.99    np.count_nonzero   0.30

So `src/aflsim` calls the methods, and tests a whole array with
`np.count_nonzero(x)` (any) or `np.count_nonzero(x) < len(x)` (all).  A
reduction along an axis stays a method: `np.count_nonzero(x, axis=1)` is
Python-level, so a row count is `.sum(axis=1)` on the boolean.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "aflsim"
WRAPPERS = frozenset({"argsort", "cumsum", "take", "compress", "repeat", "searchsorted", "flatnonzero", "any", "all"})


def wrapper_calls(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, use) of each `np.<wrapper>` in `tree`, called or passed as a
    value (say, to `map`), and each argument-free `.any()` or `.all()`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "np":
            if node.attr in WRAPPERS:
                found.append((node.lineno, f"np.{node.attr}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = node.func.attr
            if name in ("any", "all") and not node.args and not node.keywords:
                found.append((node.lineno, f".{name}()"))
    return sorted(found)


def test_the_guard_finds_each_kind_of_call():
    source = (
        "np.argsort(x)\nnp.any(x, axis=1)\nx.all()\nx.any(axis=0)\nx.argsort()\nany(x)\nnp.count_nonzero(x)\n"
        "map(np.flatnonzero, rows)\n"
    )
    assert wrapper_calls(ast.parse(source)) == [
        (1, "np.argsort"), (2, "np.any"), (3, ".all()"), (8, "np.flatnonzero"),
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_src_calls_no_numpy_wrapper(path):
    found = wrapper_calls(ast.parse(path.read_text(), filename=str(path)))
    assert not found, "\n".join(f"{path.name}:{line}: {call}" for line, call in found)
