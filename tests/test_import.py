"""Importing eye2vec afresh must not keep earlier copies of it alive."""

import subprocess
import sys
import textwrap
from pathlib import Path

import eye2vec

REIMPORT = textwrap.dedent(
    """
    import gc, importlib, sys, weakref

    def ours():
        return [n for n in sys.modules if n == "eye2vec" or n.startswith("eye2vec.")]

    def fresh_ast_node():
        in_use = {name: sys.modules.pop(name) for name in ours()}
        try:
            return weakref.ref(importlib.import_module("eye2vec").AstNode)
        finally:
            for name in ours():
                del sys.modules[name]
            sys.modules.update(in_use)

    import eye2vec
    refs = [fresh_ast_node() for _ in range(3)]
    gc.collect()
    print(sum(ref() is not None for ref in refs))
    """
)


def test_fresh_copies_are_collected():
    # A typing.Union over package classes lands in typing's global cache,
    # which would keep every fresh copy of the package alive.
    src = str(Path(eye2vec.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{REIMPORT}"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert result.stdout.strip() == "0"
