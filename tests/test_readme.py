"""The README's library quick start runs as documented."""

import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_library_quick_start_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "<MonadSepWitness for <Monad group monad trivial Z/2 on C1>>",
        "<SepWitness for <Functor U: (C1)^Z/2 → C1>>"]
