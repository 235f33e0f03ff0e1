"""hypothesis's draws are a function of the test files alone: a literal
added to a local module, as to ``src/divball``, moves none of them."""

import importlib.util
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

NEW_FLOAT, NEW_INT = 0.123456789, 123456789


def draws():
    """The reprs of 300 derandomized float and integer draws."""
    drawn = []

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.floats(), st.integers())
    def record(x, k):
        drawn.append(repr((x, k)))

    record()
    return drawn


def test_a_new_local_literal_moves_no_draw(tmp_path, monkeypatch):
    before = draws()
    path = tmp_path / "new_literals.py"
    path.write_text(f"NEW_FLOAT = {NEW_FLOAT!r}\nNEW_INT = {NEW_INT!r}\n")
    spec = importlib.util.spec_from_file_location("new_literals", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setitem(sys.modules, "new_literals", module)
    after = draws()
    assert after == before
    assert not any(str(NEW_INT) in d or repr(NEW_FLOAT) in d for d in after)
