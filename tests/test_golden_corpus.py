"""Every output in `tests/golden/corpus/` stays byte-identical.

`tests/golden/regen.py` lists the cases and invocations and rewrites the
corpus; a change to any file in it changes a verdict, a report or a trace.
"""

import pytest

from golden import regen


@pytest.mark.parametrize("name", sorted(regen.MODELS))
def test_outputs_match_corpus(name, tmp_path):
    expected = {f.name: f.read_bytes()
                for f in (regen.CORPUS / name).iterdir()
                if f.name not in regen.INPUTS}
    got = {fname: text.encode("utf-8")
           for fname, text in regen.render(name, tmp_path).items()}
    assert sorted(got) == sorted(expected)
    for fname in sorted(expected):
        assert got[fname] == expected[fname], fname
