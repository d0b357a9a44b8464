"""The text path against its committed snapshot: every word's tag, lemma
and prop, every sentence's parse record and every document vector, over
a corpus built from text already in this repository
(``tools/text_snapshot.py``).  Any change to one value fails; floats
compare exactly, with NaN equal to NaN."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "text_snapshot.py"


@pytest.fixture(scope="module")
def snap():
    spec = importlib.util.spec_from_file_location("text_snapshot", _PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_header_unchanged(snap):
    head, _ = snap.load()
    assert snap.same(snap.as_json(snap.header()), head)


def test_every_record_unchanged(snap):
    _, recs = snap.load()
    assert len(recs) > 1000
    changed = []
    for rec in recs:
        live = snap.as_json(snap.record(rec["text"]))
        for part in ("words", "parses", "doc"):
            if not snap.same(live[part], rec[part]):
                changed.append((rec["src"], rec["text"][:60], part))
    assert not changed, f"{len(changed)} changed, first: {changed[:5]}"

