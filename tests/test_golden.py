"""The command line's output is pinned by the digests of
``tests/golden.json``, which ``devtools/golden.py --write`` regenerates."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "devtools" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_table_covers_every_case():
    assert sorted(golden.load()) == sorted(map(golden.key, golden.cases()))


def test_every_digest_matches():
    bad = golden.mismatches(golden.load(), golden.compute())
    assert not bad, "output changed for: " + "; ".join(bad)


def test_one_changed_character_is_caught(monkeypatch):
    """A listing with one tab turned into a space no longer matches."""
    argv = ["gk", "--q", "3", "--emit", "puregaps", "--format", "tsv"]
    run = golden.run

    def edited(args):
        code, text = run(args)
        return code, text.replace("\t", " ", 1)

    monkeypatch.setattr(golden, "run", edited)
    assert golden.digest(argv) != golden.load()[golden.key(argv)]
