"""The mutation battery (tests/mutants.py) still applies to the code."""
import mutants


def test_every_old_text_occurs_once():
    counts = {name: (mutants.ROOT / file).read_text().count(old)
              for name, file, old, _, _ in mutants.MUTANTS}
    assert len(counts) == len(mutants.MUTANTS)  # unique names
    assert {name: n for name, n in counts.items() if n != 1} == {}
