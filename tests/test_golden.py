"""Byte identity: a subset of tests/golden/digests.json recomputed.

The full corpus is `python tests/golden/digests.py --check`; this subset
keeps every target-only registry run (their JSON holds the budget's grid),
every witness record and the criterion-8 configs, and a stride of the CLI
and fuzz outputs.
"""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "digests", Path(__file__).with_name("golden") / "digests.py")
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)


def _in_subset(key, label):
    group, _, index = key.split("/")
    if group == "registry":
        return label.endswith(" target")
    if group in ("cli", "fuzz"):
        return int(index) % 5 == 0
    return True


def test_a_subset_of_the_golden_corpus_is_byte_identical():
    stored = digests.load()
    checked = 0
    for key, label, output in digests.corpus(stored["fuzz_cases"]):
        if not _in_subset(key, label):
            continue
        assert stored["digests"][key][1] == digests.digest(output), \
            digests.mismatch_message(stored, key, label)
        checked += 1
    assert checked >= 200
