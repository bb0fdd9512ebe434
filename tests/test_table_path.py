"""One table path: every group up to the enumeration cap gets its
multiplication table and every check runs on it; above the cap the table
raises and the runner records a skip.  Only ``normal_closure`` keeps a
second path, on the stabilizer chain, above ``DEFAULT_TABLE_CAP``."""

import hashlib

import numpy as np
import pytest

from grouplab.corpus import NamedGroup, builtin_corpus, symmetric
from grouplab.errors import EnumerationCapError
from grouplab.groups import Group
from grouplab.runner import run_corpus
from grouplab.solubility import is_soluble

MID_SIZE = ("C18xS5", "C27xC3^4", "D18xS5")


def test_table_exists_exactly_up_to_the_enumeration_cap():
    S4 = symmetric(4)
    tbl = S4.table()
    assert isinstance(tbl, np.ndarray) and tbl.shape == (24, 24)
    capped = Group(S4.degree, S4.generators, enum_cap=10)
    with pytest.raises(EnumerationCapError):
        capped.table()
    report = run_corpus([NamedGroup("S4", capped)], ["main"])
    assert report.records and report.skipped == len(report.records)
    assert all(r.status.startswith("skipped:") for r in report.records)


def test_soluble_check_of_s7_builds_no_element_data():
    G = symmetric(7)
    assert not is_soluble(G)
    assert G._table is None and G._elements is None


def test_mid_size_main_report_digest():
    """The main check on groups of order 2049-2200, between
    DEFAULT_TABLE_CAP and the enumeration cap, pinned by the digest of the
    rendered report."""
    corpus = [ng for ng in builtin_corpus(2200) if ng.name in MID_SIZE]
    assert sorted(ng.name for ng in corpus) == sorted(MID_SIZE)
    text = run_corpus(corpus, ["main"]).render()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c3f630db40ecced1f06020c0937dd38a14e994a97b1c81aaeb18f442e5bf923c"
    )
