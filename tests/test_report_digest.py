"""Rendered reports of fixed corpora are pinned by digest.

Reports carry no timing, so a refactor that keeps every answer and every
witness leaves these digests unchanged.  A change that alters a report on
purpose must say why and update the digest.
"""

import hashlib

import pytest

from grouplab.corpus import builtin_corpus
from grouplab.runner import run_corpus

DIGESTS = {
    (24, "lemmas"): "1508cb01c7b73783213499cfc791c3c3aabe59fd6f68398a428665d7794890c6",
    (64, "lemmas"): "2c2ebe486cc0d1432f3de83e313376f3ad2b5850bef38b9b3562f8c406019979",
    (60, "main"): "b9e0b2cde02db91ecd589734d9f12b4460c4eacfda54e73b4e83b74cc62ddc72",
    (60, "corollaries"): "68418b8d6542ccc6e7c5f0dfea62e6117f2317bd6713c6fac4fb4cd1360fae2a",
    (60, "srinivasan"): "96c672626b919946156d327cf8f8eeccfe201128a779c7cbc664eda153da9efc",
    (120, "main"): "aadcf6a5bbd99f0ff2041933f50fb99f2f3b1f6da0e86f2a5848f9b5c02d2760",
    (120, "corollaries"): "5ec8b144d453673e6dc0e744600877a586fe8633252805afd2107b43bd45edce",
    (120, "srinivasan"): "9e04f85a9406b9781f3e3b1a20a5585d6b07cd0d3b8e1d4d782954d0f496d8cf",
}


@pytest.mark.parametrize("max_order,check", sorted(DIGESTS))
def test_rendered_report_digest(max_order, check):
    text = run_corpus(builtin_corpus(max_order), [check]).render()
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[max_order, check]


MAIN_MODE_DIGESTS = {
    "forall": "b9e1717e144fb19c1df520158a6434b00a244c1e21826f42243b1785cd78444f",
    "canonical": "82debfe032f2989694060a9e6a2fd3def6d3e0567e73e1f7fea7d65fa8e265c0",
}


@pytest.mark.parametrize("mode", sorted(MAIN_MODE_DIGESTS))
def test_main_mode_report_digest(mode):
    """The main check's other two modes over corpus 120 (``exists`` is
    pinned above); each prints maximal-subgroup witness text of its own."""
    text = run_corpus(builtin_corpus(120), ["main"], mode=mode).render()
    assert hashlib.sha256(text.encode()).hexdigest() == MAIN_MODE_DIGESTS[mode]


LEMMA_2_3_FALLBACK_DIGEST = (
    "3d0e6471c0372d0aa5e28b887c63902bc9444dd561dabe5938c8f323873bddda"
)


def test_lemma_2_3_fallback_report_digest():
    """Groups of order 25-64 above a lattice cap of 24: lemma 2.3 draws its
    p-subgroups from the lattices of the Sylow representatives."""
    corpus = [ng for ng in builtin_corpus(64) if ng.group.order() >= 25]
    report = run_corpus(corpus, ["lemma-2.3"], lattice_cap=24)
    assert len(corpus) == 259
    assert sum(r.witnesses.get("sampled", False) for r in report.records) == 175
    text = report.render()
    assert hashlib.sha256(text.encode()).hexdigest() == LEMMA_2_3_FALLBACK_DIGEST
