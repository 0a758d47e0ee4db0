"""The quick same-answers digest of `tests/digest.py`, pinned.

A digest changes only when an answer, a witness, a tie-break or a count is
meant to change, and the change then says why, as for the golden hashes.
"""

from digest import digests

QUICK = {
    "regret_report": "7a278e397633dc6f385033310a3f3e4b8ac2401d52cdef816b66f9f91df1c1df",
    "induced_two_prover": "9e7eb34afd2ea91a8a81b243b158874b699e7164322046d5a13a97435ac1588f",
    "lmm_best_welfare": "6e388a125721858c5d0147c67b7b4a968cf74da8f346fbf506a68d0a9ffa7172",
    "decide_many": "a7fd2e3d4ec987fde003cc5c6249be79d1c58ca29bc25bd1b812ac3af088569a",
    "enumerate_wsne_supports": "6e793b0bee6351f69c942c2de215e89902d0dc2f6c9d15b93f1b98c957abf3db",
    "profiles": "f0e9e110261746b5ab6b5af3c386d1c82dee8d9ac1aedea6286514d7091f89c0",
    "large_k": "393ec63d5db4d5339989e416d97e45907298714c5d7166d78bd7a04dfbaa7f58",
    "readers": "2b4014a1e818afc508acf77909d9c5af615a185d5b1b24848b5935ad7ebed8f6",
    "support_walk": "580c46fe62057656546f838e242a930305826bd8c1ae7a8e0d8b76347d443304",
    "verdicts": "eb72ace65e7e505e3ccb8c5b2bf53508349a03d7edd738a8a61a82a8f8380b64",
}


def test_quick_digests_are_pinned():
    assert digests(quick=True) == QUICK
