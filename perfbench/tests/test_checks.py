"""Every output check can fail: each mutation of a correct answer makes
``check_query`` report a problem."""
import pytest

from perfbench.oracle import Oracle, check_query, satisfies

BLOBS = {
    "c/corpus-00000.txt": b"alpha beta gamma\nbeta delta\ngamma\talpha\n",
    "c/corpus-00001.txt": b"delta epsilon\n\nalpha\x1fbeta zeta\n",
}


@pytest.fixture()
def oracle():
    return Oracle(BLOBS)


def answer(oracle, clauses):
    """The correct full answer, built from the oracle."""
    return [(b, o, n, oracle.bytes_at((b, o, n)).decode()) for b, o, n in oracle.matches(clauses)]


def test_oracle_parses_raw_bytes(oracle):
    assert oracle.n_docs == 5  # the empty line holds no document
    assert oracle.docs[1] == ("c/corpus-00000.txt", 17, 10)
    assert oracle.docs[4] == ("c/corpus-00001.txt", 15, 15)
    # ASCII whitespace only, as the Builder's Java \s: \x1f does not split.
    assert "alpha\x1fbeta" in oracle.index and oracle.index["beta"] == [0, 1]
    assert oracle.n_terms == 7
    assert oracle.matches([["alpha", "gamma"], ["epsilon"]]) == [
        ("c/corpus-00000.txt", 0, 16),
        ("c/corpus-00000.txt", 28, 11),
        ("c/corpus-00001.txt", 0, 13),
    ]
    assert satisfies([["gamma", "alpha"]], b"gamma\talpha")


def test_correct_answers_pass(oracle):
    for clauses in ([["alpha"]], [["beta", "delta"], ["zeta"]], [["nowhere"]]):
        assert check_query(oracle, clauses, None, answer(oracle, clauses)) is None
    assert check_query(oracle, [["alpha"]], 1, answer(oracle, [["alpha"]])[1:]) is None
    assert check_query(oracle, [["alpha"]], 1, answer(oracle, [["alpha"]])[:1], first_k=True) is None
    assert check_query(oracle, [["beta"]], None, answer(oracle, [["beta"]]), 2, 2) is None


def test_dropped_result_fails(oracle):
    got = answer(oracle, [["alpha"]])
    assert "missing" in check_query(oracle, [["alpha"]], None, got[1:])


def test_foreign_posting_fails(oracle):
    got = answer(oracle, [["alpha"]]) + answer(oracle, [["delta"]])[:1]
    assert "does not satisfy" in check_query(oracle, [["alpha"]], None, got)
    # top-K as well: a foreign result is never one of the k
    assert "does not satisfy" in check_query(oracle, [["alpha"]], 2, got)


def test_wrong_byte_range_fails(oracle):
    b, o, n, text = answer(oracle, [["beta"]])[0]
    assert "differs" in check_query(oracle, [["beta"]], None, [(b, o + 1, n, text)])
    assert "outside" in check_query(oracle, [["beta"]], None, [(b, o, n + 999, text)])


def test_wrong_text_fails(oracle):
    b, o, n, _ = answer(oracle, [["gamma"]])[0]
    assert "differs" in check_query(oracle, [["gamma"]], None, [(b, o, n, "gamma")])


def test_topk_shortfall_fails(oracle):
    got = answer(oracle, [["alpha"]])
    assert "shortfall" in check_query(oracle, [["alpha"]], 2, got[:1])


def test_duplicate_result_fails(oracle):
    got = answer(oracle, [["alpha"]])
    assert "duplicate" in check_query(oracle, [["alpha"]], 2, got[:1] * 2)


def test_not_first_k_fails(oracle):
    got = answer(oracle, [["alpha"]])
    assert "first 1" in check_query(oracle, [["alpha"]], 1, got[1:2], first_k=True)


def test_third_batch_fails(oracle):
    got = answer(oracle, [["alpha"]])
    assert "3 batches" in check_query(oracle, [["alpha"]], None, got, batches=3, max_batches=2)
