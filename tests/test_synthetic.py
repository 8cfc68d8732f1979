import hashlib

import pytest

from arousalkit.synthetic import generate_corpus


@pytest.mark.parametrize("seed, digest", [
    (7, "487ccac9d16fe994f3e95bfa4cc7e15f169a23b378de932c02ef77fac1923ec5"),
    (1, "2ef6c7e8659c3b4b8cb03c65da1d2cef5eb16b8e85da004fea5025b9bce98d2a"),
])
def test_generated_corpus_bytes_are_pinned(tmp_path, seed, digest):
    # a change to how the generator draws from its random stream changes
    # every corpus, demo and benchmark input built from it
    path = tmp_path / "corpus.jsonl"
    generate_corpus(path, n_issues=200, seed=seed)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
