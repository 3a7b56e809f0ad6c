"""Stream reproducibility: identical triples give identical sequences, the
two ways of reading a stream share one draw order, and distinct names
diverge."""

import hashlib

import numpy as np

from sheltersim.streams import RngStream, _name_key


def test_same_triple_same_sequence():
    a = RngStream(123, 4, "arrivals")
    b = RngStream(123, 4, "arrivals")
    assert [a.uniform() for _ in range(2000)] == [b.uniform() for _ in range(2000)]


def test_distinct_names_diverge():
    a = RngStream(123, 4, "arrivals")
    b = RngStream(123, 4, "attributes")
    xs = [a.uniform() for _ in range(100)]
    ys = [b.uniform() for _ in range(100)]
    assert xs != ys
    # No suspicious correlation either: the sequences share no values.
    assert not set(xs) & set(ys)


def test_distinct_replications_diverge():
    a = RngStream(123, 0, "arrivals")
    b = RngStream(123, 1, "arrivals")
    assert [a.uniform() for _ in range(100)] != [b.uniform() for _ in range(100)]


def test_uniform_matches_raw_generator():
    seed_seq = np.random.SeedSequence([123, 4, _name_key("arrivals")])
    raw = np.random.Generator(np.random.PCG64(seed_seq)).random(1300).tolist()
    stream = RngStream(123, 4, "arrivals")
    assert [stream.uniform() for _ in range(1300)] == raw


def test_take_shares_the_stream_position():
    # ``take(n)`` continues wherever ``uniform()`` stopped and ``uniform()``
    # continues after it, so the n-th draw is one value however reads mix;
    # 0 takes nothing.
    seed_seq = np.random.SeedSequence([123, 4, _name_key("arrivals")])
    raw = np.random.Generator(np.random.PCG64(seed_seq)).random(4000).tolist()
    stream = RngStream(123, 4, "arrivals")
    read = []
    for n in (3, 0, 509, 1, 700, 512, 1):
        read += [stream.uniform() for _ in range(n)]
        taken = stream.take(n)
        assert taken.dtype == np.float64
        assert taken.shape == (n,)
        read += taken.tolist()
    assert read == raw[:len(read)]


def test_draws_are_half_open_unit_interval():
    stream = RngStream(9, 9, "anything")
    draws = [stream.uniform() for _ in range(5000)]
    assert min(draws) >= 0.0
    assert max(draws) < 1.0


def test_name_key_is_stable():
    # Pinned so that stream identities never drift between releases.
    expected = int.from_bytes(hashlib.sha256(b"arrivals").digest()[:8], "little")
    assert _name_key("arrivals") == expected
    assert _name_key("arrivals") == _name_key("arrivals")
    assert _name_key("arrivals") != _name_key("attributes")
