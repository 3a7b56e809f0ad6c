"""Stream reproducibility: identical triples give identical sequences, the
two ways of reading a stream share one draw order, and distinct names
diverge; and numpy is imported at load only by the modules that draw."""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

import sheltersim
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


@pytest.mark.parametrize("master_seed, replication", [(-1, 0), (0, -1)])
def test_negative_seed_or_replication_is_rejected(master_seed, replication):
    with pytest.raises(ValueError, match="must be non-negative"):
        RngStream(master_seed, replication, "arrivals")


def _load_time_imports(tree: ast.Module):
    """The absolute imports a module runs as it loads: all outside a function."""
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nodes.extend(ast.iter_child_nodes(node))


def test_only_the_modules_that_draw_import_numpy_at_load():
    # Importing numpy costs about as much as the rest of a cold start; any
    # other module reads it inside the function that needs it.
    importers = {path.name for path in Path(sheltersim.__file__).parent.glob("*.py")
                 if any(name.partition(".")[0] == "numpy" for name in _load_time_imports(
                     ast.parse(path.read_text(encoding="utf-8"))))}
    assert importers == {"streams.py", "distributions.py", "model.py"}
