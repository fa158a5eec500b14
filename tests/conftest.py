"""Helpers shared by the test modules.  Each is handed out as a fixture,
so no test module imports another or this one, and the suite runs under
any import mode."""
import random

import pytest

from beliefchange.formulas import Atom, Not, Or
from beliefchange.update import hamming_structure, random_structure, system_from_update


def _seeded_update(vocab, kind, seed, horizon):
    rng = random.Random(seed)
    structure = hamming_structure(vocab) if kind == "hamming" else random_structure(vocab, rng)
    literals = [f(Atom(a)) for a in vocab.props for f in (lambda x: x, Not)]
    menu = rng.sample(literals, rng.randrange(1, 4))
    menu += [Or(*rng.sample(literals, 2)) for _ in range(rng.randrange(2))]
    return system_from_update(structure, horizon, menu)


@pytest.fixture
def seeded_update():
    """``seeded_update(vocab, kind, seed, horizon)``: ``system_from_update``
    over ``vocab`` at ``horizon``, on Hamming distance (``kind`` "hamming")
    or a seeded random structure, with a seeded menu of literals and
    two-literal disjunctions."""
    return _seeded_update
