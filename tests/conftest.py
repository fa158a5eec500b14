"""Helpers shared by the test modules.  Each is handed out as a fixture,
so no test module imports another or this one, and the suite runs under
any import mode."""
import random
from types import SimpleNamespace

import pytest

from beliefchange.formulas import Atom, Not, Or
from beliefchange.plausibility import Mask
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


def _cell_event(index, cell):
    """Runs whose environment sequence starts with the cell."""
    event = index.full
    for t, w in enumerate(cell):
        event &= index.at[t].get(w, 0)
    return Mask(event)


def _formula_prefix_event(sys, formulas):
    """Runs whose environment world at each time i satisfies formulas[i]."""
    index = sys.index
    event = index.full
    for i, f in enumerate(formulas):
        event &= index.env_event(i, sys.vocab.extension(f))
    return Mask(event)


def _upd4_event(sys, formulas, obs, observed: bool):
    """Runs meeting the formulas, time by time, that observed ``obs`` (or,
    with ``observed`` false, where ``obs`` was merely true at times 1..)."""
    event = _formula_prefix_event(sys, formulas)
    if observed:
        return Mask(event & sys.index.observed(obs))
    for i, o in enumerate(obs):
        event &= sys.index.env_event(i + 1, sys.vocab.extension(o))
    return Mask(event)


@pytest.fixture(scope="session")
def run_events():
    """The run-mask events the UPD2 and UPD4 reference sweeps build, read
    off the run index with no frame: ``cell_event(index, cell)``,
    ``formula_prefix_event(sys, formulas)`` and ``upd4_event(sys,
    formulas, obs, observed)``."""
    return SimpleNamespace(
        cell_event=_cell_event, formula_prefix_event=_formula_prefix_event, upd4_event=_upd4_event
    )
