"""DieudonneLie's memo contract, one check per clause for any slot of
ALGEBRA_MEMO; test_memo_contract runs every clause on every slot."""

import traceback

import pytest

from isolab import DieudonneLie, Isocrystal, dieudonne
from isolab.errors import InsufficientPrecision

from reference import ALGEBRA_MEMO, MEMO_COMPUTE, answer_key, split_heisenberg


def counted(slot, monkeypatch):
    """The slot's public function, its answer key on split_heisenberg(),
    the argument tuples its computation is called with from then on, and
    exceptions the next computations raise instead."""
    fn = getattr(dieudonne, ALGEBRA_MEMO[slot][1])
    want = answer_key(fn(split_heisenberg()))
    compute = getattr(dieudonne, MEMO_COMPUTE[slot])
    calls, faults = [], []

    def wrapped(*args):
        calls.append(args)
        if faults:
            raise faults.pop()
        return compute(*args)

    monkeypatch.setattr(dieudonne, MEMO_COMPUTE[slot], wrapped)
    return fn, want, calls, faults


def scramble(x):
    """Edit in place every list, dict and isocrystal F reachable from x."""
    if isinstance(x, Isocrystal):
        scramble(x.F)
    elif isinstance(x, (list, tuple, dict)):
        for v in (x.values() if isinstance(x, dict) else x):
            scramble(v)
        if isinstance(x, list):
            x[:] = x[::-1] + x[:1]
        elif isinstance(x, dict):
            x["edited"] = x.popitem() if x else None


def check_computed_once(slot, monkeypatch):
    # computed once per algebra, and again for a rebuilt algebra; every
    # answer equals a fresh algebra's
    fn, want, calls, _ = counted(slot, monkeypatch)
    a = split_heisenberg()
    for _ in range(3):
        assert answer_key(fn(a)) == want
    assert len(calls) == 1
    assert answer_key(fn(DieudonneLie(a.iso, a.bracket, a.lattice))) == want
    assert len(calls) == 2


def check_returns_a_copy(slot, monkeypatch):
    # editing an answer, down to its scalars' containers, changes no
    # later answer
    fn, want, _, _ = counted(slot, monkeypatch)
    a = split_heisenberg()
    for _ in range(3):
        got = fn(a)
        assert answer_key(got) == want
        scramble(got)
        assert answer_key(got) != want


def check_replays_a_fresh_error(slot, monkeypatch):
    # a stored IsolabError is raised as a new instance each time: its
    # class, message and witness, a witness copy of its own, and no
    # traceback that grows; the computation is not called again
    fn, _, calls, faults = counted(slot, monkeypatch)
    a, fault = split_heisenberg(), InsufficientPrecision(
        "stored", witness={"bound": [1, 2]})
    faults.append(fault)
    raised = []
    for _ in range(3):
        with pytest.raises(InsufficientPrecision, match="^stored$") as exc:
            fn(a)
        raised.append(exc.value)
    assert len(calls) == 1
    assert len({id(e) for e in [fault, *raised]}) == 4
    assert len({id(e.witness["bound"]) for e in [fault, *raised]}) == 4
    assert all(type(e) is InsufficientPrecision and e.witness == {
        "bound": [1, 2]} for e in raised)
    assert len({len(traceback.extract_tb(e.__traceback__))
                for e in raised}) == 1
    raised[0].witness["bound"].append(3)  # the caller's copy only
    with pytest.raises(InsufficientPrecision) as exc:
        fn(a)
    assert exc.value.witness == {"bound": [1, 2]}


def check_stores_only_library_errors(slot, monkeypatch):
    # any other exception propagates unstored: the next call computes
    fn, want, calls, faults = counted(slot, monkeypatch)
    a = split_heisenberg()
    faults.append(RuntimeError("interrupted"))
    with pytest.raises(RuntimeError):
        fn(a)
    assert answer_key(fn(a)) == want and len(calls) == 2


CONTRACT = [check_computed_once, check_returns_a_copy,
            check_replays_a_fresh_error, check_stores_only_library_errors]
