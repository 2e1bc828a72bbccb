"""Run identity: every run and every explored search reproduces, digest for
digest, the records pinned in `identity.json`.

A run record is the value, the store's cells and the location map (both
sorted), the metrics with their decisions, the rule list, and the final
state's frontier notes, sigma, nursery, constraints and allocation sites.
An explored (program, bound) records its state and terminal counts, the
decision list that first reaches each visited state, in visit order, and
its terminals' decision lists.

`python tests/test_identity.py` rewrites `identity.json` from this tree,
and prints every pinned key whose digest changed.
"""

import hashlib
import json
import sys
import weakref
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from conftest import EXAMPLES, GOOD_EXAMPLES, bench_source  # noqa: E402
from locpar import eval_par as P  # noqa: E402
from locpar import syntax as S  # noqa: E402
from locpar.eval_seq import run_seq  # noqa: E402
from locpar.typecheck import typecheck_program  # noqa: E402
from test_eval_par import SPAWN_UNDER_OPERAND, TWO_WAITERS  # noqa: E402

PINNED = Path(__file__).parent / "identity.json"

# benchmark templates at small sizes
TEMPLATES = [("spine", 20), ("buildtree", 3), ("sumtree", 3), ("add1tree", 3)]
# programs of the task-machine tests: two waiters on one ivar, and a spawn
# that cannot fork
INLINE = {"two-waiters": TWO_WAITERS, "spawn-under-operand": SPAWN_UNDER_OPERAND}
SCHEDULES = ["never", "always"] + [f"random:{k}" for k in range(5)]
# (program, fork bound): criterion 4's programs, the sleep-set tests' and
# the explore workload's; buildtree-2@2 revisits states with sleep sets
# that differ, and sumtree-3@2 never forks
EXPLORED = [("constfold.lcp", 3), ("constfold-deep.lcp", 3), ("interp.lcp", 3),
            ("add1tree.lcp", 1), ("copytree.lcp", 1), ("mirror.lcp", 1),
            ("buildtree-2", 1), ("add1tree-2", 1), ("add1tree-1", 2),
            ("sumtree-2", 1), ("two-waiters", 2), ("buildtree-2", 2),
            ("sumtree-3", 2)]


def _program(name: str):
    if name.endswith(".lcp"):
        text = (EXAMPLES / name).read_text()
    elif name in INLINE:
        text = INLINE[name]
    else:
        base, size = name.rsplit("-", 1)
        text = bench_source(base, int(size))
    return typecheck_program(S.parse_program(text))


def _schedule(spec: str):
    if spec == "never":
        return P.never_fork()
    if spec == "always":
        return P.always_fork()
    return P.random_schedule(int(spec.split(":")[1]))


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def run_digest(res) -> str:
    """The sha256 of one full run record."""
    st = res.state
    return _sha([
        repr(res.value),
        sorted((r, i, repr(c)) for r, heap in res.store.regions.items()
               for i, c in heap.items()),
        sorted((l, repr(cl)) for l, cl in res.locmap.items()),
        json.dumps(res.metrics, sort_keys=True),
        res.rules,
        sorted(st.frontier_notes.items()),
        sorted((l, repr(t)) for l, t in st.sigma.items()),
        sorted(st.nursery),
        sorted((l, repr(le)) for l, le in st.constraints.items()),
        sorted(st.allocsites.items(), key=lambda kv: kv[0]),
    ])


def explore_digest(tp, bound: int, monkeypatch) -> dict:
    """The decision lists that first reach the visited states, in visit
    order, and the terminals' decision lists, each as a sha256.  The
    callback gets a task set; every machine is registered under its task
    set when it is made, so the callback can read the machine's decisions."""
    machines = weakref.WeakValueDictionary()  # id(task set) -> its machine
    init, copy = P.Machine.__init__, P.Machine.copy

    def registered_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        machines[id(self.ts)] = self

    def registered_copy(self):
        m = copy(self)
        machines[id(m.ts)] = m
        return m

    first = hashlib.sha256()
    states = 0

    def visit(ctx, ts):
        nonlocal states
        states += 1
        first.update(repr(machines[id(ts)].decisions).encode() + b"\n")

    monkeypatch.setattr(P.Machine, "__init__", registered_init)
    monkeypatch.setattr(P.Machine, "copy", registered_copy)
    try:
        terms = list(P.enumerate_schedules(tp, bound, wf_callback=visit))
    finally:
        monkeypatch.undo()
    return {"states": states, "terminals": len(terms),
            "first": first.hexdigest(),
            "decisions": _sha([t.decisions for t in terms])}


def run_keys():
    names = GOOD_EXAMPLES + [f"{n}-{k}" for n, k in TEMPLATES] + list(INLINE)
    for name in names:
        yield name, "seq", False
        for spec in SCHEDULES:
            for implicit in (False, True):
                yield name, spec, implicit


def run_record(name: str, spec: str, implicit: bool) -> str:
    tp = _program(name)
    if spec == "seq":
        return run_digest(run_seq(tp))
    return run_digest(P.run_par(tp, _schedule(spec),
                                {"implicit_par": implicit}))


def _run_id(key) -> str:
    name, spec, implicit = key
    return f"{name}:{spec}" + (":implicit" if implicit else "")


def record_all(monkeypatch) -> dict:
    return {"runs": {_run_id(k): run_record(*k) for k in run_keys()},
            "explored": {f"{n}@{b}": explore_digest(_program(n), b, monkeypatch)
                         for n, b in EXPLORED}}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("key", list(run_keys()), ids=_run_id)
def test_run_matches_pinned_record(pinned, key):
    assert run_record(*key) == pinned["runs"][_run_id(key)]


@pytest.mark.parametrize("name,bound", EXPLORED, ids=[f"{n}@{b}" for n, b in EXPLORED])
def test_search_matches_pinned_record(pinned, monkeypatch, name, bound):
    assert explore_digest(_program(name), bound, monkeypatch) == \
        pinned["explored"][f"{name}@{bound}"]


def test_pins_every_record(pinned):
    assert set(pinned["runs"]) == {_run_id(k) for k in run_keys()}
    assert set(pinned["explored"]) == {f"{n}@{b}" for n, b in EXPLORED}


def _counts(rec: dict | None) -> str:
    if rec is None:
        return "unpinned"
    return f"{rec['states']} states, {rec['terminals']} terminals"


def changed_keys(old: dict, new: dict) -> list[str]:
    """One line per pinned key whose digest differs, with an exploration's
    old and new state and terminal counts."""
    lines = []
    for kind in ("runs", "explored"):
        was, now = old.get(kind, {}), new[kind]
        for key in sorted(set(was) | set(now)):
            if was.get(key) == now.get(key):
                continue
            if kind == "runs":
                lines.append(f"runs {key}")
            else:
                lines.append(f"explored {key}: {_counts(was.get(key))} -> "
                             f"{_counts(now.get(key))}")
    return lines


if __name__ == "__main__":
    old = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    new = record_all(pytest.MonkeyPatch())
    PINNED.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    lines = changed_keys(old, new)
    print("\n".join(lines))
    print(f"wrote {PINNED}: {len(lines)} pinned keys changed")
