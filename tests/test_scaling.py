"""Count gates on how the task machine's work per action scales with the
number of live tasks.  They count calls through wrappers and never time
anything, so a loaded host cannot fail them."""

from collections import Counter

import pytest

from conftest import bench_source
from locpar import eval_par as P
from locpar import syntax as S
from locpar.typecheck import typecheck_program


def bench(name, depth):
    return typecheck_program(S.parse_program(bench_source(name, depth)))


def refuse(*args):
    raise AssertionError("a schedule listed the enabled actions")


@pytest.mark.parametrize("make", [P.never_fork, P.always_fork,
                                  lambda: P.random_schedule(3)],
                         ids=["never", "always", "random:3"])
@pytest.mark.parametrize("name", ["buildtree", "add1tree"])
def test_schedules_never_list_the_ready_set(monkeypatch, name, make):
    tp = bench(name, 4)
    ref = P.run_par(tp, make())
    monkeypatch.setattr(P.Machine, "enabled", refuse)
    monkeypatch.setattr(P.Machine, "rescan", refuse)
    res = P.run_par(tp, make())
    assert res.metrics["decisions"] == ref.metrics["decisions"]
    # a replay lists them only to report a decision it cannot take
    replay = P.run_par(tp, P.trace_schedule(ref.metrics["decisions"]))
    assert replay.metrics["decisions"] == ref.metrics["decisions"]


def counts_per_action(monkeypatch, depth):
    """Per always-fork action on `buildtree` of this depth: task rescans
    (`_task_actions`), count-tree updates and count-tree searches."""
    calls = Counter()

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    with monkeypatch.context() as mp:
        mp.setattr(P, "_task_actions", counted("rescans", P._task_actions))
        mp.setattr(P._Counts, "add", counted("updates", P._Counts.add))
        mp.setattr(P._Counts, "find", counted("searches", P._Counts.find))
        res = P.run_par(bench("buildtree", depth), P.always_fork())
    actions = len(res.metrics["decisions"])
    assert res.metrics["peak_tasks"] == 2 ** depth
    return {k: n / actions for k, n in calls.items()}


def test_work_per_action_stays_flat_as_tasks_grow(monkeypatch):
    # 16 against 1,024 live tasks at the peak
    small = counts_per_action(monkeypatch, 4)
    large = counts_per_action(monkeypatch, 10)
    assert set(small) == set(large) == {"rescans", "updates", "searches"}
    for key in small:
        assert large[key] <= 1.2 * small[key], (key, small, large)
