import sys
import types

import pytest

from spans import Recorder, Target, aggregate, covered_length, package_modules, self_times


def span(key, start, end, parent=-1, info=None):
    return [key, start, end, parent, info]


def test_self_time_subtracts_nested_children():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, parent=0),
        span("c", 5.0, 9.0, parent=0),
        span("d", 6.0, 8.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 2.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 5.0, parent=0),
        span("c", 3.0, 7.0, parent=0),
        span("d", 9.0, 12.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert covered_length(0.0, 10.0, []) == 0.0


def test_aggregate_sums_calls_durations_self_time_and_counts():
    spans = [
        span("a", 0.0, 4.0, info={"pairs": 2}),
        span("b", 1.0, 2.0, parent=0),
        span("a", 5.0, 6.0, info={"pairs": 3, "failed": 1}),
    ]
    totals = aggregate(spans)
    assert totals["a"]["calls"] == 2
    assert totals["a"]["s"] == pytest.approx(5.0)
    assert totals["a"]["self_s"] == pytest.approx(4.0)
    assert totals["a"]["pairs"] == 5
    assert totals["a"]["failed"] == 1
    assert totals["b"]["self_s"] == pytest.approx(1.0)


@pytest.fixture
def fake_package(monkeypatch):
    package = types.ModuleType("fakepkg")
    first = types.ModuleType("fakepkg.first")
    exec(
        "def f(x):\n    return x + 1\n"
        "class K:\n    def m(self):\n        return f(1)\n"
        "class L(K):\n    pass\n",
        first.__dict__,
    )
    second = types.ModuleType("fakepkg.second")
    second.f = first.f  # as `from .first import f` would bind it
    exec("def g():\n    return f(2)\n", second.__dict__)
    for module in (package, first, second):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return first, second


def test_rebinding_catches_a_function_imported_under_two_names(fake_package):
    first, second = fake_package
    original_f, original_m = first.f, first.K.m
    recorder = Recorder()
    recorder.install(
        [Target("fakepkg.first", "f", "first.f",
                describe=lambda args, result: {"total": result}),
         Target("fakepkg.first", "K.m", "first.K.m")],
        package_modules("fakepkg"),
    )
    try:
        assert second.f is first.f is not original_f
        assert second.g() == 3
        assert first.f(0) == 1
        assert first.L().m() == 2
    finally:
        recorder.uninstall()
    assert [s[0] for s in recorder.spans] == ["first.f", "first.f", "first.K.m", "first.f"]
    assert recorder.spans[3][3] == 2  # f called inside m has m as parent
    assert aggregate(recorder.spans)["first.f"]["total"] == 3 + 1 + 2
    assert first.f is original_f and second.f is original_f
    assert first.K.__dict__["m"] is original_m


def test_rebinding_catches_apply_team_in_operators_and_cache(tmp_path):
    from pipecraft import cache, operators, synthetic
    from pipecraft.strategy import Strategy, Team

    dataset = synthetic.messy_corpus(0)
    context = operators.ExecutionContext.with_defaults()
    store = cache.StrategyCache(tmp_path, context.cfg.digest(), 0)
    recorder = Recorder()
    recorder.install(
        [Target("pipecraft.operators", "apply_team", "operators.apply_team",
                label=lambda args: args[0].value)],
        package_modules("pipecraft"),
    )
    try:
        operators.apply_strategy(Strategy((Team.CLEANING,)), dataset, context)
        store.apply_with_reuse(Strategy((Team.SELECTION,)), dataset, context)
    finally:
        recorder.uninstall()
    assert [s[0] for s in recorder.spans] == [
        "operators.apply_team.Cleaning", "operators.apply_team.Selection"]
    assert cache.apply_team is operators.apply_team
    assert operators.apply_team.__name__ == "apply_team"
    assert not hasattr(operators.apply_team, "__wrapped__")


def test_a_failing_call_is_recorded_and_reraised(fake_package):
    first, _ = fake_package
    recorder = Recorder()
    recorder.install([Target("fakepkg.first", "f", "first.f")], package_modules("fakepkg"))
    try:
        with pytest.raises(TypeError):
            first.f(None)
    finally:
        recorder.uninstall()
    assert recorder.spans[0][4] == {"failed": 1}
    assert recorder.spans[0][2] >= recorder.spans[0][1]
