from __future__ import annotations

import random

import pytest

from pipecraft import timing
from pipecraft.timing import PhaseTimer


class FakeClock:
    """A ``perf_counter`` stand-in that moves only when told to. Steps are
    whole seconds, so every total is exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch) -> FakeClock:
    fake = FakeClock()
    monkeypatch.setattr(timing, "perf_counter", fake)
    return fake


class TestPhaseTimer:
    def test_nested_phase_charges_only_the_innermost(self, clock):
        timer = PhaseTimer()
        with timer.phase("outer"):
            clock.advance(1)
            with timer.phase("inner"):
                clock.advance(2)
                with timer.phase("innermost"):
                    clock.advance(4)
                clock.advance(8)
            clock.advance(16)
        assert timer.snapshot() == {"outer": 17.0, "inner": 10.0, "innermost": 4.0}

    def test_reentering_a_phase_adds_to_its_total(self, clock):
        timer = PhaseTimer()
        with timer.phase("screening"):
            clock.advance(1)
        clock.advance(100)  # outside every phase: charged to none
        with timer.phase("sampling"):
            clock.advance(2)
            with timer.phase("screening"):
                clock.advance(4)
        with timer.phase("screening"):
            clock.advance(8)
        assert timer.snapshot() == {"screening": 13.0, "sampling": 2.0}

    def test_an_exception_still_closes_the_phase(self, clock):
        timer = PhaseTimer()
        with timer.phase("outer"):
            with pytest.raises(RuntimeError):
                with timer.phase("inner"):
                    clock.advance(2)
                    raise RuntimeError("boom")
            clock.advance(1)
        assert timer.snapshot() == {"outer": 1.0, "inner": 2.0}

    @pytest.mark.parametrize("seed", range(5))
    def test_totals_never_exceed_the_elapsed_time(self, clock, seed):
        """Random nesting and re-entry of a few phases, with gaps outside any
        phase: the totals add up to exactly the time some phase was open."""
        rng = random.Random(seed)
        timer = PhaseTimer()
        covered = 0

        def run(depth: int) -> None:
            nonlocal covered
            for _ in range(rng.randint(1, 3)):
                with timer.phase(rng.choice(("sampling", "screening", "processing"))):
                    step = rng.randint(0, 5)
                    clock.advance(step)
                    covered += step
                    if depth < 4 and rng.random() < 0.6:
                        run(depth + 1)
                    step = rng.randint(0, 5)
                    clock.advance(step)
                    covered += step

        for _ in range(4):
            run(0)
            clock.advance(rng.randint(0, 5))
        assert all(total >= 0 for total in timer.totals.values())
        assert sum(timer.totals.values()) == covered <= clock.now
