from __future__ import annotations

import pytest

from pipecraft.strategy import (
    EMPTY_STRATEGY,
    OPERATOR_REVISION,
    Strategy,
    StrategyParseError,
    Team,
    TEAM_ORDER,
    enumerate_space,
    parse_strategy,
    strategy_key,
)


def brute_force_space() -> set[tuple[Team, ...]]:
    """Independent enumeration: grow sequences team by team, no itertools."""
    found: set[tuple[Team, ...]] = {()}
    frontier: list[tuple[Team, ...]] = [()]
    while frontier:
        seq = frontier.pop()
        if len(seq) == 4:
            continue
        for team in Team:
            if team not in seq:
                longer = seq + (team,)
                if longer not in found:
                    found.add(longer)
                    frontier.append(longer)
    return found


class TestEnumeration:
    def test_total_count_is_65(self):
        assert len(enumerate_space()) == 65

    def test_length_breakdown(self):
        by_length: dict[int, int] = {}
        for strategy in enumerate_space():
            by_length[len(strategy)] = by_length.get(len(strategy), 0) + 1
        assert by_length == {0: 1, 1: 4, 2: 12, 3: 24, 4: 24}

    def test_matches_brute_force_generator(self):
        assert {s.teams for s in enumerate_space()} == brute_force_space()

    def test_all_distinct(self):
        space = enumerate_space()
        assert len(set(space)) == len(space)

    def test_members_satisfy_invariants(self):
        for strategy in enumerate_space():
            assert len(strategy) <= 4
            assert len(set(strategy.teams)) == len(strategy.teams)

    def test_first_is_empty(self):
        assert enumerate_space()[0] is not None
        assert enumerate_space()[0].canonical() == "NONE"


class TestParse:
    def test_prompt_style_names(self):
        parsed = parse_strategy("Data Cleaning Team, Data Generation Team")
        assert parsed.teams == (Team.CLEANING, Team.GENERATION)

    def test_duplicate_team_error(self):
        with pytest.raises(StrategyParseError, match="^team Cleaning listed twice$"):
            parse_strategy("Data Cleaning Team, Data Cleaning Team")
        with pytest.raises(StrategyParseError, match="^team Cleaning listed twice$"):
            parse_strategy("Cleaning -> Cleaning")

    def test_unknown_team_error(self):
        with pytest.raises(StrategyParseError):
            parse_strategy("Data Cooking Team")

    def test_too_many_teams_error(self):
        with pytest.raises(StrategyParseError, match="^team Cleaning listed twice$"):
            parse_strategy("Cleaning, Optimization, Generation, Selection, Cleaning")

    def test_bullets_numbering_case(self):
        assert parse_strategy("- data cleaning team").teams == (Team.CLEANING,)
        assert parse_strategy("1. Cleaning, Selection").teams == (Team.CLEANING, Team.SELECTION)
        assert parse_strategy("• OPTIMIZATION").teams == (Team.OPTIMIZATION,)

    def test_round_trip_all_65(self):
        for strategy in enumerate_space():
            assert parse_strategy(strategy.canonical()) == strategy
            assert parse_strategy(strategy.prompt_form()) == strategy

    def test_empty_text_is_error(self):
        with pytest.raises(StrategyParseError):
            parse_strategy("   ")


class TestStrategyInvariants:
    def test_duplicate_rejected_at_construction(self):
        with pytest.raises(StrategyParseError, match="^team Cleaning listed twice$"):
            Strategy((Team.CLEANING, Team.CLEANING))

    def test_too_long_rejected(self):
        with pytest.raises(StrategyParseError):
            Strategy(tuple(TEAM_ORDER) + (Team.CLEANING,))


def test_strategy_key_binds_config_and_seed():
    f = Strategy((Team.CLEANING,))
    assert strategy_key(f, "abc", 1) == strategy_key(f, "abc", 1)
    assert strategy_key(f, "abc", 1) != strategy_key(f, "abc", 2)
    assert strategy_key(f, "abc", 1) != strategy_key(f, "xyz", 1)
    assert strategy_key(f, "abc", 1) != strategy_key(EMPTY_STRATEGY, "abc", 1)


def test_strategy_key_binds_operator_revision(monkeypatch):
    f = Strategy((Team.CLEANING,))
    before = strategy_key(f, "abc", 1)
    monkeypatch.setattr("pipecraft.strategy.OPERATOR_REVISION", OPERATOR_REVISION + 1)
    assert strategy_key(f, "abc", 1) != before
