"""Processing strategies: ordered team sequences, their search space, and parsing.

A strategy is an ordered sequence of zero to four distinct teams. The empty
strategy is a first-class member of the space and means "leave the data
unprocessed". The full space holds 65 strategies: 4 + 12 + 24 + 24 ordered
team sequences plus the empty one.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from enum import Enum

MAX_TEAMS = 4

EMPTY_STRATEGY_NAME = "NONE"


class Team(Enum):
    CLEANING = "Cleaning"
    OPTIMIZATION = "Optimization"
    GENERATION = "Generation"
    SELECTION = "Selection"

    @property
    def prompt_name(self) -> str:
        return f"Data {self.value} Team"


TEAM_ORDER: tuple[Team, ...] = tuple(Team)


class StrategyParseError(ValueError):
    """A strategy text or team sequence that names no valid strategy."""


@dataclass(frozen=True, eq=True)
class Strategy:
    teams: tuple[Team, ...] = ()

    def __post_init__(self) -> None:
        # Distinct teams also bound the length: Team has MAX_TEAMS members.
        for i, team in enumerate(self.teams):
            if team in self.teams[:i]:
                raise StrategyParseError(f"team {team.value} listed twice")

    def __len__(self) -> int:
        return len(self.teams)

    def canonical(self) -> str:
        if not self.teams:
            return EMPTY_STRATEGY_NAME
        return " -> ".join(team.value for team in self.teams)

    def prompt_form(self) -> str:
        """Team names as they appear in agent prompts and responses."""
        if not self.teams:
            return EMPTY_STRATEGY_NAME
        return ", ".join(team.prompt_name for team in self.teams)

    def extended(self, team: Team) -> "Strategy":
        return Strategy(self.teams + (team,))


EMPTY_STRATEGY = Strategy(())


def enumerate_space() -> list[Strategy]:
    """All 65 strategies in deterministic order: empty first, then by length,
    then lexicographically by team order."""
    space = [EMPTY_STRATEGY]
    for length in range(1, MAX_TEAMS + 1):
        for teams in itertools.permutations(TEAM_ORDER, length):
            space.append(Strategy(teams))
    return space


_BULLET_RE = re.compile(r"^\s*(?:[-*•·–—]+|\(?\d+[.)]?)\s*")
_NON_LETTER_RE = re.compile(r"[^a-z ]+")

_TEAM_NAMES = {team.value.lower(): team for team in Team}


def _normalize_team_name(part: str) -> str:
    name = _NON_LETTER_RE.sub(" ", part.lower())
    words = [w for w in name.split() if w not in ("data", "team")]
    return " ".join(words)


def parse_strategy(text: str) -> Strategy:
    """Parse a team list in tolerant form: comma- or arrow-separated names,
    with or without "Data"/"Team" wrapping, bullets, and numbering."""
    body = _BULLET_RE.sub("", text.strip())
    if not body:
        raise StrategyParseError("empty strategy text")
    if body.strip().upper() == EMPTY_STRATEGY_NAME:
        return EMPTY_STRATEGY
    if "->" in body:
        parts = body.split("->")
    else:
        parts = re.split(r"[,，、]", body)
    teams: list[Team] = []
    for part in parts:
        part = _BULLET_RE.sub("", part.strip())
        if not part:
            continue
        name = _normalize_team_name(part)
        if name not in _TEAM_NAMES:
            raise StrategyParseError(f"unknown team name {part.strip()!r}")
        teams.append(_TEAM_NAMES[name])
    if not teams:
        raise StrategyParseError(f"no team names found in {text!r}")
    return Strategy(tuple(teams))


# Revision of the operators' implementation. Bump it whenever a team's output
# can change for the same config and seed, so that a cache filled by older code
# misses instead of serving results a recompute would no longer produce. Keys
# before revision 2 (one-permutation MinHash) carried no revision; revision 3
# sends one optimizer or generator request per sample, whole QA pair in and
# out, so a custom or remote model client sees different requests.
OPERATOR_REVISION = 3


def strategy_key(strategy: Strategy, config_digest: str, seed: int) -> str:
    """Cache identity: strategy plus the operator revision, config and run
    seed it ran under."""
    return f"{strategy.canonical()}|ops={OPERATOR_REVISION}|cfg={config_digest}|seed={seed}"
