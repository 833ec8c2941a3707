"""Processing strategies: ordered team sequences, their search space, and prefix algebra.

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


TEAM_ORDER: tuple[Team, ...] = (
    Team.CLEANING,
    Team.OPTIMIZATION,
    Team.GENERATION,
    Team.SELECTION,
)


class StrategyParseError(ValueError):
    """Base class for strategy parse failures."""


class UnknownTeamError(StrategyParseError):
    pass


class DuplicateTeamError(StrategyParseError):
    pass


class TooManyTeamsError(StrategyParseError):
    pass


@dataclass(frozen=True, eq=True)
class Strategy:
    teams: tuple[Team, ...] = ()

    def __post_init__(self) -> None:
        if len(self.teams) > MAX_TEAMS:
            raise TooManyTeamsError(f"at most {MAX_TEAMS} teams, got {len(self.teams)}")
        if len(set(self.teams)) != len(self.teams):
            raise DuplicateTeamError(f"duplicate team in {self.teams}")

    def __len__(self) -> int:
        return len(self.teams)

    @property
    def is_empty(self) -> bool:
        return not self.teams

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


def is_prefix(a: Strategy, b: Strategy) -> bool:
    return b.teams[: len(a.teams)] == a.teams


def split_at(f: Strategy, k: int) -> tuple[Strategy, Strategy]:
    if k < 0 or k > len(f.teams):
        raise IndexError(f"split index {k} out of range for strategy of length {len(f)}")
    return Strategy(f.teams[:k]), Strategy(f.teams[k:])


_BULLET_RE = re.compile(r"^\s*(?:[-*•·–—]+|\(?\d+[.)]?)\s*")
_NON_LETTER_RE = re.compile(r"[^a-z ]+")

_TEAM_NAMES = {
    "cleaning": Team.CLEANING,
    "optimization": Team.OPTIMIZATION,
    "generation": Team.GENERATION,
    "selection": Team.SELECTION,
}


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
            raise UnknownTeamError(f"unknown team name {part.strip()!r}")
        team = _TEAM_NAMES[name]
        if team in teams:
            raise DuplicateTeamError(f"team {team.value} listed twice")
        teams.append(team)
    if not teams:
        raise StrategyParseError(f"no team names found in {text!r}")
    return Strategy(tuple(teams))


# Revision of the operators' implementation. Bump it whenever a team's output
# can change for the same config and seed, so that a cache filled by older code
# misses instead of serving results a recompute would no longer produce. Keys
# before revision 2 (one-permutation MinHash) carried no revision.
OPERATOR_REVISION = 2


def strategy_key(strategy: Strategy, config_digest: str, seed: int) -> str:
    """Cache identity: strategy plus the operator revision, config and run
    seed it ran under."""
    return f"{strategy.canonical()}|ops={OPERATOR_REVISION}|cfg={config_digest}|seed={seed}"
