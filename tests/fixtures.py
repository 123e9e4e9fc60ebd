"""The shipped corpus files that the tests use as fixtures, each parsed once."""

from __future__ import annotations

from functools import lru_cache

from stdrefine import corpus_text, parse_env, parse_feature, parse_std


@lru_cache(maxsize=None)
def corpus_std(filename: str):
    """A shipped machine: ``tel.std`` (desk telephone), ``stack.std`` (bounded
    stack with a list attribute) or ``duo.std`` (two rival features)."""
    return parse_std(corpus_text(filename))


@lru_cache(maxsize=None)
def corpus_env(filename: str):
    """A shipped environment; ``quiet.env`` empties every feature table, so
    the chain's added features stay dormant."""
    return parse_env(corpus_text(filename))


@lru_cache(maxsize=None)
def conflict_patches():
    """The rival patch pair for ``duo.std``; applying either blocks the other."""
    base = corpus_std("duo.std")
    return (
        parse_feature(corpus_text("conflict-left.feat"), base=base),
        parse_feature(corpus_text("conflict-right.feat"), base=base),
    )
