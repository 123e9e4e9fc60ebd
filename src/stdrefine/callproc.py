"""Bundled case study: a telephone switching unit grown by features.

The corpus ships as plain text under ``corpus/`` — machines (``.std``),
environments (``.env``), and feature patches (``.feat``) — and this module
loads those files and rebuilds the development chain:

* step 0 — the bare switching unit: a call attempt ends busy or alerting
* step 1 — callers may abandon a failed attempt (patch ``abandon``)
* step 2 — the connect state splits into a subscriber lookup and a phone
  lookup (patch ``split-connect``)
* step 3 — forwarding directories redirect attempts (patch ``forwarding``,
  applied to step 2)
* step 4 — screening tables refuse attempts (patch ``blocking``, also
  applied to step 2)
* step 5 — both feature families together (``blocking`` applied to step 3)

Steps 1-5 are always produced by applying the shipped patches, never built
by hand, so rebuilding the chain exercises the rule checker end to end.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from .features import FeaturePatch, apply_feature
from .interp import DEFAULT_BOUNDS
from .model import Environment, Std
from .textlang import parse_env, parse_feature, parse_std

#: chain step -> (patch applied, step it is applied to)
STEP_FEATURES = {
    1: ("abandon", 0),
    2: ("split-connect", 1),
    3: ("forwarding", 2),
    4: ("blocking", 2),
    5: ("blocking", 3),
}

_PATCH_NAMES = ("abandon", "split-connect", "forwarding", "blocking")


def corpus_path(filename: str):
    """Location of a shipped corpus file (a real path in a normal install)."""
    return resources.files(__package__) / "corpus" / filename


def corpus_text(filename: str) -> str:
    return corpus_path(filename).read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def base_std() -> Std:
    """Step 0: the bare switching unit."""
    return parse_std(corpus_text("callproc.std"))


@lru_cache(maxsize=None)
def default_env() -> Environment:
    """Reference environment: d1 answers busy, d3 rings, d2 forwards to d3."""
    return parse_env(corpus_text("default.env"))


@lru_cache(maxsize=None)
def feature_patch(name: str) -> FeaturePatch:
    """One of the four chain patches, parsed against the base machine."""
    if name not in _PATCH_NAMES:
        raise ValueError(
            f"unknown patch {name!r}; the chain ships {', '.join(_PATCH_NAMES)}"
        )
    return parse_feature(corpus_text(f"{name}.feat"), base=base_std())


@lru_cache(maxsize=None)
def build_step(n: int) -> Std:
    """Reconstruct chain step `n` (0..5) by applying the shipped patches."""
    if n not in range(6):
        raise ValueError("the development chain has steps 0..5")
    if n == 0:
        return base_std()
    patch_name, prev = STEP_FEATURES[n]
    return apply_feature(
        build_step(prev), feature_patch(patch_name), default_env(), DEFAULT_BOUNDS
    )

