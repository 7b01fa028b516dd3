"""Named decoder registry for cascade tier specs.

A decoder cascade is configured by a *tier spec*: the pair of tier names
``("clique", <off-chip>)``, or its comma-separated CLI form
``"clique,union_find"``.  The first tier is always the on-chip Clique
front-end (it owns the round-by-round persistence filtering and triage and is
constructed by :class:`repro.clique.cascade.DecoderCascade` itself); the
second names the off-chip decoder class registered here.

The registry lives in :mod:`repro.decoders` (not :mod:`repro.clique`) so the
spec can be validated *eagerly* — at CLI-argument and experiment-config time —
instead of surfacing as a lookup error deep inside a worker process.
"""

from __future__ import annotations

from typing import Iterable

from repro.decoders.base import Decoder
from repro.decoders.mwpm import MWPMDecoder
from repro.decoders.union_find import ClusteringDecoder
from repro.exceptions import ConfigurationError

#: Name of the mandatory on-chip front-end tier.
CLIQUE_TIER = "clique"

#: Off-chip decoder classes selectable by name in a cascade tier spec.
TIER_DECODERS: dict[str, type[Decoder]] = {
    "mwpm": MWPMDecoder,
    "union_find": ClusteringDecoder,
}


def tier_decoder_names() -> tuple[str, ...]:
    """Sorted names accepted for off-chip cascade tiers."""
    return tuple(sorted(TIER_DECODERS))


def resolve_tier_name(name: str) -> type[Decoder]:
    """Look up one off-chip tier name, with a clean error for unknown names."""
    try:
        return TIER_DECODERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown decoder tier {name!r}; valid off-chip tiers are "
            f"{list(tier_decoder_names())} (the first tier is always "
            f"{CLIQUE_TIER!r})"
        ) from None


def resolve_tier_spec(spec: str | Iterable[str]) -> tuple[str, ...]:
    """Normalise and validate a cascade tier spec into a pair of tier names.

    Accepts the comma-separated CLI form (``"clique,union_find"``) or any
    iterable of names.  The spec must be :data:`CLIQUE_TIER` followed by
    exactly one off-chip name registered in :data:`TIER_DECODERS` —
    violations raise :class:`~repro.exceptions.ConfigurationError` listing
    the valid names, so a typo on the command line never becomes a traceback
    from inside the decoder stack (or a pooled worker process), nor an error
    surfacing only after a sweep has already burned Monte-Carlo time.
    :class:`repro.clique.cascade.DecoderCascade` parses its string specs
    here too, so both entry points reject a bad spec with the same message.
    """
    if isinstance(spec, str):
        names = tuple(part.strip() for part in spec.split(","))
    else:
        names = tuple(spec)
    if any(not isinstance(name, str) or not name for name in names):
        raise ConfigurationError(
            f"malformed tier spec {spec!r}: expected comma-separated decoder "
            f"names like 'clique,mwpm'"
        )
    if not names or names[0] != CLIQUE_TIER:
        raise ConfigurationError(
            f"the first cascade tier must be the on-chip {CLIQUE_TIER!r} "
            f"tier, got {list(names)!r}"
        )
    if len(names) != 2:
        raise ConfigurationError(
            f"a cascade has exactly two tiers, {CLIQUE_TIER!r} and one "
            f"off-chip decoder, got {list(names)!r}; valid off-chip tiers are "
            f"{list(tier_decoder_names())}"
        )
    resolve_tier_name(names[1])
    return names


__all__ = [
    "CLIQUE_TIER",
    "TIER_DECODERS",
    "resolve_tier_name",
    "resolve_tier_spec",
    "tier_decoder_names",
]
