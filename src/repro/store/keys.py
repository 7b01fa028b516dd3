"""Canonical cache keys for the on-disk result store.

A stored result is only reusable when *everything* that shaped its numbers is
part of the key: the experiment id, the full resolved configuration of the
point (including engine/chunking choices that select different RNG streams),
the root seed, and a code-version salt that is bumped whenever an engine
change legitimately shifts seeded outputs.  The key is the SHA-256 of a
canonical JSON encoding of that tuple, so it is stable across processes,
dict orderings, and tuple-vs-list spellings.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from typing import Any, Mapping

#: Version salt folded into every key.  Bump whenever a change to the
#: simulation/decoding code shifts seeded numeric outputs (e.g. an RNG
#: consumption reorder or a matcher tie-break rework): old stored results
#: then miss instead of silently serving stale numbers.
#:
#: v2: the large-event matcher moved from networkx's blossom (explicit
#: zero-weight boundary clique) to the in-tree implicit-boundary blossom.
#: The frozen seeded pins reproduce bit for bit, but equal-weight tie-breaks
#: of the two matchers are not provably identical on every input, so results
#: stored under v1 are conservatively invalidated.
#:
#: v3: memory-experiment noise is drawn by the exact sparse tile sampler
#: (per 64-trial tile, a binomial error count and a uniform subset of
#: positions) instead of one float64 uniform per (trial, round, qubit).  The
#: error distribution is unchanged but the RNG stream is new, so every seeded
#: memory count moved.  Coverage results did not move; their keys change
#: with the salt only.
#:
#: v4: the sparse sampler draws one field per 2048-trial block instead of
#: per 64-trial tile, and walks each field's error positions with geometric
#: gaps instead of a binomial count and a uniform subset.  The error
#: distribution is unchanged but the RNG stream is new, so every seeded
#: memory count moved again.  Coverage results did not move; their keys
#: change with the salt only.
#:
#: v5: blossom matches already-tight free pairs after each dual step;
#: equal-weight tie-breaks moved for windows > 8 events.  Matching costs are
#: unchanged (the matcher is still exact), but seeded memory counts can move
#: wherever a tie-break flips a logical outcome.  Coverage results did not
#: move; their keys change with the salt only.
CODE_VERSION_SALT = "repro-results-v5"

#: The central store-key exclusion list: runner keywords that are
#: *deliberately* absent from the resolved point configs that
#: ``repro.experiments.fig14._memory_point_config`` and
#: ``repro.simulation.coverage.resolve_coverage_config`` hash into result
#: keys, each with the reason it cannot shape stored numbers (or enters the
#: key under another name).
#:
#: The contract (statically enforced by lint rule ``KEY001``, see
#: ``repro.analysis``): every keyword of
#: ``repro.simulation.scheduler.memory_point`` (the runner of every stored
#: fig14 point) and ``simulate_clique_coverage`` must either appear in its
#: key-resolution function — i.e. it is folded into the key — or be listed
#: here.  A new
#: knob in neither place fails ``repro-qec lint`` until someone decides
#: which side it belongs on, which kills the "added a kwarg, forgot the
#: store key, served stale results" bug class at the signature.  The check
#: runs both ways: an entry here that is no longer a keyword of either
#: runner fails lint too, so the list shrinks along with the knobs.  When a
#: keyword graduates from key-neutral to result-affecting, move it out of
#: this dict *and* bump :data:`CODE_VERSION_SALT` if old stored numbers are
#: no longer comparable.
KEY_EXCLUDED: dict[str, str] = {
    "code": "enters the key as its resolved 'distance' entry",
    "noise": "enters the key as the noise class name plus its error rates",
    "decoder_factory": "enters the key as its 'decoder' label and 'fallback' tier",
    "decoder_name": "display label only; never touches the numbers",
    "rng": "enters the key separately as result_key's seed argument",
    "seed": "enters the key separately as result_key's seed argument",
    "point_id": "scheduler bookkeeping label; never touches the numbers",
    "on_complete": "persistence hook run after the point is finalised",
    "workers": "scheduling only: shard streams are fixed per (seed, chunk)",
    "checkpoint": "mid-point resume slot; a resumed run equals an unbroken one",
}


def canonical_value(value: Any) -> Any:
    """Normalise a config value into a canonical JSON-encodable form.

    Tuples and lists unify to lists, mapping keys are stringified and sorted
    by the JSON encoder, and numpy scalars collapse to their Python
    counterparts.  Unsupported types raise ``TypeError`` — silently
    ``str()``-ing an arbitrary object could make two different configs hash
    equal.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, Mapping):
        return {str(key): canonical_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    raise TypeError(
        f"config values must be JSON-like scalars/sequences/mappings, "
        f"got {type(value).__name__}: {value!r}"
    )


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace."""
    return json.dumps(canonical_value(value), sort_keys=True, separators=(",", ":"))


def result_key(
    experiment_id: str,
    config: Mapping[str, Any],
    seed: int,
    salt: str = CODE_VERSION_SALT,
) -> str:
    """Content-addressed key of one sweep point's result.

    Args:
        experiment_id: registry id (``"fig11"``, ``"fig14"``, ...).
        config: the point's *fully resolved* configuration — every knob that
            affects the numbers, with defaults filled in (an omitted default
            and an explicitly passed one must hash identically).
        seed: the point's integer seed (usually ``point_seed(root, *idx)``).
        salt: code-version salt; see :data:`CODE_VERSION_SALT`.
    """
    payload = {
        "experiment": experiment_id,
        "config": config,
        "seed": int(seed),
        "salt": salt,
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


__all__ = [
    "CODE_VERSION_SALT",
    "KEY_EXCLUDED",
    "canonical_json",
    "canonical_value",
    "result_key",
]
