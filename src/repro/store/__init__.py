"""Content-addressed, persistent result store.

Results are keyed by the SHA-256 of the canonical JSON form of the
:class:`~repro.scenarios.spec.SimulationSpec` that produced them — a
pure content address, so identical work is never repeated across
processes, campaign restarts or machines sharing a store file.

* :mod:`repro.store.canonical` — canonical spec encoding, hashing and
  the inverse (round-trip is tested for every registered scenario).
* :mod:`repro.store.result_store` — the SQLite-backed key/JSON store
  with hit/miss accounting.
* :mod:`repro.store.serialize` — lossless timing-result payloads for
  the :func:`repro.simulation.simulate_spec` / experiment-runner cache.
"""

from repro.store.canonical import (
    SCHEMA_VERSION,
    canonical_dict,
    canonical_json,
    canonical_policy_value,
    spec_from_canonical,
    spec_hash,
    spec_key_and_json,
)
from repro.store.result_store import (
    STORE_SCHEMA_VERSION,
    ResultStore,
    StoreHealthReport,
    payload_checksum,
    with_lock_retry,
)
from repro.store.serialize import (
    cacheable,
    payload_from_result,
    result_from_payload,
    store_timing_result,
)
from repro.store.sharding import (
    ShardMerger,
    list_shards,
    merge_shards,
    shard_directory,
    shard_path,
    shard_writer,
)

__all__ = [
    "SCHEMA_VERSION",
    "STORE_SCHEMA_VERSION",
    "ResultStore",
    "ShardMerger",
    "StoreHealthReport",
    "cacheable",
    "payload_checksum",
    "with_lock_retry",
    "canonical_dict",
    "canonical_json",
    "canonical_policy_value",
    "list_shards",
    "merge_shards",
    "payload_from_result",
    "result_from_payload",
    "shard_directory",
    "shard_path",
    "shard_writer",
    "spec_from_canonical",
    "spec_hash",
    "spec_key_and_json",
    "store_timing_result",
]
