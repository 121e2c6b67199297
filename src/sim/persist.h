/**
 * @file
 * Serialization of executable indexes.
 *
 * The paper's crawl indexes ~200k executables once and then answers many
 * CVE queries against the stored strand sets (section 5.1: "the
 * procedures were indexed as a set of strands"). This module provides
 * that persistence layer: an ExecutableIndex round-trips through a
 * compact binary format (magic "FWIX"), so a corpus can be lifted and
 * canonicalized once and searched many times.
 *
 * Format history: v2 added the finalized search-acceleration state (the
 * CSR posting lists built by ExecutableIndex::finalize()); v3 added each
 * procedure's block summary; v4 added each procedure's MinHash sketch
 * (an LSH retrieval prefilter since removed); v5 re-arranged the blob
 * as a flat relocatable layout. Both v4 and v5 are stale: v6 is the v5
 * layout without the sketch arena and the per-procedure sketch index.
 *
 * Format v6 is a fixed directory of absolute offsets pointing at typed
 * arenas (exe/proc names, a packed 96-byte procedure table, one hash
 * arena, the three CSR posting arrays), with every u64 arena 8-byte
 * aligned and every word in host byte order. Nothing is
 * length-prefixed inline, so the blob is not just the on-disk form but
 * the in-memory one too: ExecutableIndex::finalize() packs an index into
 * a v6 arena and re-opens it through open_index_view(), the same routine
 * a store load uses over the mapped (or read-in) file. Built, stored and
 * loaded indexes are therefore one kind of object — procedure hash sets
 * and posting arrays point into the arena, and only the O(procs)
 * fixed-size state (entries, names, summaries) is materialized — and
 * storing an index writes its arena bytes as they are.
 *
 * The header guards against stale or damaged blobs three ways:
 *
 *  - a format **version** (older blobs are rejected with a distinct
 *    ErrorCode::StaleFormat "stale format" error, never misparsed —
 *    a v4 or v5 store self-invalidates into cache misses),
 *  - a **layout hash** — a constant digest of the byte-layout
 *    descriptor, bumped whenever any field changes width or meaning, so
 *    a same-version blob written by an incompatible build is also
 *    rejected as stale,
 *  - a **payload checksum** (content_hash64 over every byte after the
 *    header), so bit flips, splices and truncations inside the payload
 *    are detected instead of producing a silently wrong index. The
 *    checksum, like the word order, is host-local: a blob carried to a
 *    host of the other endianness fails the guards and reads as a miss.
 *
 * Every failure path returns a clean Result error (MalformedContainer /
 * TruncatedMember / StaleFormat); callers treat any of them as a cache
 * miss and re-lift.
 */
#pragma once

#include <memory>

#include "sim/similarity.h"
#include "support/bytes.h"
#include "support/error.h"

namespace firmup::sim {

/** Current FWIX format version (serialize_index always writes this). */
inline constexpr std::uint16_t kFwixVersion = 6;

/**
 * Digest of the v6 byte-layout descriptor. Serialized into every blob
 * and compared on parse; a mismatch means the blob was written by an
 * incompatible layout and is rejected as ErrorCode::StaleFormat.
 */
std::uint64_t fwix_layout_hash();

/**
 * The FWIX v6 bytes of @p index: its arena as finalize() packed it (a
 * copy, no re-pack). A never-finalized index is packed on a copy, so
 * every blob is search-ready. Mutating a finalized index's procedures
 * without re-running finalize() is not reflected here.
 */
ByteBuffer serialize_index(const ExecutableIndex &index);

/**
 * Container-level guards alone: magic, version, layout hash and the
 * full payload checksum. open_index_view() runs this unless told the
 * caller already did; it is split out so the load path can attribute
 * checksum time separately from open time (IndexCacheStore::LoadStats).
 */
Result<bool> check_container(const std::uint8_t *bytes, std::size_t size);

/**
 * Open a zero-copy *view* of an FWIX v6 blob: the returned index's
 * procedure hash sets and CSR posting arrays point into @p bytes, and
 * @p backing is retained on the index to pin those bytes alive for as
 * long as any copy of the index exists (a copied procedure borrows the
 * bytes; it is valid while a copy of its index lives). finalize() opens
 * its freshly packed arena through this same routine.
 *
 * Validation contract: all container guards (check_container, run
 * here unless the caller already did — see @p checked) plus every
 * memory-safety invariant — arena bounds and alignment, posting offset
 * monotonicity and endpoints, posting procedure indices in range,
 * summary shape. Semantic invariants vouched for by the checksum (hash
 * sortedness inside an arena) are not re-scanned; that O(payload) work
 * is exactly what the view path exists to skip.
 *
 * A blob without the search-ready flag (no writer produces one) is
 * MalformedContainer.
 */
Result<ExecutableIndex> open_index_view(
    const std::uint8_t *bytes, std::size_t size,
    std::shared_ptr<const void> backing, bool checked = false);

}  // namespace firmup::sim
