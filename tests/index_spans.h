/**
 * @file
 * Test helpers that read an executable index through its live storage.
 *
 * A finalized or loaded index keeps every procedure's strand hashes and
 * the CSR postings in its FWIX v6 arena, so the owning `repr.hashes`
 * vectors are empty there and an equality check on them would pass
 * vacuously. These copy the live spans into vectors for EXPECT_EQ.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "sim/similarity.h"

namespace firmup {

/** The hashes @p repr holds, wherever they live. */
inline std::vector<std::uint64_t>
live_hashes(const strand::ProcedureStrands &repr)
{
    return {repr.hash_data(), repr.hash_data() + repr.hash_count()};
}

/** The sorted posting-hash union of @p index. */
inline std::vector<std::uint64_t>
posting_hashes_of(const sim::ExecutableIndex &index)
{
    return {index.posting_hash_data(),
            index.posting_hash_data() + index.posting_hash_count()};
}

/** The CSR row offsets of @p index (empty before finalize()). */
inline std::vector<std::uint32_t>
posting_offsets_of(const sim::ExecutableIndex &index)
{
    if (!index.search_ready) {
        return {};
    }
    return {index.posting_offset_data(),
            index.posting_offset_data() + index.posting_hash_count() + 1};
}

/** The CSR procedure column of @p index. */
inline std::vector<std::uint32_t>
posting_procs_of(const sim::ExecutableIndex &index)
{
    return {index.posting_proc_data(),
            index.posting_proc_data() + index.posting_proc_count()};
}

}  // namespace firmup
