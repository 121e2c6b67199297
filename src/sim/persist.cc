#include "sim/persist.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "support/hash.h"
#include "support/trace.h"

namespace firmup::sim {

namespace {

const trace::Counter c_finalize_calls("index.finalize_calls");
const trace::Counter c_posting_hashes("index.posting_hashes");
const trace::Counter c_posting_incidences("index.posting_incidences");
const trace::Counter c_indexed_procs("index.procedures");

constexpr std::uint8_t kMagic[4] = {'F', 'W', 'I', 'X'};

/**
 * Header: magic(4) version(2) layout_hash(8) payload_checksum(8).
 * The checksum covers every byte from kHeaderSize to the end —
 * including the 2 alignment pad bytes before the directory.
 */
constexpr std::size_t kHeaderSize = 4 + 2 + 8 + 8;

/** The fixed offset directory starts 8-aligned, after 2 pad bytes. */
constexpr std::size_t kDirOffset = 24;

/** Directory field offsets (absolute; all u64 unless noted). */
constexpr std::size_t kDirTotalSize = kDirOffset + 0;
constexpr std::size_t kDirArch = kDirOffset + 8;       // u8
constexpr std::size_t kDirFlags = kDirOffset + 9;      // u8 (bit0 ready)
constexpr std::size_t kDirPad = kDirOffset + 10;       // u16, zero
constexpr std::size_t kDirProcCount = kDirOffset + 12; // u32
constexpr std::size_t kDirNameOff = kDirOffset + 16;
constexpr std::size_t kDirNameLen = kDirOffset + 24;
constexpr std::size_t kDirNamesOff = kDirOffset + 32;
constexpr std::size_t kDirNamesLen = kDirOffset + 40;
constexpr std::size_t kDirProcTableOff = kDirOffset + 48;
constexpr std::size_t kDirHashesOff = kDirOffset + 56;
constexpr std::size_t kDirHashesCount = kDirOffset + 64;
constexpr std::size_t kDirPhOff = kDirOffset + 72;
constexpr std::size_t kDirPhCount = kDirOffset + 80;
constexpr std::size_t kDirPoOff = kDirOffset + 88;
constexpr std::size_t kDirPoCount = kDirOffset + 96;
constexpr std::size_t kDirPpOff = kDirOffset + 104;
constexpr std::size_t kDirPpCount = kDirOffset + 112;
constexpr std::size_t kDirEnd = kDirOffset + 120;

/** Packed per-procedure record in the proc table (byte offsets). */
constexpr std::size_t kProcRecSize = 96;
constexpr std::size_t kProcEntry = 0;      // u64
constexpr std::size_t kProcHashOff = 8;    // u64, absolute, 8-aligned
constexpr std::size_t kProcHashCount = 16; // u32
constexpr std::size_t kProcNameOff = 20;   // u32, into names arena
constexpr std::size_t kProcNameLen = 24;   // u32
constexpr std::size_t kProcBlocks = 28;    // u32
constexpr std::size_t kProcStmts = 32;     // u32
constexpr std::size_t kProcFlags = 36;     // u32: bit0 summary
constexpr std::size_t kProcBucketBits = 40;  // 4 x u64
constexpr std::size_t kProcWordOffsets = 72; // 5 x u32
constexpr std::size_t kProcPad = 92;         // u32, zero

constexpr std::uint32_t kProcFlagSummary = 1u << 0;

constexpr std::uint8_t kDirFlagReady = 1u << 0;

std::uint64_t
payload_checksum(const std::uint8_t *bytes, std::size_t size)
{
    // content_hash64, not fnv1a64: the checksum pass is the dominant
    // cost of a warm mmap open (the view fixups are near-free), and
    // byte-serial FNV runs at ~1 byte/cycle. Host-local like the rest
    // of the store — a blob checked on a host of the other endianness
    // mismatches and degrades to a miss, never a wrong index.
    return content_hash64(std::string_view(
        reinterpret_cast<const char *>(bytes), size));
}

Result<ExecutableIndex>
malformed(const std::string &what)
{
    return Result<ExecutableIndex>::error(ErrorCode::MalformedContainer,
                                          "fwix: " + what);
}

Result<ExecutableIndex>
truncated(const std::string &what)
{
    return Result<ExecutableIndex>::error(ErrorCode::TruncatedMember,
                                          "fwix: truncated " + what);
}

/**
 * Host-order word access. Every word of the blob — header, directory,
 * proc table and arenas — is host-order, so the view reads arena words
 * in place on any host (the bytes are the historical little-endian ones
 * on little-endian hosts). memcpy keeps the scalar reads
 * alignment-agnostic; the arenas themselves are aligned by construction.
 */
template <typename T>
T
get(const std::uint8_t *p)
{
    T value;
    std::memcpy(&value, p, sizeof value);
    return value;
}

template <typename T>
void
put(std::uint8_t *p, T value)
{
    std::memcpy(p, &value, sizeof value);
}

constexpr std::size_t
align8(std::size_t n)
{
    return (n + 7) & ~std::size_t{7};
}

/**
 * The decoded v6 directory, bounds- and alignment-validated against the
 * blob size. Every offset is absolute; every count is in elements.
 */
struct Directory
{
    isa::Arch arch = isa::Arch::Mips32;
    std::uint32_t proc_count = 0;
    std::uint64_t name_off = 0, name_len = 0;
    std::uint64_t names_off = 0, names_len = 0;
    std::uint64_t proc_table_off = 0;
    std::uint64_t hashes_off = 0, hashes_count = 0;
    std::uint64_t ph_off = 0, ph_count = 0;
    std::uint64_t po_off = 0, po_count = 0;
    std::uint64_t pp_off = 0, pp_count = 0;
};

/**
 * Decode + validate the directory. Memory-safety contract: on success,
 * every arena [off, off + count * elem) lies within [kDirEnd, size) with
 * the alignment its element type needs, so arena pointers handed out by
 * the view can never read out of bounds.
 */
Result<ExecutableIndex>
read_directory(const std::uint8_t *bytes, std::size_t size, Directory &dir,
               bool *ok)
{
    *ok = false;
    if (size < kDirEnd) {
        return truncated("directory");
    }
    if (get<std::uint64_t>(bytes + kDirTotalSize) != size) {
        return malformed("total size mismatch");
    }
    if (get<std::uint16_t>(bytes + kHeaderSize) != 0 ||
        get<std::uint16_t>(bytes + kDirPad) != 0) {
        return malformed("bad padding");
    }
    const std::uint8_t arch_byte = bytes[kDirArch];
    if (arch_byte > static_cast<std::uint8_t>(isa::Arch::X86)) {
        return malformed("bad arch");
    }
    dir.arch = static_cast<isa::Arch>(arch_byte);
    const std::uint8_t flags = bytes[kDirFlags];
    if ((flags & ~kDirFlagReady) != 0) {
        return malformed("bad header flags");
    }
    if ((flags & kDirFlagReady) == 0) {
        // Every writer packs a finalized index; a blob without postings
        // is not one this build produced.
        return malformed("blob is not search-ready");
    }
    dir.proc_count = get<std::uint32_t>(bytes + kDirProcCount);
    dir.name_off = get<std::uint64_t>(bytes + kDirNameOff);
    dir.name_len = get<std::uint64_t>(bytes + kDirNameLen);
    dir.names_off = get<std::uint64_t>(bytes + kDirNamesOff);
    dir.names_len = get<std::uint64_t>(bytes + kDirNamesLen);
    dir.proc_table_off = get<std::uint64_t>(bytes + kDirProcTableOff);
    dir.hashes_off = get<std::uint64_t>(bytes + kDirHashesOff);
    dir.hashes_count = get<std::uint64_t>(bytes + kDirHashesCount);
    dir.ph_off = get<std::uint64_t>(bytes + kDirPhOff);
    dir.ph_count = get<std::uint64_t>(bytes + kDirPhCount);
    dir.po_off = get<std::uint64_t>(bytes + kDirPoOff);
    dir.po_count = get<std::uint64_t>(bytes + kDirPoCount);
    dir.pp_off = get<std::uint64_t>(bytes + kDirPpOff);
    dir.pp_count = get<std::uint64_t>(bytes + kDirPpCount);

    // Overflow-safe "arena fits": off within the blob, aligned, and
    // count * elem representable within the remaining bytes.
    const auto arena_ok = [size](std::uint64_t off, std::uint64_t count,
                                 std::uint64_t elem, std::uint64_t align) {
        if (off < kDirEnd || off > size) {
            return false;
        }
        if ((off & (align - 1)) != 0) {
            return false;
        }
        return elem == 0 || count <= (size - off) / elem;
    };
    if (!arena_ok(dir.name_off, dir.name_len, 1, 1) ||
        !arena_ok(dir.names_off, dir.names_len, 1, 1)) {
        return truncated("name arena");
    }
    if (!arena_ok(dir.proc_table_off, dir.proc_count, kProcRecSize, 8)) {
        return truncated("proc table");
    }
    if (!arena_ok(dir.hashes_off, dir.hashes_count, 8, 8)) {
        return truncated("hash arena");
    }
    if (!arena_ok(dir.ph_off, dir.ph_count, 8, 8) ||
        !arena_ok(dir.po_off, dir.po_count, 4, 4) ||
        !arena_ok(dir.pp_off, dir.pp_count, 4, 4)) {
        return truncated("posting arena");
    }
    if (dir.po_count != dir.ph_count + 1 ||
        dir.ph_count > UINT32_MAX || dir.pp_count > UINT32_MAX) {
        return malformed("inconsistent posting shape");
    }
    *ok = true;
    return malformed("unreachable");  // discarded when *ok
}

/** One decoded proc-table record, validated against the directory. */
struct ProcRec
{
    std::uint64_t entry = 0;
    std::uint64_t hash_off = 0;
    std::uint32_t hash_count = 0;
    std::uint32_t name_off = 0;
    std::uint32_t name_len = 0;
    std::uint32_t block_count = 0;
    std::uint32_t stmt_count = 0;
    bool summary = false;
    std::array<std::uint64_t, 4> bucket_bits{};
    std::array<std::uint32_t, 5> word_offsets{};
};

Result<ExecutableIndex>
read_proc_rec(const std::uint8_t *bytes, const Directory &dir,
              std::uint32_t i, ProcRec &rec, bool *ok)
{
    *ok = false;
    const std::uint8_t *p =
        bytes + dir.proc_table_off +
        static_cast<std::size_t>(i) * kProcRecSize;
    rec.entry = get<std::uint64_t>(p + kProcEntry);
    rec.hash_off = get<std::uint64_t>(p + kProcHashOff);
    rec.hash_count = get<std::uint32_t>(p + kProcHashCount);
    rec.name_off = get<std::uint32_t>(p + kProcNameOff);
    rec.name_len = get<std::uint32_t>(p + kProcNameLen);
    rec.block_count = get<std::uint32_t>(p + kProcBlocks);
    rec.stmt_count = get<std::uint32_t>(p + kProcStmts);
    const std::uint32_t flags = get<std::uint32_t>(p + kProcFlags);
    if ((flags & ~kProcFlagSummary) != 0) {
        return malformed("bad proc flags");
    }
    rec.summary = (flags & kProcFlagSummary) != 0;
    if (get<std::uint32_t>(p + kProcPad) != 0) {
        return malformed("bad proc padding");
    }
    // Hash span: absolute, 8-aligned, wholly inside the hash arena.
    if (rec.hash_off < dir.hashes_off ||
        (rec.hash_off & 7) != 0 ||
        (rec.hash_off - dir.hashes_off) / 8 + rec.hash_count >
            dir.hashes_count) {
        return truncated("proc hash span");
    }
    // Name span: relative, wholly inside the names arena.
    if (rec.name_off > dir.names_len ||
        rec.name_len > dir.names_len - rec.name_off) {
        return truncated("proc name span");
    }
    for (unsigned w = 0; w < 4; ++w) {
        rec.bucket_bits[w] = get<std::uint64_t>(p + kProcBucketBits + 8 * w);
    }
    std::uint32_t prev = 0;
    for (unsigned w = 0; w < 5; ++w) {
        rec.word_offsets[w] =
            get<std::uint32_t>(p + kProcWordOffsets + 4 * w);
        if (rec.word_offsets[w] < prev) {
            return malformed("unsorted summary offsets");
        }
        prev = rec.word_offsets[w];
    }
    if (rec.summary) {
        if (rec.word_offsets.front() != 0 ||
            rec.word_offsets.back() != rec.hash_count) {
            return malformed("inconsistent summary shape");
        }
    } else {
        for (const std::uint32_t o : rec.word_offsets) {
            if (o != 0) {
                return malformed("summary offsets without summary");
            }
        }
        for (const std::uint64_t w : rec.bucket_bits) {
            if (w != 0) {
                return malformed("summary bits without summary");
            }
        }
    }
    *ok = true;
    return malformed("unreachable");  // discarded when *ok
}

/**
 * CSR posting safety scan: offsets start at 0, never decrease, end
 * exactly at pp_count, and every procedure index is in range. These
 * bound every downstream posting walk (e.g. the per-procedure
 * accumulators in shared_candidates), so they are mandatory even though
 * the view copies nothing. Strict ascending order of the posting
 * *hashes* is a semantic property the checksum vouches for and is not
 * re-scanned.
 */
bool
postings_safe(const std::uint8_t *bytes, const Directory &dir)
{
    const std::uint8_t *po = bytes + dir.po_off;
    std::uint32_t prev = 0;
    for (std::uint64_t i = 0; i < dir.po_count; ++i) {
        const std::uint32_t o = get<std::uint32_t>(po + 4 * i);
        if (o < prev) {
            return false;
        }
        prev = o;
    }
    if (get<std::uint32_t>(po) != 0 ||
        get<std::uint32_t>(po + 4 * (dir.po_count - 1)) != dir.pp_count) {
        return false;
    }
    const std::uint8_t *pp = bytes + dir.pp_off;
    for (std::uint64_t i = 0; i < dir.pp_count; ++i) {
        if (get<std::uint32_t>(pp + 4 * i) >= dir.proc_count) {
            return false;
        }
    }
    return true;
}

/** Rebuild the O(procs) lookup maps (first occurrence wins). */
void
rebuild_maps(ExecutableIndex &index)
{
    index.entry_map.reserve(index.procs.size());
    index.name_map.reserve(index.procs.size());
    for (std::size_t i = 0; i < index.procs.size(); ++i) {
        index.entry_map.emplace(index.procs[i].entry,
                                static_cast<int>(i));
        index.name_map.emplace(index.procs[i].name,
                               static_cast<int>(i));
    }
}

/** True when @p repr is an owning set that is not sorted and unique. */
bool
needs_normalizing(const strand::ProcedureStrands &repr)
{
    return repr.hash_view == nullptr &&
           std::adjacent_find(repr.hashes.begin(), repr.hashes.end(),
                              [](std::uint64_t a, std::uint64_t b) {
                                  return a >= b;
                              }) != repr.hashes.end();
}

/**
 * Pack @p index — procedures, their hash sets and the CSR postings built
 * from them — into one FWIX v6 blob, checksum included. The only arena
 * writer: finalize() opens its output as the index itself and
 * serialize_index() returns it. Hand-built sets that are not a flat set
 * are sorted and deduplicated first; each procedure's owning hash
 * vector is released once its hashes are packed.
 */
ByteBuffer
pack_arena(ExecutableIndex &index)
{
    const std::size_t proc_count = index.procs.size();
    std::size_t total_hashes = 0;
    std::size_t names_len = 0;
    for (ProcEntry &proc : index.procs) {
        if (needs_normalizing(proc.repr)) {
            proc.repr.finalize();
        }
        total_hashes += proc.repr.hash_count();
        names_len += proc.name.size();
    }
    // CSR inverted index: one (hash, proc) incidence per strand, sorted
    // by hash then procedure so every posting list is ascending.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> incidences;
    incidences.reserve(total_hashes);
    for (std::size_t i = 0; i < proc_count; ++i) {
        const std::uint64_t *h = index.procs[i].repr.hash_data();
        const std::uint64_t *he = h + index.procs[i].repr.hash_count();
        for (; h != he; ++h) {
            incidences.emplace_back(*h, static_cast<std::uint32_t>(i));
        }
    }
    std::sort(incidences.begin(), incidences.end());
    std::size_t distinct = 0;
    for (std::size_t k = 0; k < incidences.size(); ++k) {
        distinct += k == 0 || incidences[k].first != incidences[k - 1].first;
    }

    // Arena offsets: names byte-packed, everything typed 8-aligned (the
    // 96-byte proc table keeps the hash arena aligned; the u32 posting
    // arrays follow the u64 ones).
    const std::size_t name_off = kDirEnd;
    const std::size_t names_off = align8(name_off + index.name.size());
    const std::size_t table_off = align8(names_off + names_len);
    const std::size_t hashes_off = table_off + proc_count * kProcRecSize;
    const std::size_t ph_off = hashes_off + total_hashes * 8;
    const std::size_t po_off = ph_off + distinct * 8;
    const std::size_t pp_off = po_off + (distinct + 1) * 4;
    const std::size_t size = pp_off + incidences.size() * 4;

    ByteBuffer out(size, 0);
    std::uint8_t *b = out.data();
    std::memcpy(b, kMagic, sizeof kMagic);
    put<std::uint16_t>(b + 4, kFwixVersion);
    put<std::uint64_t>(b + 6, fwix_layout_hash());
    put<std::uint64_t>(b + kDirTotalSize, size);
    b[kDirArch] = static_cast<std::uint8_t>(index.arch);
    b[kDirFlags] = kDirFlagReady;
    put<std::uint32_t>(b + kDirProcCount,
                       static_cast<std::uint32_t>(proc_count));
    put<std::uint64_t>(b + kDirNameOff, name_off);
    put<std::uint64_t>(b + kDirNameLen, index.name.size());
    put<std::uint64_t>(b + kDirNamesOff, names_off);
    put<std::uint64_t>(b + kDirNamesLen, names_len);
    put<std::uint64_t>(b + kDirProcTableOff, table_off);
    put<std::uint64_t>(b + kDirHashesOff, hashes_off);
    put<std::uint64_t>(b + kDirHashesCount, total_hashes);
    put<std::uint64_t>(b + kDirPhOff, ph_off);
    put<std::uint64_t>(b + kDirPhCount, distinct);
    put<std::uint64_t>(b + kDirPoOff, po_off);
    put<std::uint64_t>(b + kDirPoCount, distinct + 1);
    put<std::uint64_t>(b + kDirPpOff, pp_off);
    put<std::uint64_t>(b + kDirPpCount, incidences.size());
    std::memcpy(b + name_off, index.name.data(), index.name.size());

    std::size_t name_at = 0;
    std::size_t hash_at = hashes_off;
    for (std::size_t i = 0; i < proc_count; ++i) {
        ProcEntry &proc = index.procs[i];
        std::uint8_t *rec = b + table_off + i * kProcRecSize;
        const std::size_t count = proc.repr.hash_count();
        put<std::uint64_t>(rec + kProcEntry, proc.entry);
        put<std::uint64_t>(rec + kProcHashOff, hash_at);
        put<std::uint32_t>(rec + kProcHashCount,
                           static_cast<std::uint32_t>(count));
        put<std::uint32_t>(rec + kProcNameOff,
                           static_cast<std::uint32_t>(name_at));
        put<std::uint32_t>(rec + kProcNameLen,
                           static_cast<std::uint32_t>(proc.name.size()));
        put<std::uint32_t>(rec + kProcBlocks,
                           static_cast<std::uint32_t>(proc.repr.block_count));
        put<std::uint32_t>(rec + kProcStmts,
                           static_cast<std::uint32_t>(proc.repr.stmt_count));
        if (proc.repr.summary_built) {
            put<std::uint32_t>(rec + kProcFlags, kProcFlagSummary);
            for (unsigned w = 0; w < 4; ++w) {
                put<std::uint64_t>(rec + kProcBucketBits + 8 * w,
                                   proc.repr.bucket_bits[w]);
            }
            for (unsigned w = 0; w < 5; ++w) {
                put<std::uint32_t>(rec + kProcWordOffsets + 4 * w,
                                   proc.repr.word_offsets[w]);
            }
        }
        std::memcpy(b + names_off + name_at, proc.name.data(),
                    proc.name.size());
        name_at += proc.name.size();
        if (count != 0) {
            std::memcpy(b + hash_at, proc.repr.hash_data(), count * 8);
        }
        hash_at += count * 8;
        std::vector<std::uint64_t>().swap(proc.repr.hashes);
    }

    std::size_t row = 0;
    for (std::size_t k = 0; k < incidences.size(); ++k) {
        const auto &[hash, proc] = incidences[k];
        if (k == 0 || hash != incidences[k - 1].first) {
            put<std::uint64_t>(b + ph_off + 8 * row, hash);
            put<std::uint32_t>(b + po_off + 4 * row,
                               static_cast<std::uint32_t>(k));
            ++row;
        }
        put<std::uint32_t>(b + pp_off + 4 * k, proc);
    }
    put<std::uint32_t>(b + po_off + 4 * distinct,
                       static_cast<std::uint32_t>(incidences.size()));
    put<std::uint64_t>(b + 14,
                       payload_checksum(b + kHeaderSize, size - kHeaderSize));
    return out;
}

}  // namespace

std::uint64_t
fwix_layout_hash()
{
    // Descriptor of the byte layout; bump the string whenever any
    // field changes width, order or meaning so old caches read as stale
    // instead of misparsing. The canon(...) tag names the canonical
    // strand byte-format revision: cached hashes are only comparable to
    // freshly computed ones when the canonicalizer that produced them
    // emitted the same byte sequence, so a format change (e.g. the
    // pinned left-to-right emission order of stream-v2; DESIGN.md
    // section 12) must invalidate old caches the same way a layout
    // change does.
    static const std::uint64_t hash = fnv1a64(
        "fwix-v6:hdr(magic4,ver-u16,layout-u64,ch64lane-payload-u64,"
        "pad-u16);dir@24(total-u64,arch-u8,flags-u8,pad-u16,procs-u32,"
        "name-u64x2,names-u64x2,ptab-u64,hashes-u64x2,"
        "ph-u64x2,po-u64x2,pp-u64x2);"
        "prec96(entry-u64,hoff-u64,hcnt-u32,noff-u32,nlen-u32,"
        "blocks-u32,stmts-u32,flags-u32,bits-4xu64,"
        "woffs-5xu32,pad-u32);canon(stream-v2,lr-names)");
    return hash;
}

void
ExecutableIndex::finalize()
{
    // The live spans may point into the current arena: pack first, and
    // only then let the re-opened view replace it (and its backing).
    auto buffer = std::make_shared<ByteBuffer>(pack_arena(*this));
    auto opened = open_index_view(buffer->data(), buffer->size(), buffer,
                                  /*checked=*/true);
    FIRMUP_ASSERT(opened.ok(),
                  "packed arena failed to open: " + opened.error_message());
    *this = std::move(opened).take();
    c_finalize_calls.add();
    c_posting_hashes.add(posting_count);
    c_posting_incidences.add(posting_incidences);
    c_indexed_procs.add(procs.size());
}

ByteBuffer
serialize_index(const ExecutableIndex &index)
{
    if (index.arena != nullptr) {
        return ByteBuffer(index.arena, index.arena + index.arena_bytes);
    }
    // Never finalized (a hand-built index): pack a copy, so every blob
    // carries its postings.
    ExecutableIndex copy = index;
    return pack_arena(copy);
}

Result<bool>
check_container(const std::uint8_t *bytes, std::size_t size)
{
    if (size < 6 || std::memcmp(bytes, kMagic, 4) != 0) {
        return Result<bool>::error(ErrorCode::MalformedContainer,
                                   "fwix: bad magic");
    }
    const std::uint16_t version = get<std::uint16_t>(bytes + 4);
    if (version != kFwixVersion) {
        return Result<bool>::error(
            ErrorCode::StaleFormat,
            "fwix: stale format version " + std::to_string(version) +
                " (want " + std::to_string(kFwixVersion) + ")");
    }
    if (size < kHeaderSize) {
        return Result<bool>::error(ErrorCode::TruncatedMember,
                                   "fwix: truncated header");
    }
    if (get<std::uint64_t>(bytes + 6) != fwix_layout_hash()) {
        return Result<bool>::error(ErrorCode::StaleFormat,
                                   "fwix: stale layout hash");
    }
    if (get<std::uint64_t>(bytes + 14) !=
        payload_checksum(bytes + kHeaderSize, size - kHeaderSize)) {
        return Result<bool>::error(ErrorCode::MalformedContainer,
                                   "fwix: payload checksum mismatch");
    }
    return true;
}

Result<ExecutableIndex>
open_index_view(const std::uint8_t *bytes, std::size_t size,
                std::shared_ptr<const void> backing, bool checked)
{
    if (!checked) {
        auto guard = check_container(bytes, size);
        if (!guard.ok()) {
            return Result<ExecutableIndex>::error_from(guard);
        }
    }
    Directory dir;
    bool dir_ok = false;
    auto dir_err = read_directory(bytes, size, dir, &dir_ok);
    if (!dir_ok) {
        return dir_err;
    }
    if (!postings_safe(bytes, dir)) {
        return malformed("inconsistent posting shape");
    }

    ExecutableIndex index;
    index.arch = dir.arch;
    index.name.assign(
        reinterpret_cast<const char *>(bytes + dir.name_off),
        dir.name_len);
    index.procs.reserve(dir.proc_count);
    for (std::uint32_t i = 0; i < dir.proc_count; ++i) {
        ProcRec rec;
        bool rec_ok = false;
        auto rec_err = read_proc_rec(bytes, dir, i, rec, &rec_ok);
        if (!rec_ok) {
            return rec_err;
        }
        ProcEntry proc;
        proc.entry = rec.entry;
        proc.name.assign(reinterpret_cast<const char *>(
                             bytes + dir.names_off + rec.name_off),
                         rec.name_len);
        proc.repr.hash_view = reinterpret_cast<const std::uint64_t *>(
            bytes + rec.hash_off);
        proc.repr.hash_view_count = rec.hash_count;
        proc.repr.block_count = rec.block_count;
        proc.repr.stmt_count = rec.stmt_count;
        if (rec.summary) {
            proc.repr.bucket_bits = rec.bucket_bits;
            proc.repr.word_offsets = rec.word_offsets;
            proc.repr.summary_built = true;
        }
        index.procs.push_back(std::move(proc));
    }
    index.posting_hash_ptr =
        reinterpret_cast<const std::uint64_t *>(bytes + dir.ph_off);
    index.posting_offset_ptr =
        reinterpret_cast<const std::uint32_t *>(bytes + dir.po_off);
    index.posting_proc_ptr =
        reinterpret_cast<const std::uint32_t *>(bytes + dir.pp_off);
    index.posting_count = static_cast<std::uint32_t>(dir.ph_count);
    index.posting_incidences = static_cast<std::uint32_t>(dir.pp_count);
    rebuild_maps(index);
    index.search_ready = true;
    index.backing = std::move(backing);
    index.arena = bytes;
    index.arena_bytes = size;
    return index;
}

}  // namespace firmup::sim
