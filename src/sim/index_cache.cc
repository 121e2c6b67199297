#include "sim/index_cache.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <system_error>
#include <thread>

#include "support/fsio.h"
#include "support/mmapfile.h"
#include "support/str.h"

namespace firmup::sim {

namespace fs = std::filesystem;

namespace {

double
seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

}  // namespace

IndexCacheStore::IndexCacheStore(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    // A failure here is deliberately not fatal: load() will miss and
    // store() will report IoError, so the scan degrades to cold.
}

std::string
IndexCacheStore::path_for(std::uint64_t content_key) const
{
    return strprintf("%s/%016llx.fwix", dir_.c_str(),
                     static_cast<unsigned long long>(content_key));
}

Result<ExecutableIndex>
IndexCacheStore::load(std::uint64_t content_key, bool use_mmap,
                      LoadStats *stats) const
{
    LoadStats local;
    const auto finish = [&](Result<ExecutableIndex> result) {
        if (stats != nullptr) {
            *stats = local;
        }
        return result;
    };
    const std::string path = path_for(content_key);
    std::shared_ptr<const void> backing;
    const std::uint8_t *bytes = nullptr;
    std::size_t size = 0;
    bool mapped_file = false;
    auto t0 = std::chrono::steady_clock::now();
    if (use_mmap) {
        if (auto mapped = MappedFile::map(path); mapped.ok()) {
            auto file =
                std::make_shared<MappedFile>(std::move(mapped).take());
            bytes = file->data();
            size = file->size();
            backing = std::move(file);
            mapped_file = true;
        }
    }
    if (backing == nullptr) {
        // Unmapped (by request, or the map failed — a missing file
        // lands here and issues the canonical miss): read the entry
        // into a heap buffer and view that.
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            return finish(Result<ExecutableIndex>::error(
                ErrorCode::IoError, "index cache miss: " + path));
        }
        auto buffer = std::make_shared<ByteBuffer>(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        if (in.bad()) {
            return finish(Result<ExecutableIndex>::error(
                ErrorCode::IoError, "index cache read failed: " + path));
        }
        bytes = buffer->data();
        size = buffer->size();
        backing = std::move(buffer);
    }
    local.open_seconds = seconds_since(t0);
    t0 = std::chrono::steady_clock::now();
    auto guard = check_container(bytes, size);
    local.checksum_seconds = seconds_since(t0);
    if (!guard.ok()) {
        return finish(Result<ExecutableIndex>::error_from(guard));
    }
    t0 = std::chrono::steady_clock::now();
    auto view = open_index_view(bytes, size, std::move(backing),
                                /*checked=*/true);
    local.parse_seconds = seconds_since(t0);
    local.mapped = mapped_file && view.ok();
    return finish(std::move(view));
}

Result<std::size_t>
IndexCacheStore::store(std::uint64_t content_key,
                       const ExecutableIndex &index) const
{
    // A finalized index is its arena: write it as it is. Only a
    // never-finalized one is packed, on a copy.
    ByteBuffer packed;
    const std::uint8_t *bytes = index.arena;
    std::size_t size = index.arena_bytes;
    if (bytes == nullptr) {
        packed = serialize_index(index);
        bytes = packed.data();
        size = packed.size();
    }
    const std::string path = path_for(content_key);
    // Unique per writer: concurrent stores of the same key each write
    // their own temp file and the last rename wins atomically.
    const std::string tmp = strprintf(
        "%s.tmp-%llu", path.c_str(),
        static_cast<unsigned long long>(std::hash<std::thread::id>{}(
            std::this_thread::get_id())));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes),
                  static_cast<std::streamsize>(size));
        if (!out) {
            std::error_code ec;
            fs::remove(tmp, ec);
            return Result<std::size_t>::error(
                ErrorCode::IoError, "index cache write failed: " + tmp);
        }
    }
    // Durability before publish: the rename is atomic in the namespace,
    // but without an fsync a crash shortly after can leave the *final*
    // path holding zero-length or partial data on some filesystems —
    // exactly the corrupt-entry class the loader then has to quarantine.
    // Sync the temp file so whatever gets renamed into place is the
    // complete blob or nothing.
    if (!fsync_path(tmp)) {
        std::error_code ec;
        fs::remove(tmp, ec);
        return Result<std::size_t>::error(
            ErrorCode::IoError, "index cache fsync failed: " + tmp);
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec == std::errc::cross_device_link) {
        // The temp normally shares the entry's directory, but callers
        // can hand a dir that is itself a mount boundary (overlay /
        // bind setups). Fall back to copying into a fresh dir-local
        // temp and renaming that — same atomicity, one extra copy.
        const std::string local_tmp = tmp + ".x";
        ec.clear();
        fs::copy_file(tmp, local_tmp,
                      fs::copy_options::overwrite_existing, ec);
        if (!ec && !fsync_path(local_tmp)) {
            ec = std::make_error_code(std::errc::io_error);
        }
        if (!ec) {
            fs::rename(local_tmp, path, ec);
        }
        std::error_code ec2;
        fs::remove(tmp, ec2);
        if (ec) {
            fs::remove(local_tmp, ec2);
        }
    }
    if (ec) {
        std::error_code ec2;
        fs::remove(tmp, ec2);
        return Result<std::size_t>::error(
            ErrorCode::IoError,
            "index cache publish failed: " + path + ": " + ec.message());
    }
    // The rename published a directory entry; fsync the directory so a
    // crash cannot roll the namespace back to "no such entry" while the
    // data blocks survive. Best-effort: a store that cannot sync its
    // directory still published a readable entry for this boot.
    fsync_dir(dir_);
    return size;
}

// ---- ResidentIndexCache ------------------------------------------------

std::shared_ptr<const ExecutableIndex>
ResidentIndexCache::get(std::uint64_t key)
{
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        ++stats_.misses;
        return nullptr;
    }
    it->second.tick = ++tick_;
    ++stats_.hits;
    return it->second.index;
}

void
ResidentIndexCache::put(std::uint64_t key,
                        std::shared_ptr<const ExecutableIndex> index)
{
    if (index == nullptr) {
        return;
    }
    const std::size_t bytes = index->memory_bytes();
    const std::lock_guard<std::mutex> lock(mu_);
    if (bytes > budget_bytes_) {
        // Never fits (budget 0 lands here too): don't thrash the rest
        // of the cache to make room for something unkeepable.
        return;
    }
    auto &entry = entries_[key];
    resident_bytes_ -= entry.bytes;  // 0 for a fresh entry
    entry.index = std::move(index);
    entry.bytes = bytes;
    entry.tick = ++tick_;
    resident_bytes_ += bytes;
    evict_to_budget_locked();
}

void
ResidentIndexCache::set_budget_bytes(std::size_t budget_bytes)
{
    const std::lock_guard<std::mutex> lock(mu_);
    budget_bytes_ = budget_bytes;
    evict_to_budget_locked();
}

std::size_t
ResidentIndexCache::budget_bytes() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return budget_bytes_;
}

void
ResidentIndexCache::clear()
{
    const std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    resident_bytes_ = 0;
}

ResidentIndexCache::Stats
ResidentIndexCache::stats() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    Stats out = stats_;
    out.resident_bytes = resident_bytes_;
    out.entries = entries_.size();
    return out;
}

void
ResidentIndexCache::evict_to_budget_locked()
{
    // Linear LRU scan per eviction: the cache holds at most a few
    // hundred corpus-sized indexes, so an O(n) victim search is noise
    // next to the load it prevented.
    while (resident_bytes_ > budget_bytes_ && !entries_.empty()) {
        auto victim = entries_.begin();
        for (auto it = std::next(victim); it != entries_.end(); ++it) {
            if (it->second.tick < victim->second.tick) {
                victim = it;
            }
        }
        resident_bytes_ -= victim->second.bytes;
        entries_.erase(victim);
        ++stats_.evictions;
    }
}

}  // namespace firmup::sim
