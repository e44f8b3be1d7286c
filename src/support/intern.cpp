#include "support/intern.h"

#include <atomic>
#include <mutex>
#include <unordered_map>

#include "support/diag.h"

namespace conair {

namespace {

constexpr unsigned kChunkBits = 12;
constexpr size_t kChunkSize = size_t(1) << kChunkBits;
constexpr size_t kChunkMask = kChunkSize - 1;
constexpr size_t kMaxChunks = (size_t(1) << kTagIdBits) >> kChunkBits;

struct Table
{
    Table()
    {
        // Chunk 0 slot 0 stays the empty string: id 0 = kNoTag.
        chunks[0].store(new std::string[kChunkSize],
                        std::memory_order_relaxed);
    }

    std::mutex mu; ///< guards ids and chunk allocation
    std::unordered_map<std::string_view, TagId> ids; ///< views into chunks
    /// One past the highest id handed out.  Written under the mutex
    /// (release, after the id's string is in place), read by tagName()
    /// without it.
    std::atomic<TagId> next{1};

    /// Chunk directory.  A chunk never moves once allocated; tagName()
    /// reads it without the mutex, ordered by next.
    std::atomic<std::string *> chunks[kMaxChunks] = {};
};

Table &
table()
{
    // Never destroyed: ids handed out stay readable even from other
    // objects' destructors at exit.
    static Table *t = new Table;
    return *t;
}

} // namespace

TagId
intern(std::string_view s)
{
    if (s.empty())
        return kNoTag;
    Table &t = table();
    std::lock_guard<std::mutex> lock(t.mu);
    auto it = t.ids.find(s);
    if (it != t.ids.end())
        return it->second;
    TagId id = t.next.load(std::memory_order_relaxed);
    if (id >> kTagIdBits)
        fatal("intern: more than 2^24 distinct tags");
    std::atomic<std::string *> &slot = t.chunks[id >> kChunkBits];
    std::string *chunk = slot.load(std::memory_order_relaxed);
    if (!chunk) {
        chunk = new std::string[kChunkSize];
        slot.store(chunk, std::memory_order_relaxed);
    }
    std::string &entry = chunk[id & kChunkMask];
    entry.assign(s);
    t.ids.emplace(std::string_view(entry), id);
    t.next.store(id + 1, std::memory_order_release);
    return id;
}

const std::string &
tagName(TagId id)
{
    Table &t = table();
    // The acquire load of next pairs with intern()'s release store, so
    // the chunk pointer and the string of every id below it are
    // visible.
    if (id >= t.next.load(std::memory_order_acquire))
        fatal("tagName: id was never interned");
    return t.chunks[id >> kChunkBits].load(std::memory_order_relaxed)
        [id & kChunkMask];
}

} // namespace conair
