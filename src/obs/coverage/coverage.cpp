#include "obs/coverage/coverage.h"

#include <algorithm>
#include <vector>

#include "obs/trace.h"
#include "support/intern.h"

namespace conair::obs::cov {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t
fnvByte(uint64_t h, uint8_t b)
{
    return (h ^ b) * kFnvPrime;
}

uint64_t
fnvWord(uint64_t h, uint64_t w)
{
    for (int i = 0; i < 8; ++i)
        h = fnvByte(h, uint8_t(w >> (i * 8)));
    return h;
}

/**
 * A site signature identifies *where* an event happened, not when:
 * the event kind, its stable payload word (mutex cell for lock
 * traffic, packed cell address for shared accesses — never value
 * bits or clocks), and the site tag's characters.
 */
uint64_t
siteSig(const TraceEvent &ev)
{
    uint64_t h = fnvByte(kFnvOffset, uint8_t(ev.kind));
    h = fnvWord(h, ev.a);
    for (char c : tagName(ev.tag))
        h = fnvByte(h, uint8_t(c));
    return h;
}

uint64_t
edgeKey(EdgeKind kind, uint64_t from, uint64_t to)
{
    uint64_t h = fnvByte(kFnvOffset, uint8_t(kind));
    h = fnvWord(h, from);
    h = fnvWord(h, to);
    return h ? h : 1; // 0 is the CoverageMap empty-slot sentinel
}

bool
isSchedulerNoise(EventKind k)
{
    return k == EventKind::ThreadSpawn || k == EventKind::SchedSwitch ||
           k == EventKind::SchedPoint;
}

bool
isSyncRelevant(EventKind k)
{
    switch (k) {
      case EventKind::LockAcquire:
      case EventKind::LockBlock:
      case EventKind::LockTimeout:
      case EventKind::CompensationUnlock:
      case EventKind::SharedLoad:
      case EventKind::SharedStore:
        return true;
      default:
        return false;
    }
}

/** What siteSig() hashes: (kind, a, tag id) names one site. */
struct SiteKey
{
    uint64_t a = 0;
    uint32_t kindTag = 0; ///< kind << kTagIdBits | tag id

    bool operator==(const SiteKey &) const = default;
};

uint64_t
hashKey(uint64_t k)
{
    return k * 0x9E3779B97F4A7C15ull;
}

uint64_t
hashKey(const SiteKey &k)
{
    return hashKey(k.a ^ (uint64_t(k.kindTag) << 29));
}

/**
 * A flat open-addressed map for one fold's scratch state (power-of-two
 * capacity, Fibonacci hash, linear probing, at most half full).  It is
 * reused fold after fold: clear() bumps a generation stamp instead of
 * touching the slots, and a slot of an older generation reads as free.
 */
template <typename K, typename V>
class ScratchMap
{
  public:
    void
    clear()
    {
        used_ = 0;
        if (++gen_ == 0) { // stamps wrapped: really empty the slots
            for (Slot &s : slots_)
                s.gen = 0;
            gen_ = 1;
        }
    }

    /** The value for @p key, or nullptr. */
    V *
    find(const K &key)
    {
        if (slots_.empty())
            return nullptr;
        for (size_t i = slotOf(key);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.gen != gen_)
                return nullptr;
            if (s.key == key)
                return &s.val;
        }
    }

    /** The value for @p key, value-initialised when @p inserted. */
    V &
    get(const K &key, bool &inserted)
    {
        if (2 * (used_ + 1) > slots_.size())
            grow();
        for (size_t i = slotOf(key);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.gen != gen_) {
                s = Slot{key, V{}, gen_};
                ++used_;
                inserted = true;
                return s.val;
            }
            if (s.key == key) {
                inserted = false;
                return s.val;
            }
        }
    }

    /** Adds @p key; true iff it was absent. */
    bool
    insert(const K &key)
    {
        bool inserted;
        get(key, inserted);
        return inserted;
    }

  private:
    struct Slot
    {
        K key{};
        V val{};
        uint32_t gen = 0;
    };

    size_t
    slotOf(const K &key) const
    {
        return size_t(hashKey(key) >> shift_);
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        size_t n = std::max<size_t>(64, 2 * old.size());
        slots_.assign(n, Slot{});
        mask_ = n - 1;
        shift_ = 64 - unsigned(__builtin_ctzll(n));
        uint32_t gen = gen_;
        gen_ = 1;
        used_ = 0;
        for (const Slot &s : old) {
            bool inserted;
            if (s.gen == gen)
                get(s.key, inserted) = s.val;
        }
    }

    std::vector<Slot> slots_;
    size_t mask_ = 0;
    unsigned shift_ = 64;
    size_t used_ = 0;
    uint32_t gen_ = 1;
};

struct LastStore
{
    uint32_t tid = 0;
    uint64_t sig = 0;
};

/** foldCoverage()'s per-thread scratch, reused across folds. */
struct FoldScratch
{
    ScratchMap<uint64_t, bool> edgeSeen;       ///< edge keys this fold
    ScratchMap<uint64_t, bool> pairSeen;       ///< (from, to) pairs
    ScratchMap<uint64_t, LastStore> lastStore; ///< by packed address
    ScratchMap<SiteKey, uint64_t> sigs;        ///< siteSig() memo
};

} // namespace

const char *
edgeKindName(EdgeKind k)
{
    switch (k) {
      case EdgeKind::SyncSync: return "sync-sync";
      case EdgeKind::SwitchWindow: return "switch-window";
      case EdgeKind::RacyPair: return "racy-pair";
    }
    return "unknown";
}

CoverageFold
foldCoverage(const FlightRecorder &rec)
{
    CoverageFold fold;
    thread_local FoldScratch scratch;
    scratch.edgeSeen.clear();
    scratch.pairSeen.clear();
    scratch.lastStore.clear();
    scratch.sigs.clear();

    // A preemption between two sync-relevant sites shows up in *both*
    // folds: the SchedSwitch window closes on the same (from, to) site
    // pair the cross-thread sync fold records.  Two kinds mean two
    // distinct keys, so without pairSeen one interleaving fact would
    // be charged twice — inflating novelty counts and, downstream,
    // the mutation energy the guided explorer assigns to a schedule.
    // Dedup per run on the bare (from, to) pair: whichever of the two
    // folds sees the pair first owns it (SwitchWindow, since the
    // window check runs before the sync fold).  RacyPair edges have
    // different endpoint semantics (store site on the same cell) and
    // stay separate.
    auto addEdge = [&](EdgeKind kind, uint64_t from, uint64_t to,
                       const TraceEvent &at) {
        if ((kind == EdgeKind::SyncSync ||
             kind == EdgeKind::SwitchWindow) &&
            !scratch.pairSeen.insert(
                fnvWord(fnvWord(kFnvOffset, from), to)))
            return;
        Edge e;
        e.kind = kind;
        e.from = from;
        e.to = to;
        e.key = edgeKey(kind, from, to);
        e.clock = at.clock;
        e.step = at.step;
        e.tid = at.tid;
        if (scratch.edgeSeen.insert(e.key)) {
            fold.edges.push_back(e);
            ++fold.perKind[size_t(kind)];
        }
    };

    uint64_t lastSyncSig = 0;
    uint32_t lastSyncTid = 0;
    bool haveSync = false;

    uint64_t lastEvSig = 0;
    bool haveLastEv = false;

    uint64_t pendingSwitchFrom = 0;
    bool pendingSwitch = false;

    rec.forEachInOrder([&](const TraceEvent &ev) {
        if (ev.kind == EventKind::CoverageNovel ||
            ev.kind == EventKind::CoverageSnapshot)
            return; // re-folding an annotated trace stays stable
        if (ev.kind == EventKind::SchedSwitch) {
            // The window opens at the last real event before the
            // switch and closes at the first real event after it.
            if (haveLastEv) {
                pendingSwitch = true;
                pendingSwitchFrom = lastEvSig;
            }
            return;
        }
        if (isSchedulerNoise(ev.kind))
            return;

        bool fresh;
        uint64_t &memo = scratch.sigs.get(
            {ev.a, uint32_t(ev.kind) << kTagIdBits | ev.tag}, fresh);
        if (fresh)
            memo = siteSig(ev);
        const uint64_t sig = memo;

        if (pendingSwitch) {
            addEdge(EdgeKind::SwitchWindow, pendingSwitchFrom, sig, ev);
            pendingSwitch = false;
        }

        if (isSyncRelevant(ev.kind)) {
            if (haveSync && lastSyncTid != ev.tid)
                addEdge(EdgeKind::SyncSync, lastSyncSig, sig, ev);
            lastSyncSig = sig;
            lastSyncTid = ev.tid;
            haveSync = true;
        }

        if (ev.kind == EventKind::SharedStore) {
            bool first;
            LastStore &last = scratch.lastStore.get(ev.a, first);
            if (!first && last.tid != ev.tid)
                addEdge(EdgeKind::RacyPair, last.sig, sig, ev);
            last = {ev.tid, sig};
        } else if (ev.kind == EventKind::SharedLoad) {
            const LastStore *last = scratch.lastStore.find(ev.a);
            if (last && last->tid != ev.tid)
                addEdge(EdgeKind::RacyPair, last->sig, sig, ev);
        }

        lastEvSig = sig;
        haveLastEv = true;
    });

    std::sort(fold.edges.begin(), fold.edges.end(),
              [](const Edge &x, const Edge &y) { return x.key < y.key; });
    return fold;
}

uint64_t
coverageDigest(const std::vector<uint64_t> &sortedKeys)
{
    uint64_t h = kFnvOffset;
    for (uint64_t k : sortedKeys)
        h = fnvWord(h, k);
    return h;
}

uint64_t
coverageDigest(const std::vector<Edge> &sortedEdges)
{
    uint64_t h = kFnvOffset;
    for (const Edge &e : sortedEdges)
        h = fnvWord(h, e.key);
    return h;
}

void
annotateRecorder(FlightRecorder &rec, const std::vector<Edge> &novel,
                 uint64_t distinctAfter)
{
    uint64_t endClock = 0, endStep = 0;
    rec.forEachInOrder([&](const TraceEvent &ev) {
        endClock = std::max(endClock, ev.clock);
        endStep = std::max(endStep, ev.step);
    });
    for (const Edge &e : novel)
        rec.record(e.tid, EventKind::CoverageNovel, e.clock, e.step,
                   e.key, uint64_t(e.kind));
    rec.record(0, EventKind::CoverageSnapshot, endClock, endStep,
               distinctAfter, novel.size());
}

//
// CoverageMap.
//

namespace {

/** Probe-length cap: far beyond any sane load factor, small enough
 *  that a pathologically full table degrades to counted drops instead
 *  of full-table scans. */
constexpr size_t kMaxProbe = 256;

size_t
roundUpPow2(size_t n)
{
    size_t p = 1024;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

CoverageMap::CoverageMap(size_t capacity)
{
    size_t n = roundUpPow2(capacity);
    slots_ = std::make_unique<Slot[]>(n);
    mask_ = n - 1;
}

bool
CoverageMap::insert(const Edge &e)
{
    size_t idx = size_t(e.key) & mask_;
    size_t maxProbe = std::min(kMaxProbe, mask_ + 1);
    for (size_t probe = 0; probe < maxProbe;
         ++probe, idx = (idx + 1) & mask_) {
        Slot &s = slots_[idx];
        uint64_t k = s.key.load(std::memory_order_acquire);
        if (k == e.key)
            return false;
        if (k != 0)
            continue;
        uint64_t expected = 0;
        if (s.key.compare_exchange_strong(expected, e.key,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
            s.from.store(e.from, std::memory_order_relaxed);
            s.to.store(e.to, std::memory_order_relaxed);
            // The ready word publishes the payload (and doubles as
            // the kind): snapshot() acquire-loads it before trusting
            // from/to.
            s.ready.store(uint64_t(e.kind) + 1,
                          std::memory_order_release);
            distinct_.fetch_add(1, std::memory_order_acq_rel);
            return true;
        }
        if (expected == e.key)
            return false; // another worker won the same edge
        // A different key claimed the slot under us; keep probing.
    }
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
}

uint64_t
CoverageMap::insertAll(const std::vector<Edge> &edges)
{
    uint64_t novel = 0;
    for (const Edge &e : edges)
        novel += insert(e);
    return novel;
}

std::vector<Edge>
CoverageMap::snapshot() const
{
    std::vector<Edge> out;
    for (size_t i = 0; i <= mask_; ++i) {
        const Slot &s = slots_[i];
        uint64_t ready = s.ready.load(std::memory_order_acquire);
        if (ready == 0)
            continue; // empty or claimed-but-unpublished
        Edge e;
        e.key = s.key.load(std::memory_order_relaxed);
        e.from = s.from.load(std::memory_order_relaxed);
        e.to = s.to.load(std::memory_order_relaxed);
        e.kind = EdgeKind(ready - 1);
        out.push_back(e);
    }
    std::sort(out.begin(), out.end(),
              [](const Edge &x, const Edge &y) { return x.key < y.key; });
    return out;
}

uint64_t
CoverageMap::digest() const
{
    return coverageDigest(snapshot());
}

} // namespace conair::obs::cov
