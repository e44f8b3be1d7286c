/**
 * @file
 * Coverage-guided exploration (src/explore/guided.h): mutation
 * determinism, the point-materialisation mirror, corpus round-trips
 * with the strict parser, worker-count independence of the whole
 * search (corpus digest, guided summary, seeds-to-first-failure), and
 * the replay obligation — every persisted corpus entry replays
 * strictly on both engines.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "apps/harness.h"
#include "explore/evidence.h"
#include "explore/guided.h"
#include "obs/replay/replay_log.h"
#include "obs/replay/replay_run.h"
#include "obs/trace.h"
#include "vm/interp.h"

namespace conair::explore {
namespace {

CorpusEntry
sampleEntry()
{
    CorpusEntry e;
    e.spec = {vm::SchedPolicy::Pct, 17, 3, {}};
    e.spec.points = {120, 340};
    e.novelEdges = {3, 9, 11};
    e.ordinal = 1;
    return e;
}

TEST(MutOps, NamesRoundTrip)
{
    for (size_t i = 0; i < kMutOpCount; ++i) {
        MutOp parsed;
        ASSERT_TRUE(mutOpFromName(mutOpName(MutOp(i)), parsed));
        EXPECT_EQ(parsed, MutOp(i));
    }
    MutOp op;
    EXPECT_FALSE(mutOpFromName("fresh", op));
    EXPECT_FALSE(mutOpFromName("NUDGE", op));
    EXPECT_FALSE(mutOpFromName("", op));
}

// The mutation-determinism property: a mutation is a pure function of
// (entry, operator, RNG state).  Same seed, same mutated token —
// that's what makes the whole guided search replayable and
// worker-count independent.
TEST(MutateSpec, SameEntryAndRngSeedSameMutatedToken)
{
    CorpusEntry e = sampleEntry();
    for (size_t opi = 0; opi < kMutOpCount; ++opi) {
        for (uint64_t seed = 1; seed <= 64; ++seed) {
            Rng r1(seed), r2(seed);
            ScheduleSpec a, b;
            bool okA = mutateSpec(e, MutOp(opi), 2'000, 24, r1, a);
            bool okB = mutateSpec(e, MutOp(opi), 2'000, 24, r2, b);
            ASSERT_EQ(okA, okB) << mutOpName(MutOp(opi));
            if (okA) {
                EXPECT_EQ(a.token(), b.token())
                    << mutOpName(MutOp(opi)) << " seed " << seed;
            }
        }
    }
    // Different RNG seeds must be able to produce different nudges;
    // otherwise the "RNG state" half of the property is vacuous.
    Rng r1(1), r2(2);
    ScheduleSpec a, b;
    ASSERT_TRUE(mutateSpec(e, MutOp::Nudge, 2'000, 24, r1, a));
    ASSERT_TRUE(mutateSpec(e, MutOp::Nudge, 2'000, 24, r2, b));
    EXPECT_NE(a.token(), b.token());
}

TEST(MutateSpec, OutputsStayCanonical)
{
    // Property sweep: whatever the entry and operator, a successful
    // mutation yields strictly increasing points >= 1 on a systematic
    // policy with depth >= 1 — i.e. a spec whose token parses back.
    Rng rng(7);
    for (int iter = 0; iter < 2'000; ++iter) {
        CorpusEntry e;
        e.spec.policy = rng.chance(1, 2) ? vm::SchedPolicy::Pct
                                         : vm::SchedPolicy::PreemptBound;
        e.spec.depth = uint32_t(1 + rng.range(4));
        e.spec.seed = rng.next();
        for (uint64_t n = rng.range(4); n > 0; --n)
            e.spec.points.push_back(1 + rng.range(500));
        std::sort(e.spec.points.begin(), e.spec.points.end());
        e.spec.points.erase(std::unique(e.spec.points.begin(),
                                        e.spec.points.end()),
                            e.spec.points.end());

        MutOp op = MutOp(rng.range(kMutOpCount));
        ScheduleSpec out;
        if (!mutateSpec(e, op, 500, 24, rng, out))
            continue;
        ASSERT_FALSE(out.points.empty()) << mutOpName(op);
        ASSERT_GE(out.depth, 1u) << mutOpName(op);
        for (size_t i = 0; i < out.points.size(); ++i) {
            ASSERT_GE(out.points[i], 1u) << mutOpName(op);
            if (i > 0) {
                ASSERT_GT(out.points[i], out.points[i - 1])
                    << mutOpName(op);
            }
        }
        ScheduleSpec parsed;
        std::string err;
        ASSERT_TRUE(parseScheduleToken(out.token(), parsed, err))
            << out.token() << ": " << err;
        EXPECT_EQ(parsed, out);
    }
}

TEST(MutateSpec, InapplicableOperatorsReturnFalse)
{
    Rng rng(3);
    ScheduleSpec out;

    CorpusEntry onePoint = sampleEntry();
    onePoint.spec.points = {50};
    EXPECT_FALSE(mutateSpec(onePoint, MutOp::Drop, 2'000, 24, rng, out));

    CorpusEntry pb = sampleEntry();
    pb.spec.policy = vm::SchedPolicy::PreemptBound;
    pb.spec.depth = 2;
    EXPECT_FALSE(
        mutateSpec(pb, MutOp::DepthBump, 2'000, 24, rng, out));

    CorpusEntry rand;
    rand.spec = {vm::SchedPolicy::Random, 1, 0, {}};
    for (size_t opi = 0; opi < kMutOpCount; ++opi)
        EXPECT_FALSE(mutateSpec(rand, MutOp(opi), 2'000, 24, rng, out))
            << mutOpName(MutOp(opi));
}

TEST(MutateSpec, CrossPolicySwapsFamilies)
{
    Rng rng(5);
    ScheduleSpec out;
    CorpusEntry e = sampleEntry(); // pct:d3, 2 points
    ASSERT_TRUE(mutateSpec(e, MutOp::CrossPolicy, 2'000, 24, rng, out));
    EXPECT_EQ(out.policy, vm::SchedPolicy::PreemptBound);
    EXPECT_EQ(out.depth, 2u); // bound == point count
    EXPECT_EQ(out.points, e.spec.points);

    CorpusEntry back;
    back.spec = out;
    ASSERT_TRUE(
        mutateSpec(back, MutOp::CrossPolicy, 2'000, 24, rng, out));
    EXPECT_EQ(out.policy, vm::SchedPolicy::Pct);
    EXPECT_EQ(out.depth, 3u); // points + 1 priority bands
}

TEST(MutateSpec, NearAddStaysInTheAnchorNeighbourhood)
{
    // The two-window probe: the inserted point lands within 4x the
    // nudge radius of one of the entry's existing points.
    CorpusEntry e = sampleEntry(); // points {120, 340}
    const uint64_t nudgeMax = 24;
    Rng rng(11);
    for (int iter = 0; iter < 200; ++iter) {
        ScheduleSpec out;
        ASSERT_TRUE(
            mutateSpec(e, MutOp::NearAdd, 2'000, nudgeMax, rng, out));
        ASSERT_EQ(out.depth, e.spec.depth + 1);
        // Exactly one new point, near an anchor.
        std::vector<uint64_t> added;
        for (uint64_t p : out.points)
            if (p != 120 && p != 340)
                added.push_back(p);
        ASSERT_LE(added.size(), 1u);
        if (added.empty())
            continue; // landed on an existing point and deduped
        uint64_t p = added[0];
        uint64_t d1 = p > 120 ? p - 120 : 120 - p;
        uint64_t d2 = p > 340 ? p - 340 : 340 - p;
        EXPECT_LE(std::min(d1, d2), 4 * nudgeMax) << p;
    }
}

TEST(CorpusEntryEnergy, RacyEdgesWeighHeavier)
{
    CorpusEntry plain = sampleEntry(); // 3 novel edges, racy 0
    EXPECT_EQ(plain.energy(), 3u);
    CorpusEntry racy = sampleEntry();
    racy.racy = 2;
    EXPECT_EQ(racy.energy(), 3u + 2 * kRacyEnergyBoost);
}

//
// Corpus serialisation.
//

Corpus
sampleCorpus()
{
    Corpus c;
    c.program = "ZSNES";
    CorpusEntry fresh = sampleEntry();
    fresh.op = "fresh";
    c.entries.push_back(fresh);

    CorpusEntry mut;
    mut.spec = {vm::SchedPolicy::PreemptBound, 17, 2, {}};
    mut.spec.points = {120, 364};
    mut.novelEdges = {0x10, 0xfedcba9876543210ull};
    mut.racy = 2;
    mut.ordinal = 9;
    mut.op = "nudge";
    mut.parent = fresh.spec.token();
    c.entries.push_back(mut);
    return c;
}

TEST(Corpus, SerialisesByteIdenticallyThroughParse)
{
    Corpus c = sampleCorpus();
    std::string text = c.serialize();

    Corpus parsed;
    std::string err;
    ASSERT_TRUE(parseCorpus(text, parsed, err)) << err;
    EXPECT_EQ(parsed.program, c.program);
    ASSERT_EQ(parsed.entries.size(), c.entries.size());
    for (size_t i = 0; i < c.entries.size(); ++i)
        EXPECT_EQ(parsed.entries[i], c.entries[i]) << i;

    EXPECT_EQ(parsed.serialize(), text);
    EXPECT_EQ(parsed.digest(), c.digest());
}

TEST(Corpus, DigestIgnoresProgramNameOnly)
{
    Corpus a = sampleCorpus();
    Corpus b = a;
    b.program = "Renamed";
    EXPECT_EQ(a.digest(), b.digest());

    Corpus c = a;
    c.entries[0].novelEdges.push_back(0x99);
    EXPECT_NE(a.digest(), c.digest());
}

TEST(Corpus, TruncationAlwaysFailsWithALineNumberedError)
{
    std::string text = sampleCorpus().serialize();
    std::vector<std::string> lines;
    std::istringstream is(text);
    for (std::string l; std::getline(is, l);)
        lines.push_back(l);
    ASSERT_GT(lines.size(), 3u);

    for (size_t keep = 0; keep < lines.size(); ++keep) {
        std::string prefix;
        for (size_t i = 0; i < keep; ++i)
            prefix += lines[i] + "\n";
        Corpus out;
        std::string err;
        EXPECT_FALSE(parseCorpus(prefix, out, err))
            << "prefix of " << keep << " lines parsed";
        EXPECT_NE(err.find("corpus line"), std::string::npos) << err;
    }
}

TEST(Corpus, StrictParserNamesTheOffendingLine)
{
    const std::string good = sampleCorpus().serialize();
    auto replaceOnce = [&](const std::string &from,
                           const std::string &to) {
        std::string t = good;
        size_t at = t.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        t.replace(at, from.size(), to);
        return t;
    };

    struct Case
    {
        std::string text;
        const char *expect;
    };
    const Case cases[] = {
        {replaceOnce("conair-corpus v1", "conair-corpus v2"),
         "unsupported version"},
        {replaceOnce("conair-corpus v1", "replay-log v1"),
         "bad header"},
        {replaceOnce("program ZSNES", "program  ZSNES"),
         "expected 'program"},
        {replaceOnce("entries 2", "entries two"), "expected 'entries"},
        {replaceOnce("entry 1", "entry 7"), "out of order"},
        {replaceOnce("ordinal 1", "ordinal 0"), "ordinal must be"},
        {replaceOnce("racy 2", "racy -2"), "expected 'racy"},
        {replaceOnce("op nudge", "op splice"),
         "unknown mutation operator"},
        {replaceOnce("token pct:d3:s17:c120,340",
                     "token pct:d3:s17:c340,120"),
         "bad schedule token"},
        {replaceOnce("parent pct:d3:s17:c120,340", "parent bogus"),
         "bad parent token"},
        {replaceOnce("edges 3", "edges 2"), "does not match"},
        {replaceOnce("edges 2 0000000000000010",
                     "edges 2 000000000000001g"),
         "bad edge key"},
        {replaceOnce("edges 2 0000000000000010 fedcba9876543210",
                     "edges 2 fedcba9876543210 0000000000000010"),
         "strictly increasing"},
        {good + "extra\n", "trailing content"},
        {replaceOnce("end", "fin"), "expected 'end'"},
    };
    for (const Case &tc : cases) {
        Corpus out;
        std::string err;
        EXPECT_FALSE(parseCorpus(tc.text, out, err)) << tc.expect;
        EXPECT_NE(err.find("corpus line"), std::string::npos) << err;
        EXPECT_NE(err.find(tc.expect), std::string::npos)
            << "want '" << tc.expect << "' in: " << err;
    }
}

TEST(Corpus, SaveLoadRoundTripsAndMissingFileFails)
{
    Corpus c = sampleCorpus();
    std::string path =
        ::testing::TempDir() + "guided_corpus_roundtrip.corpus";
    std::string err;
    ASSERT_TRUE(saveCorpus(path, c, err)) << err;

    Corpus loaded;
    ASSERT_TRUE(loadCorpus(path, loaded, err)) << err;
    EXPECT_EQ(loaded.serialize(), c.serialize());
    EXPECT_EQ(loaded.digest(), c.digest());
    std::remove(path.c_str());

    EXPECT_FALSE(loadCorpus(path, loaded, err));
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

//
// The guided driver on real kernels.
//

class GuidedFixture : public ::testing::Test
{
  protected:
    static apps::CampaignApp
    prepare(const char *name)
    {
        const apps::AppSpec *spec = apps::findApp(name);
        EXPECT_NE(spec, nullptr) << name;
        return apps::prepareCampaignApp(*spec);
    }

    static CampaignOptions
    smallOptions()
    {
        CampaignOptions opts;
        opts.maxSteps = 2'000'000;
        return opts;
    }
};

// derivePoints must mirror the scheduler's own sampling exactly: a
// spec re-run with its materialised points pinned is the *same
// schedule*, tick for tick.
TEST_F(GuidedFixture, DerivedPointsReproduceTheSampledSchedule)
{
    apps::CampaignApp app = prepare("ZSNES");
    Target t = apps::campaignTarget(app);
    CampaignOptions opts = smallOptions();
    opts.collectCoverage = true;

    for (uint64_t seed = 1; seed <= 6; ++seed) {
        ScheduleSpec sampled{vm::SchedPolicy::Pct, seed, 3, {}};
        ScheduleOutcome a = runOneSchedule(t, sampled, opts);

        ScheduleSpec pinned = sampled;
        pinned.points = derivePoints(sampled, t.horizon);
        ASSERT_EQ(pinned.points.size(), 2u); // depth - 1 draws
        ScheduleOutcome b = runOneSchedule(t, pinned, opts);

        EXPECT_EQ(a.unhardened, b.unhardened) << seed;
        EXPECT_EQ(a.unhardenedCorrect, b.unhardenedCorrect) << seed;
        EXPECT_EQ(a.steps, b.steps) << seed;
        ASSERT_EQ(a.coverage.size(), b.coverage.size()) << seed;
        for (size_t i = 0; i < a.coverage.size(); ++i)
            EXPECT_EQ(a.coverage[i].key, b.coverage[i].key) << seed;
    }
}

TEST_F(GuidedFixture, SearchIsIndependentOfWorkerCount)
{
    apps::CampaignApp app = prepare("ZSNES");
    Target t = apps::campaignTarget(app);

    GuidedOptions g;
    g.budget = 24;
    g.batch = 8;
    g.stopAtFirstFailure = false; // exercise the whole budget

    CampaignOptions opts = smallOptions();
    opts.workers = 1;
    GuidedResult serial = runGuided(t, opts, g);
    opts.workers = 4;
    GuidedResult parallel = runGuided(t, opts, g);

    EXPECT_EQ(serial.schedules, parallel.schedules);
    EXPECT_EQ(serial.freshSchedules, parallel.freshSchedules);
    EXPECT_EQ(serial.mutatedSchedules, parallel.mutatedSchedules);
    EXPECT_EQ(serial.freshNovel, parallel.freshNovel);
    EXPECT_EQ(serial.mutationNovel, parallel.mutationNovel);
    for (size_t op = 0; op < kMutOpCount; ++op) {
        EXPECT_EQ(serial.perOp[op], parallel.perOp[op]);
        EXPECT_EQ(serial.perOpNovel[op], parallel.perOpNovel[op]);
    }
    EXPECT_EQ(serial.foundFailure, parallel.foundFailure);
    EXPECT_EQ(serial.seedsToFirstFailure,
              parallel.seedsToFirstFailure);
    EXPECT_EQ(serial.firstFailure, parallel.firstFailure);
    EXPECT_EQ(serial.distinctEdges, parallel.distinctEdges);
    EXPECT_EQ(serial.coverageDigest, parallel.coverageDigest);
    EXPECT_EQ(serial.divergences, parallel.divergences);
    EXPECT_EQ(serial.unrecovered, parallel.unrecovered);
    // The corpus is the search's full state: byte identity, not just
    // digest equality.
    EXPECT_EQ(serial.corpus.serialize(), parallel.corpus.serialize());
    EXPECT_EQ(serial.corpus.digest(), parallel.corpus.digest());

    // The search did something guided: schedules ran, the corpus is
    // non-trivial, and ZSNES's failure was rediscovered.
    EXPECT_EQ(serial.schedules, g.budget);
    EXPECT_GT(serial.corpus.entries.size(), 0u);
    EXPECT_TRUE(serial.foundFailure);
    EXPECT_EQ(serial.divergences, 0u);
    EXPECT_EQ(serial.unrecovered, 0u);
}

TEST_F(GuidedFixture, CampaignGuidedBlocksWorkerIndependentAndSaved)
{
    // The campaign-level view of the same property: 1 vs 4 workers
    // produce identical kernels[].guided summaries, identical corpus
    // digests, and the persisted corpus file re-parses to the digest
    // the summary reports.
    std::vector<apps::CampaignApp> prepared;
    prepared.push_back(prepare("ZSNES"));
    prepared.push_back(prepare("HTTrack"));
    std::vector<Target> targets;
    for (const apps::CampaignApp &a : prepared)
        targets.push_back(apps::campaignTarget(a));

    CampaignOptions opts = smallOptions();
    opts.seedsPerPolicy = 4;
    opts.policies = {{vm::SchedPolicy::Pct, 2}};
    opts.searchMode = SearchMode::Guided;
    opts.guidedBudget = 16;
    opts.collectCoverage = true;

    opts.workers = 1;
    CampaignReport serial = runCampaign(targets, opts);

    opts.workers = 4;
    opts.corpusDir = ::testing::TempDir() + "guided_test_corpora";
    CampaignReport parallel = runCampaign(targets, opts);

    ASSERT_EQ(serial.targets.size(), parallel.targets.size());
    for (size_t i = 0; i < serial.targets.size(); ++i) {
        const TargetReport &a = serial.targets[i];
        const TargetReport &b = parallel.targets[i];
        ASSERT_TRUE(a.hasGuided) << a.name;
        ASSERT_TRUE(b.hasGuided) << b.name;
        EXPECT_EQ(a.guided.schedules, b.guided.schedules) << a.name;
        EXPECT_EQ(a.guided.freshSchedules, b.guided.freshSchedules)
            << a.name;
        EXPECT_EQ(a.guided.mutatedSchedules,
                  b.guided.mutatedSchedules)
            << a.name;
        EXPECT_EQ(a.guided.corpusEntries, b.guided.corpusEntries)
            << a.name;
        EXPECT_EQ(a.guided.corpusDigest, b.guided.corpusDigest)
            << a.name;
        EXPECT_EQ(a.guided.foundFailure, b.guided.foundFailure)
            << a.name;
        EXPECT_EQ(a.guided.seedsToFirstFailure,
                  b.guided.seedsToFirstFailure)
            << a.name;
        EXPECT_EQ(a.guided.blindSeedsToFirstFailure,
                  b.guided.blindSeedsToFirstFailure)
            << a.name;
        EXPECT_EQ(a.guided.distinctEdges, b.guided.distinctEdges)
            << a.name;
        EXPECT_EQ(a.guided.coverageDigest, b.guided.coverageDigest)
            << a.name;
        EXPECT_EQ(a.guided.mutationYield, b.guided.mutationYield)
            << a.name;

        // Only the second run persisted; the file must re-parse to
        // the reported digest.
        ASSERT_FALSE(b.guided.corpusPath.empty()) << b.name;
        ASSERT_TRUE(b.guided.error.empty()) << b.guided.error;
        Corpus onDisk;
        std::string err;
        ASSERT_TRUE(loadCorpus(b.guided.corpusPath, onDisk, err))
            << err;
        EXPECT_EQ(onDisk.program, b.name);
        EXPECT_EQ(onDisk.digest(), b.guided.corpusDigest) << b.name;
        EXPECT_EQ(onDisk.entries.size(), b.guided.corpusEntries);
    }
}

// The replay obligation: every corpus entry is a *pinned* schedule
// (points materialised), so a recorded run of it must build a replay
// log that replays faithfully on both engines.
TEST_F(GuidedFixture, PersistedCorpusEntriesReplayOnBothEngines)
{
    apps::CampaignApp app = prepare("ZSNES");
    Target t = apps::campaignTarget(app);

    GuidedOptions g;
    g.budget = 10;
    g.stopAtFirstFailure = false;
    CampaignOptions opts = smallOptions();
    GuidedResult gr = runGuided(t, opts, g);
    ASSERT_GT(gr.corpus.entries.size(), 0u);

    std::string path = ::testing::TempDir() + "zsnes_replay.corpus";
    std::string err;
    ASSERT_TRUE(saveCorpus(path, gr.corpus, err)) << err;
    Corpus corpus;
    ASSERT_TRUE(loadCorpus(path, corpus, err)) << err;
    std::remove(path.c_str());

    size_t checked = 0;
    for (const CorpusEntry &e : corpus.entries) {
        if (checked >= 4) // two engines each; keep tier-1 fast
            break;
        ++checked;
        ASSERT_FALSE(e.spec.points.empty()) << e.spec.token();

        FailureEvidence ev =
            captureFailure(t, cellConfig(t, e.spec, opts), e.spec.token());
        ASSERT_TRUE(ev.hasLog) << e.spec.token() << ": " << ev.logError;
        const obs::replay::ReplayLog &log = ev.log;

        for (vm::ExecEngine engine :
             {vm::ExecEngine::Reference, vm::ExecEngine::Fused}) {
            obs::replay::ReplayRun rr =
                obs::replay::replayLog(*t.plain, log, engine);
            EXPECT_TRUE(rr.faithful)
                << e.spec.token() << " engine " << int(engine) << ": "
                << rr.mismatch;
        }
    }
    EXPECT_GT(checked, 0u);
}

// The challenge kernel earns its name: blind pct:d2 cannot fail it
// (one change point, a two-window bug), guided search finds it.
TEST_F(GuidedFixture, GuidedFindsRelay3WhereBlindPctD2Cannot)
{
    apps::CampaignApp app = prepare("Relay3");
    Target t = apps::campaignTarget(app);
    CampaignOptions opts = smallOptions();

    // Blind probe: a slice of the full 1000-seed probe the bench
    // gates on; enough to catch a regression that makes the kernel
    // easy.
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        ScheduleOutcome o = runOneSchedule(
            t, ScheduleSpec{vm::SchedPolicy::Pct, seed, 2, {}}, opts);
        EXPECT_TRUE(o.unhardenedCorrect || o.unhardenedInconclusive)
            << "blind pct:d2 s" << seed << " failed Relay3";
        EXPECT_FALSE(o.diverged) << o.divergenceMsg;
    }

    GuidedOptions g;
    g.basePolicy = vm::SchedPolicy::Pct;
    g.baseDepth = 2;
    g.budget = 250;
    GuidedResult gr = runGuided(t, opts, g);
    EXPECT_TRUE(gr.foundFailure)
        << "guided search missed Relay3 in " << g.budget;
    EXPECT_LE(gr.seedsToFirstFailure, 250u);
    EXPECT_GT(gr.mutatedSchedules, 0u);
    EXPECT_EQ(gr.divergences, 0u);
    EXPECT_EQ(gr.unrecovered, 0u);
}

} // namespace
} // namespace conair::explore
