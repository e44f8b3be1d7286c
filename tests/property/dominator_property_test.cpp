/**
 * @file
 * Property test: the Cooper-Harvey-Kennedy dominator tree agrees with
 * the *definition* of dominance (a dominates b iff every entry->b path
 * passes through a, i.e. removing a disconnects b), checked by brute
 * force over the CFGs of randomly generated programs.
 */
#include <gtest/gtest.h>

#include <unordered_set>

#include "analysis/dominators.h"
#include "frontend/compile.h"
#include "tests/property/program_gen.h"

namespace conair::proptest {
namespace {

using ir::BasicBlock;
using ir::Function;

/** Blocks reachable from entry without passing through @p removed. */
std::unordered_set<const BasicBlock *>
reachableAvoiding(const Function &f, const BasicBlock *removed)
{
    std::unordered_set<const BasicBlock *> seen;
    std::vector<const BasicBlock *> work;
    const BasicBlock *entry = f.entry();
    if (entry == removed)
        return seen;
    seen.insert(entry);
    work.push_back(entry);
    while (!work.empty()) {
        const BasicBlock *bb = work.back();
        work.pop_back();
        for (const BasicBlock *s :
             const_cast<BasicBlock *>(bb)->successors()) {
            if (s == removed)
                continue;
            if (seen.insert(s).second)
                work.push_back(s);
        }
    }
    return seen;
}

class DomProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(DomProperty, TreeMatchesBruteForceDefinition)
{
    DiagEngine d;
    auto m = fe::compileMiniC(generateProgram(GetParam()), d);
    ASSERT_TRUE(m) << d.str();

    for (const auto &f : m->functions()) {
        ir::Cfg cfg(*f);
        analysis::DomTree dt(cfg);
        auto all = reachableAvoiding(*f, nullptr);
        for (const auto &a : f->blocks()) {
            if (!dt.isReachable(a.get()))
                continue;
            auto without_a = reachableAvoiding(*f, a.get());
            for (const auto &b : f->blocks()) {
                if (!dt.isReachable(b.get()) || !all.count(b.get()))
                    continue;
                bool brute = a.get() == b.get() ||
                             !without_a.count(b.get());
                EXPECT_EQ(dt.dominates(a.get(), b.get()), brute)
                    << "@" << f->name() << ": " << a->name()
                    << " dom " << b->name();
            }
        }
    }
}

TEST_P(DomProperty, IdomIsTheUniqueClosestStrictDominator)
{
    DiagEngine d;
    auto m = fe::compileMiniC(generateProgram(GetParam()), d);
    ASSERT_TRUE(m) << d.str();

    for (const auto &f : m->functions()) {
        ir::Cfg cfg(*f);
        analysis::DomTree dt(cfg);
        for (const auto &b : f->blocks()) {
            if (!dt.isReachable(b.get()))
                continue;
            BasicBlock *idom = dt.idom(b.get());
            if (b.get() == f->entry()) {
                EXPECT_EQ(idom, nullptr);
                continue;
            }
            ASSERT_NE(idom, nullptr) << b->name();
            EXPECT_TRUE(dt.strictlyDominates(idom, b.get()));
            // Every other strict dominator of b dominates the idom.
            for (const auto &c : f->blocks()) {
                if (!dt.isReachable(c.get()))
                    continue;
                if (dt.strictlyDominates(c.get(), b.get())) {
                    EXPECT_TRUE(dt.dominates(c.get(), idom))
                        << c->name() << " vs idom " << idom->name();
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DomProperty,
                         ::testing::Range<uint64_t>(100, 110));

} // namespace
} // namespace conair::proptest
