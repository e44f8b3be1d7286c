/**
 * @file
 * The tag intern table: ids are stable and idempotent, id 0 is the
 * empty tag, every id names the string it was interned from, an id
 * never handed out is fatal, and concurrent interning from several
 * threads agrees on one id per string (run under -fsanitize=thread in
 * CI).
 */
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/intern.h"

namespace conair {
namespace {

TEST(Intern, EmptyTagIsIdZero)
{
    EXPECT_EQ(intern(""), kNoTag);
    EXPECT_EQ(tagName(kNoTag), "");
}

TEST(Intern, IsIdempotentAndRoundTrips)
{
    for (const char *s : {"assert.main.12", "lock.worker.7", "x"}) {
        TagId id = intern(s);
        EXPECT_NE(id, kNoTag);
        EXPECT_EQ(intern(s), id);
        EXPECT_EQ(intern(std::string(s)), id);
        EXPECT_EQ(tagName(id), s);
    }
    EXPECT_NE(intern("intern.a"), intern("intern.b"));
}

TEST(Intern, NamesStayPutAsTheTableGrows)
{
    // Enough tags to fill several storage chunks: earlier references
    // must not move.
    TagId first = intern("intern.grow.first");
    const std::string *name = &tagName(first);
    std::vector<TagId> ids;
    for (int i = 0; i < 10000; ++i)
        ids.push_back(intern("intern.grow." + std::to_string(i)));
    EXPECT_EQ(&tagName(first), name);
    for (int i = 0; i < 10000; ++i)
        EXPECT_EQ(tagName(ids[i]), "intern.grow." + std::to_string(i));
    EXPECT_LT(ids.back(), TagId(1) << kTagIdBits);
}

TEST(InternDeathTest, UnassignedIdsAreFatal)
{
    // The id after the newest one lies in an allocated chunk but was
    // never handed out; the others lie past the table.
    TagId last = intern("intern.death.last");
    EXPECT_DEATH(tagName(last + 1), "never interned");
    EXPECT_DEATH(tagName((TagId(1) << kTagIdBits) - 1), "never interned");
    EXPECT_DEATH(tagName(TagId(1) << kTagIdBits), "never interned");
}

TEST(Intern, ConcurrentInternersAgree)
{
    // Four threads intern overlapping names and read them back while
    // the table grows under them.
    constexpr int kThreads = 4;
    constexpr int kNames = 3000;
    std::vector<std::vector<TagId>> ids(kThreads,
                                        std::vector<TagId>(kNames));
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([t, &ids] {
            for (int i = 0; i < kNames; ++i) {
                // Each thread walks the names from a different offset.
                int n = (i + t * kNames / kThreads) % kNames;
                std::string s = "intern.mt." + std::to_string(n);
                TagId id = intern(s);
                ids[t][n] = id;
                if (tagName(id) != s)
                    ADD_FAILURE() << "id " << id << " names " << tagName(id);
            }
        });
    for (std::thread &th : pool)
        th.join();
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(ids[t], ids[0]) << "thread " << t;
}

} // namespace
} // namespace conair
