/**
 * @file
 * RegMap: the dense register numbering both engines share (the
 * Reference resolves operands through it; the decoder bakes it into
 * the flat register operands).
 */
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/module.h"
#include "vm/regmap.h"

namespace conair::vm {
namespace {

using ir::Opcode;

/** A function with @p args arguments and @p values value-producing
 *  instructions, split into a new block every 37 values by a
 *  non-value store and a branch.  Returns the values in expected
 *  register order: arguments first, then instructions in block order. */
std::vector<const ir::Value *>
buildFunction(ir::Module &m, const std::string &name, unsigned args,
              unsigned values)
{
    ir::Function *f = m.addFunction(name, ir::Type::Void);
    std::vector<const ir::Value *> order;
    for (unsigned i = 0; i < args; ++i)
        order.push_back(f->addArg(ir::Type::I64, "a" + std::to_string(i)));

    ir::IRBuilder b(&m);
    ir::BasicBlock *bb = f->addBlock("b0");
    b.setInsertAtEnd(bb);
    ir::Instruction *slot = b.alloca_();
    order.push_back(slot);
    ir::Value *acc = m.getInt(1);
    for (unsigned i = 1; i < values; ++i) {
        if (i % 37 == 0) {
            b.store(acc, slot);
            ir::BasicBlock *next = f->addBlock("b" + std::to_string(i));
            b.br(next);
            b.setInsertAtEnd(next);
        }
        acc = b.binop(Opcode::Add, acc, m.getInt(i));
        order.push_back(acc);
    }
    b.ret();
    return order;
}

TEST(RegMap, NumbersArgumentsFirstThenValuesInBlockOrder)
{
    ir::Module m;
    // Sizes straddle every table capacity boundary from the minimum
    // table up, so probe sequences wrap and cluster at every size.
    std::vector<unsigned> sizes;
    for (unsigned n = 1; n <= 80; ++n)
        sizes.push_back(n);
    for (unsigned n = 96; n <= 4100; n = n * 3 / 2)
        sizes.push_back(n);
    for (unsigned p = 128; p <= 4096; p *= 2)
        for (unsigned d : {p / 2 - 1, p / 2, p / 2 + 1})
            sizes.push_back(d);

    unsigned k = 0;
    for (unsigned n : sizes) {
        const unsigned args = k % 5;
        auto order =
            buildFunction(m, "f" + std::to_string(k++), args, n);
        const ir::Function &f = *m.functions().back();
        RegMap map(f);
        ASSERT_EQ(map.count(), order.size()) << "size " << n;
        for (unsigned i = 0; i < args; ++i)
            EXPECT_EQ(map.indexOf(f.arg(i)), i) << "size " << n;

        std::set<uint32_t> seen;
        for (size_t i = 0; i < order.size(); ++i) {
            const uint32_t r = map.indexOf(order[i]);
            EXPECT_EQ(r, i) << "size " << n << " value " << i;
            EXPECT_LT(r, map.count());
            seen.insert(r);
        }
        EXPECT_EQ(seen.size(), order.size()) << "size " << n;
    }
}

TEST(RegMap, CacheBuildsOneMapPerFunction)
{
    ir::Module m;
    auto a = buildFunction(m, "a", 2, 10);
    auto b = buildFunction(m, "b", 0, 500);
    RegMapCache cache;
    const ir::Function *fa = m.functions()[0].get();
    const ir::Function *fb = m.functions()[1].get();
    const RegMap &ma = cache.of(fa);
    EXPECT_EQ(&cache.of(fa), &ma);
    EXPECT_EQ(cache.of(fa).count(), a.size());
    EXPECT_EQ(cache.of(fb).count(), b.size());
    EXPECT_EQ(cache.of(fb).indexOf(b.back()), b.size() - 1);
}

TEST(RegMapDeathTest, UnnumberedValueIsFatal)
{
    ir::Module m;
    buildFunction(m, "mine", 1, 40);
    auto other = buildFunction(m, "other", 1, 3);
    RegMap map(*m.functions()[0]);
    // Another function's value, a constant, and a non-value store.
    EXPECT_DEATH(map.indexOf(other.back()), "not numbered");
    EXPECT_DEATH(map.indexOf(m.getInt(7)), "not numbered");
    const ir::BasicBlock &entry = *m.functions()[0]->entry();
    const ir::Instruction *store = nullptr;
    for (const auto &inst : entry.insts())
        if (inst->opcode() == Opcode::Store)
            store = inst.get();
    ASSERT_NE(store, nullptr);
    EXPECT_DEATH(map.indexOf(store), "not numbered");
}

} // namespace
} // namespace conair::vm
