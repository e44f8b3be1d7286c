/**
 * @file
 * Shared helpers for ConAir pass tests.
 */
#pragma once

#include <gtest/gtest.h>

#include "conair/driver.h"
#include "conair/regions.h"
#include "frontend/compile.h"
#include "ir/parser.h"
#include "vm/interp.h"

namespace conair::ca::testutil {

inline std::unique_ptr<ir::Module>
compileC(const std::string &src)
{
    DiagEngine d;
    auto m = fe::compileMiniC(src, d);
    EXPECT_TRUE(m) << d.str();
    return m;
}

inline std::unique_ptr<ir::Module>
parseIR(const std::string &text)
{
    DiagEngine d;
    auto m = ir::parseModule(text, d);
    EXPECT_TRUE(m) << d.str();
    return m;
}

inline ir::Instruction *
taggedInst(ir::Module &m, const std::string &tag)
{
    for (auto &f : m.functions())
        for (auto &bb : f->blocks())
            for (auto &inst : bb->insts())
                if (inst->tag() == tag)
                    return inst.get();
    return nullptr;
}

/** The region ending at @p site, over a fresh snapshot of its
 *  function. */
inline Region
regionAt(const ir::Instruction *site, const RegionPolicy &policy)
{
    return computeRegion(ir::Cfg(*site->parent()->parent()), site, policy);
}

inline const SiteReport *
siteByTag(const ConAirReport &r, const std::string &tag)
{
    for (const SiteReport &s : r.sites)
        if (s.tag == tag)
            return &s;
    return nullptr;
}

inline unsigned
countBuiltinCalls(const ir::Module &m, ir::Builtin b)
{
    unsigned n = 0;
    for (const auto &f : m.functions())
        for (const auto &bb : f->blocks())
            for (const auto &inst : bb->insts())
                n += inst->opcode() == ir::Opcode::Call &&
                     inst->builtin() == b;
    return n;
}

} // namespace conair::ca::testutil
