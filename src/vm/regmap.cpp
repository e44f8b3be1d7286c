#include "vm/regmap.h"

#include "support/diag.h"

namespace conair::vm {

RegMap::RegMap(const ir::Function &f)
{
    size_t values = f.numArgs();
    for (const auto &bb : f.blocks())
        values += bb->insts().size();
    // At most half full, so every probe sequence meets an empty slot.
    unsigned bits = 2;
    while ((size_t(1) << bits) < 2 * values)
        ++bits;
    slots_.resize(size_t(1) << bits);
    mask_ = slots_.size() - 1;
    shift_ = 64 - bits;
    // Arguments first — argument i IS register i, an invariant the
    // pre-decoded call path relies on to seed callee frames without
    // looking anything up (see Interp::pushFrame).
    for (unsigned i = 0; i < f.numArgs(); ++i)
        insert(f.arg(i));
    for (const auto &bb : f.blocks())
        for (const auto &inst : bb->insts())
            if (inst->producesValue())
                insert(inst.get());
}

void
RegMap::insert(const ir::Value *v)
{
    size_t i = slotOf(v);
    while (slots_[i].key)
        i = (i + 1) & mask_;
    slots_[i] = {v, count_++};
}

void
RegMap::unnumbered()
{
    fatal("RegMap: value not numbered in this function");
}

const RegMap &
RegMapCache::of(const ir::Function *f)
{
    auto it = maps_.find(f);
    if (it == maps_.end())
        it = maps_.emplace(f, RegMap(*f)).first;
    return it->second;
}

} // namespace conair::vm
