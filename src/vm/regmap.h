/**
 * @file
 * Dense virtual-register numbering per function.
 *
 * Each frame's register file is a flat vector indexed by these numbers —
 * the VM analogue of the machine register image that the paper's
 * setjmp/longjmp checkpoints save and restore.
 */
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ir/function.h"

namespace conair::vm {

/** Maps a function's value-producing instructions and arguments to
 *  dense register indices.
 *
 *  The Reference engine resolves every operand read and register write
 *  through indexOf, so the numbering lives in a flat open-addressed
 *  table (power-of-two capacity, multiplicative pointer hash, linear
 *  probing) sized once at construction to at most half full. */
class RegMap
{
  public:
    explicit RegMap(const ir::Function &f);

    uint32_t
    indexOf(const ir::Value *v) const
    {
        for (size_t i = slotOf(v);; i = (i + 1) & mask_) {
            const Slot &s = slots_[i];
            if (s.key == v)
                return s.index;
            if (!s.key)
                unnumbered();
        }
    }

    uint32_t count() const { return count_; }

  private:
    struct Slot
    {
        const ir::Value *key = nullptr; ///< nullptr = empty
        uint32_t index = 0;
    };

    /** Fibonacci hashing: the product's top bits index the table. */
    size_t
    slotOf(const ir::Value *v) const
    {
        return size_t((uint64_t(reinterpret_cast<uintptr_t>(v)) *
                       0x9E3779B97F4A7C15ull) >>
                      shift_);
    }

    void insert(const ir::Value *v);
    [[noreturn]] static void unnumbered();

    std::vector<Slot> slots_;
    size_t mask_ = 0;
    unsigned shift_ = 0;
    uint32_t count_ = 0;
};

/** Lazily builds and caches RegMaps for a module's functions. */
class RegMapCache
{
  public:
    const RegMap &of(const ir::Function *f);

  private:
    std::unordered_map<const ir::Function *, RegMap> maps_;
};

} // namespace conair::vm
