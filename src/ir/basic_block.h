/**
 * @file
 * Basic blocks: ordered instruction sequences ending in one terminator.
 */
#pragma once

#include <list>
#include <memory>
#include <string>
#include <vector>

#include "ir/instruction.h"

namespace conair::ir {

class Function;

/**
 * A straight-line sequence of instructions with a single terminator.
 * Instructions are held in a std::list so transformation passes can
 * insert/erase while holding stable Instruction pointers.
 */
class BasicBlock
{
  public:
    using InstList = std::list<std::unique_ptr<Instruction>>;
    using iterator = InstList::iterator;

    BasicBlock(std::string name, Function *parent)
        : name_(std::move(name)), parent_(parent)
    {}

    const std::string &name() const { return name_; }
    void setName(std::string n) { name_ = std::move(n); }
    Function *parent() const { return parent_; }

    /** Position in the function's block list, as of the last
     *  Function::renumber() (kNoId before it); see ir/cfg.h. */
    uint32_t id() const { return id_; }

    InstList &insts() { return insts_; }
    const InstList &insts() const { return insts_; }
    bool empty() const { return insts_.empty(); }
    size_t size() const { return insts_.size(); }

    Instruction *front() { return insts_.front().get(); }
    Instruction *back() { return insts_.back().get(); }

    /** Appends @p inst and returns the raw pointer. */
    Instruction *append(std::unique_ptr<Instruction> inst);

    /** Inserts @p inst immediately before @p pos (which must be here). */
    Instruction *insertBefore(Instruction *pos,
                              std::unique_ptr<Instruction> inst);

    /** Inserts @p inst immediately after @p pos (which must be here). */
    Instruction *insertAfter(Instruction *pos,
                             std::unique_ptr<Instruction> inst);

    /**
     * Unlinks @p inst from this block and returns ownership.  The
     * instruction must have no remaining uses if it is being destroyed.
     */
    std::unique_ptr<Instruction> remove(Instruction *inst);

    /** Erases @p inst entirely (drops operands; must be use-free). */
    void erase(Instruction *inst);

    /** The block terminator, or nullptr while under construction. */
    Instruction *terminator() const;

    bool hasTerminator() const { return terminator() != nullptr; }

    /** Successor blocks per the terminator (empty for Ret/Unreachable
     *  and while the block has no terminator). */
    std::span<BasicBlock *const> successors() const;

    /** Iterator pointing at @p inst; fatal() if absent. */
    iterator find(Instruction *inst);

    /** The instruction after @p inst, or nullptr at the end. */
    Instruction *next(Instruction *inst);

    /** The instruction before @p inst, or nullptr at the front. */
    Instruction *prev(Instruction *inst);

  private:
    friend class Function; // renumber() writes id_

    std::string name_;
    Function *parent_;
    uint32_t id_ = kNoId;
    InstList insts_;
};

} // namespace conair::ir
