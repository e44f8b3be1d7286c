/**
 * @file
 * Functions: argument lists plus an ordered set of basic blocks.
 */
#pragma once

#include <list>
#include <memory>
#include <string>
#include <vector>

#include "ir/basic_block.h"
#include "ir/value.h"

namespace conair::ir {

class Module;

/** A MiniIR function definition. */
class Function
{
  public:
    using BlockList = std::list<std::unique_ptr<BasicBlock>>;

    Function(std::string name, Type ret_type, Module *parent)
        : name_(std::move(name)), returnType_(ret_type), parent_(parent)
    {}

    /**
     * Severs every operand link before the blocks are destroyed: blocks
     * die in list order, so without this an instruction's destructor
     * could unregister a use from an operand that is already gone.
     */
    ~Function();

    const std::string &name() const { return name_; }
    Type returnType() const { return returnType_; }
    Module *parent() const { return parent_; }

    /// @{ Arguments.
    Argument *addArg(Type t, std::string name);
    unsigned numArgs() const { return args_.size(); }
    Argument *arg(unsigned i) const { return args_[i].get(); }
    /// @}

    /// @{ Blocks.  The first block is the entry block.
    BasicBlock *addBlock(std::string name);
    BasicBlock *insertBlockAfter(BasicBlock *pos, std::string name);
    BlockList &blocks() { return blocks_; }
    const BlockList &blocks() const { return blocks_; }
    BasicBlock *entry() const;
    size_t numBlocks() const { return blocks_.size(); }
    /// @}

    /**
     * Numbers the blocks (list order) and the instructions (program
     * order) densely from 0.  Every pass that edits the function
     * calls it before handing the function on; ir::Cfg, which the
     * analyses read, refuses a function whose numbering is stale.
     */
    void renumber();

    /** Makes a block label unique within this function. */
    std::string freshBlockName(const std::string &base);

    /** Total instruction count across all blocks. */
    size_t instructionCount() const;

  private:
    std::string name_;
    Type returnType_;
    Module *parent_;
    std::vector<std::unique_ptr<Argument>> args_;
    BlockList blocks_;
    unsigned nameCounter_ = 0;
};

} // namespace conair::ir
