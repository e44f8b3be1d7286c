/**
 * @file
 * The MiniIR value hierarchy: constants, arguments, and instruction
 * results.  Values carry explicit use lists so transformations can
 * rewrite operands safely (RAUW).
 */
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ir/type.h"
#include "support/small_vec.h"

namespace conair::ir {

class Instruction;
class Function;
class Global;

/** The id of a block or instruction that Function::renumber() has not
 *  numbered yet (see ir/cfg.h). */
inline constexpr uint32_t kNoId = ~0u;

/** Discriminates the concrete Value subclass. */
enum class ValueKind : uint8_t {
    ConstInt,
    ConstFloat,
    ConstNull,
    ConstStr,
    GlobalAddr,
    FuncAddr,
    Argument,
    Instruction,
};

/** One operand slot of an instruction referring to this value. */
struct Use
{
    Instruction *user;
    unsigned index;

    bool
    operator==(const Use &o) const
    {
        return user == o.user && index == o.index;
    }
};

/**
 * Base class of everything an instruction can take as an operand.
 *
 * Ownership: constants live in the Module's pool, arguments in their
 * Function, instruction results are the instructions themselves.
 */
class Value
{
  public:
    Value(ValueKind kind, Type type) : kind_(kind), type_(type) {}
    virtual ~Value() = default;

    Value(const Value &) = delete;
    Value &operator=(const Value &) = delete;

    ValueKind kind() const { return kind_; }
    Type type() const { return type_; }

    std::span<const Use> uses() const { return {uses_.data(), uses_.size()}; }
    bool hasUses() const { return !uses_.empty(); }

    /** Rewrites every use of this value to use @p repl instead. */
    void replaceAllUsesWith(Value *repl);

    bool isConstant() const;

    /// @{ Use-list bookkeeping; called by Instruction only.
    void addUse(Instruction *user, unsigned index);
    void removeUse(Instruction *user, unsigned index);
    /// @}

  private:
    ValueKind kind_;
    Type type_;
    SmallVec<Use, 1> uses_; ///< most values have one use
};

/** A 64-bit integer constant (also used for i1: 0/1). */
class ConstInt : public Value
{
  public:
    ConstInt(int64_t v, Type t = Type::I64) : Value(ValueKind::ConstInt, t),
        value_(v)
    {}

    int64_t value() const { return value_; }

  private:
    int64_t value_;
};

/** A double constant. */
class ConstFloat : public Value
{
  public:
    explicit ConstFloat(double v) : Value(ValueKind::ConstFloat, Type::F64),
        value_(v)
    {}

    double value() const { return value_; }

  private:
    double value_;
};

/** The null pointer constant. */
class ConstNull : public Value
{
  public:
    ConstNull() : Value(ValueKind::ConstNull, Type::Ptr) {}
};

/** A reference to an interned string in the module's string table. */
class ConstStr : public Value
{
  public:
    explicit ConstStr(uint32_t id) : Value(ValueKind::ConstStr, Type::Ptr),
        id_(id)
    {}

    uint32_t id() const { return id_; }

  private:
    uint32_t id_;
};

/** The address of a module-level global variable. */
class GlobalAddr : public Value
{
  public:
    explicit GlobalAddr(Global *g) : Value(ValueKind::GlobalAddr, Type::Ptr),
        global_(g)
    {}

    Global *global() const { return global_; }

  private:
    Global *global_;
};

/** A first-class reference to a function (thread entry points). */
class FuncAddr : public Value
{
  public:
    explicit FuncAddr(Function *f) : Value(ValueKind::FuncAddr, Type::Ptr),
        func_(f)
    {}

    Function *function() const { return func_; }

  private:
    Function *func_;
};

/** A formal parameter of a function. */
class Argument : public Value
{
  public:
    Argument(Type t, std::string name, unsigned index, Function *parent)
        : Value(ValueKind::Argument, t), name_(std::move(name)),
          index_(index), parent_(parent)
    {}

    const std::string &name() const { return name_; }
    unsigned index() const { return index_; }
    Function *parent() const { return parent_; }

  private:
    std::string name_;
    unsigned index_;
    Function *parent_;
};

} // namespace conair::ir
