/**
 * @file
 * The MiniIR module: globals, functions, interned strings, and the
 * constant pool.  One module is one whole program.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/function.h"
#include "ir/value.h"

namespace conair::ir {

/**
 * A module-level global variable occupying size() consecutive memory
 * cells.  Mutex globals are one-cell variables that the VM treats as
 * lock objects.
 */
class Global
{
  public:
    Global(std::string name, Type elem_type, int64_t size, bool is_mutex)
        : name_(std::move(name)), elemType_(elem_type), size_(size),
          isMutex_(is_mutex)
    {}

    const std::string &name() const { return name_; }
    Type elemType() const { return elemType_; }
    int64_t size() const { return size_; }
    bool isMutex() const { return isMutex_; }

    /// @{ Optional initialiser: one entry per cell (zero-filled if empty).
    const std::vector<double> &initFp() const { return initFp_; }
    const std::vector<int64_t> &initInt() const { return initInt_; }
    void setInitInt(std::vector<int64_t> v) { initInt_ = std::move(v); }
    void setInitFp(std::vector<double> v) { initFp_ = std::move(v); }
    /// @}

    /** Stable index within the module (set by Module::addGlobal). */
    uint32_t id() const { return id_; }
    void setId(uint32_t id) { id_ = id; }

  private:
    std::string name_;
    Type elemType_;
    int64_t size_;
    bool isMutex_;
    std::vector<int64_t> initInt_;
    std::vector<double> initFp_;
    uint32_t id_ = 0;
};

/** A whole MiniIR program. */
class Module
{
  public:
    explicit Module(std::string name = "module") : name_(std::move(name)) {}
    ~Module();
    Module(const Module &) = delete;
    Module &operator=(const Module &) = delete;

    const std::string &name() const { return name_; }
    void setName(std::string n) { name_ = std::move(n); }

    /// @{ Globals.
    Global *addGlobal(std::string name, Type elem_type, int64_t size,
                      bool is_mutex = false);
    Global *findGlobal(const std::string &name) const;
    const std::vector<std::unique_ptr<Global>> &globals() const
    {
        return globals_;
    }
    /// @}

    /// @{ Functions.
    Function *addFunction(std::string name, Type ret_type);
    Function *findFunction(const std::string &name) const;
    /** Function::renumber() on every function. */
    void renumber();

    const std::vector<std::unique_ptr<Function>> &functions() const
    {
        return functions_;
    }
    /// @}

    /// @{ Constants (uniqued where cheap; all owned by the module).
    ConstInt *getInt(int64_t v, Type t = Type::I64);
    ConstInt *getBool(bool b) { return getInt(b ? 1 : 0, Type::I1); }
    ConstFloat *getFloat(double v);
    ConstNull *getNull();
    ConstStr *getStr(const std::string &s);
    GlobalAddr *getGlobalAddr(Global *g);
    FuncAddr *getFuncAddr(Function *f);
    /// @}

    /// @{ Interned strings (PrintStr / AssertFail message operands).
    const std::string &strAt(uint32_t id) const { return strings_[id]; }
    uint32_t numStrings() const { return strings_.size(); }
    /// @}

  private:
    std::string name_;
    // Destruction order matters: functions_ (whose instructions unlink
    // their operand uses on destruction) must be destroyed before the
    // constant pool they reference, hence pool_ is declared first.
    std::vector<std::unique_ptr<Value>> pool_;
    std::unordered_map<int64_t, ConstInt *> intCache_;
    std::unordered_map<int64_t, ConstInt *> boolCache_;
    std::unordered_map<uint64_t, ConstFloat *> floatCache_; ///< by bits
    std::unordered_map<std::string, uint32_t> strIds_;
    std::vector<std::string> strings_;
    std::unordered_map<Global *, GlobalAddr *> globalAddrCache_;
    std::unordered_map<Function *, FuncAddr *> funcAddrCache_;
    ConstNull *null_ = nullptr;
    std::vector<std::unique_ptr<Global>> globals_;
    std::vector<std::unique_ptr<Function>> functions_;
};

} // namespace conair::ir
