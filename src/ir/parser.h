/**
 * @file
 * Parses the textual MiniIR form produced by ir/printer.h back into a
 * Module.  Used by tests, golden files, and the example tools.
 */
#pragma once

#include <memory>
#include <string>

#include "ir/module.h"
#include "support/diag.h"

namespace conair::ir {

/**
 * Parses @p text into a fresh, numbered module (Function::renumber()).
 * Returns nullptr and fills @p diags on error.
 */
std::unique_ptr<Module> parseModule(const std::string &text,
                                    DiagEngine &diags);

} // namespace conair::ir
