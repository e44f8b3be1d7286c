#include "frontend/compile.h"

#include "analysis/cfg_utils.h"
#include "analysis/mem2reg.h"
#include "frontend/codegen.h"
#include "frontend/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"

namespace conair::fe {

std::unique_ptr<ir::Module>
compileMiniC(const std::string &source, DiagEngine &diags,
             const CompileOptions &opts)
{
    std::unique_ptr<Program> prog = parseProgram(source, diags);
    if (!prog)
        return nullptr;
    std::unique_ptr<ir::Module> module =
        generateIR(*prog, diags, opts.moduleName);
    if (!module)
        return nullptr;

    // Both leave every function numbered for the analyses (ir/cfg.h);
    // promotion removes the unreachable blocks itself.
    if (opts.promoteToSSA)
        analysis::promoteModuleToSSA(*module);
    else
        analysis::removeUnreachableBlocks(*module);

    if (opts.verify) {
        DiagEngine verify_diags;
        if (!ir::verifyModule(*module, verify_diags)) {
            // A verifier failure after a clean front-end run is a
            // compiler bug, not a user error.
            fatal("compileMiniC produced invalid IR:\n" +
                  verify_diags.str() + ir::printModule(*module));
        }
    }
    return module;
}

} // namespace conair::fe
