#include "analysis/dominators.h"

#include <algorithm>
#include <span>

#include "ir/printer.h"
#include "support/diag.h"
#include "support/str.h"

namespace conair::analysis {

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;

const std::vector<BasicBlock *> DomTree::empty_;

namespace {

/**
 * The graph the iteration runs on, in CSR form.  Forward: node b is
 * block b.  Post: node 0 is a virtual exit and node b + 1 is block b,
 * with every edge reversed and the exit joined to the blocks without
 * successors.  Adjacency lists keep the CFG's order, so the reverse
 * post-order (and so phi placement) is a pure function of the IR.
 */
struct Graph
{
    std::vector<uint32_t> succOff, succ, predOff, pred;

    std::span<const uint32_t>
    succs(uint32_t n) const
    {
        return {succ.data() + succOff[n], succOff[n + 1] - succOff[n]};
    }

    std::span<const uint32_t>
    preds(uint32_t n) const
    {
        return {pred.data() + predOff[n], predOff[n + 1] - predOff[n]};
    }
};

Graph
buildGraph(const ir::Cfg &cfg, bool post)
{
    Graph g;
    const uint32_t nb = cfg.numBlocks();
    const uint32_t off = post ? 1 : 0;
    auto append = [](std::vector<uint32_t> &out, uint32_t base,
                     std::span<const uint32_t> ids) {
        for (uint32_t id : ids)
            out.push_back(id + base);
    };
    g.succOff.push_back(0);
    g.predOff.push_back(0);
    if (post) {
        // The virtual exit: successors are the exit blocks, no preds.
        for (uint32_t b = 0; b < nb; ++b)
            if (cfg.succs(b).empty())
                g.succ.push_back(b + 1);
        g.succOff.push_back(uint32_t(g.succ.size()));
        g.predOff.push_back(0);
    }
    for (uint32_t b = 0; b < nb; ++b) {
        append(g.succ, off, post ? cfg.preds(b) : cfg.succs(b));
        g.succOff.push_back(uint32_t(g.succ.size()));
        append(g.pred, off, post ? cfg.succs(b) : cfg.preds(b));
        if (post && cfg.succs(b).empty())
            g.pred.push_back(0);
        g.predOff.push_back(uint32_t(g.pred.size()));
    }
    return g;
}

} // namespace

DomTree::DomTree(const ir::Cfg &cfg, bool post) : f_(&cfg.function())
{
    const uint32_t nb = cfg.numBlocks();
    if (nb == 0)
        return;
    Graph g = buildGraph(cfg, post);
    const uint32_t off = post ? 1 : 0;
    const uint32_t num_nodes = nb + off;
    auto blockOf = [&](uint32_t node) -> BasicBlock * {
        return node < off ? nullptr : cfg.block(node - off);
    };
    // Node 0 is the root either way: the entry block (forward) or the
    // virtual exit (post-dominators).
    const uint32_t root = 0;

    // Reverse post-order from the root.
    std::vector<uint32_t> order;
    order.reserve(num_nodes);
    std::vector<char> visited(num_nodes, 0);
    std::vector<std::pair<uint32_t, uint32_t>> stack;
    stack.push_back({root, 0});
    visited[root] = 1;
    while (!stack.empty()) {
        auto &[n, i] = stack.back();
        std::span<const uint32_t> succs = g.succs(n);
        if (i < succs.size()) {
            uint32_t s = succs[i++];
            if (!visited[s]) {
                visited[s] = 1;
                stack.push_back({s, 0});
            }
        } else {
            order.push_back(n);
            stack.pop_back();
        }
    }
    std::reverse(order.begin(), order.end());

    // Map graph nodes to dense RPO indices; unreachable nodes excluded.
    std::vector<int> rpoIndex(num_nodes, -1);
    for (size_t i = 0; i < order.size(); ++i)
        rpoIndex[order[i]] = int(i);

    blocks_.resize(nb);
    rpoOf_.assign(nb, -1);
    for (uint32_t b = 0; b < nb; ++b)
        blocks_[b] = cfg.block(b);
    const int n = int(order.size());
    byIndex_.resize(n);
    std::vector<uint32_t> predOff(n + 1, 0);
    std::vector<int> preds;
    for (int i = 0; i < n; ++i) {
        BasicBlock *bb = blockOf(order[i]);
        byIndex_[i] = bb;
        if (bb)
            rpoOf_[order[i] - off] = i;
        for (uint32_t p : g.preds(order[i]))
            if (rpoIndex[p] >= 0)
                preds.push_back(rpoIndex[p]);
        predOff[i + 1] = uint32_t(preds.size());
    }
    auto predsOf = [&](int i) {
        return std::span<const int>(preds.data() + predOff[i],
                                    predOff[i + 1] - predOff[i]);
    };
    rpo_.clear();
    for (BasicBlock *bb : byIndex_)
        if (bb)
            rpo_.push_back(bb);

    // Cooper-Harvey-Kennedy iteration.
    idom_.assign(n, -1);
    idom_[0] = 0;
    auto intersect = [&](int a, int b) {
        while (a != b) {
            while (a > b)
                a = idom_[a];
            while (b > a)
                b = idom_[b];
        }
        return a;
    };
    bool changed = true;
    while (changed) {
        changed = false;
        for (int i = 1; i < n; ++i) {
            int new_idom = -1;
            for (int p : predsOf(i)) {
                if (idom_[p] == -1)
                    continue;
                new_idom =
                    new_idom == -1 ? p : intersect(new_idom, p);
            }
            if (new_idom != -1 && idom_[i] != new_idom) {
                idom_[i] = new_idom;
                changed = true;
            }
        }
    }

    // Dominance frontiers.
    frontier_.assign(n, {});
    for (int i = 0; i < n; ++i) {
        if (predsOf(i).size() < 2)
            continue;
        for (int p : predsOf(i)) {
            int runner = p;
            while (runner != idom_[i] && runner != -1) {
                if (byIndex_[i]) // skip the virtual node
                    frontier_[runner].push_back(byIndex_[i]);
                runner = idom_[runner];
            }
        }
    }

    // Tree children.
    children_.assign(n, {});
    for (int i = 1; i < n; ++i) {
        if (idom_[i] >= 0 && byIndex_[i])
            children_[idom_[i]].push_back(byIndex_[i]);
    }
}

int
DomTree::indexOf(const BasicBlock *bb) const
{
    if (!bb || bb->parent() != f_)
        return -1;
    uint32_t id = bb->id();
    if (id >= blocks_.size() || blocks_[id] != bb)
        fatal("DomTree: @" + f_->name() + ": block " + bb->name() +
              " has a stale id");
    return rpoOf_[id];
}

BasicBlock *
DomTree::idom(const BasicBlock *bb) const
{
    int i = indexOf(bb);
    if (i <= 0)
        return nullptr;
    int d = idom_[i];
    return d < 0 ? nullptr : byIndex_[d];
}

bool
DomTree::dominates(const BasicBlock *a, const BasicBlock *b) const
{
    int ia = indexOf(a);
    int ib = indexOf(b);
    if (ia < 0 || ib < 0)
        return false;
    while (ib > ia)
        ib = idom_[ib];
    return ib == ia;
}

bool
DomTree::dominatesInst(const Instruction *a, const Instruction *b) const
{
    const BasicBlock *ba = a->parent();
    const BasicBlock *bb = b->parent();
    if (ba != bb)
        return strictlyDominates(ba, bb);
    for (const auto &inst : ba->insts()) {
        if (inst.get() == a)
            return true;
        if (inst.get() == b)
            return false;
    }
    return false;
}

const std::vector<BasicBlock *> &
DomTree::frontier(const BasicBlock *bb) const
{
    int i = indexOf(bb);
    return i < 0 ? empty_ : frontier_[i];
}

const std::vector<BasicBlock *> &
DomTree::children(const BasicBlock *bb) const
{
    int i = indexOf(bb);
    return i < 0 ? empty_ : children_[i];
}

bool
verifySSA(const Function &f, DiagEngine &diags)
{
    DomTree dt(ir::Cfg(f), /*post=*/false);
    bool ok = true;
    for (const auto &bb : f.blocks()) {
        if (!dt.isReachable(bb.get()))
            continue; // dead blocks are structurally checked only
        for (const auto &inst : bb->insts()) {
            for (unsigned i = 0; i < inst->numOperands(); ++i) {
                const ir::Value *v = inst->operand(i);
                if (!v || v->kind() != ir::ValueKind::Instruction)
                    continue;
                auto *def = static_cast<const Instruction *>(v);
                if (!dt.isReachable(def->parent()))
                    continue;
                bool fine;
                if (inst->opcode() == ir::Opcode::Phi) {
                    // Def must dominate the end of the incoming block.
                    const BasicBlock *in = inst->incomingBlock(i);
                    fine = def->parent() == in
                               ? true
                               : dt.strictlyDominates(def->parent(), in);
                    if (def->parent() == in)
                        fine = true;
                } else {
                    fine = dt.dominatesInst(def, inst.get());
                }
                if (!fine) {
                    ok = false;
                    diags.error(inst->loc(),
                                strfmt("@%s: use not dominated by def [%s]",
                                       f.name().c_str(),
                                       ir::printInstruction(*inst).c_str()));
                }
            }
        }
    }
    return ok;
}

} // namespace conair::analysis
