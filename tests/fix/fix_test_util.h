/**
 * @file
 * Shared front half for the fix-synthesis tests: capture one failing
 * run of a kernel's scripted buggy schedule
 * (apps::captureScriptedFailure — recorded once, diagnosed on the leg
 * the leg rule picks) and (optionally) ddmin-minimise its replay log
 * — everything synthesizeFix()/validatePatch() consume.
 */
#pragma once

#include <string>

#include "apps/harness.h"
#include "obs/postmortem/diagnosis.h"
#include "obs/replay/minimize.h"
#include "obs/replay/replay_log.h"

namespace conair::fixtest {

/** Everything the scripted-failure front half produced. */
struct ScriptedFailure
{
    apps::CampaignApp app;      ///< owns both module builds
    explore::Target target;     ///< borrows app's modules
    obs::pm::RecoveryReport report;
    obs::replay::ReplayLog log; ///< minimised when hasLog
    bool hasLog = false;
};

/**
 * Fills @p out for kernel @p name.  Probes the scripted buggy
 * schedule over seeds 1..8 for a failing unhardened run; returns
 * false with a one-line @p err when the kernel is unknown, no seed
 * fails, or the diagnosis is empty.
 */
inline bool
recordScriptedFailure(const std::string &name, bool wantLog,
                      ScriptedFailure &out, std::string &err)
{
    const apps::AppSpec *spec = apps::findApp(name);
    if (!spec) {
        err = "unknown app '" + name + "'";
        return false;
    }
    out.app = apps::prepareCampaignApp(*spec);
    out.target = apps::campaignTarget(out.app);

    explore::FailureEvidence ev =
        apps::captureScriptedFailure(*spec, out.target);
    if (!ev.failed) {
        err = name + ": scripted buggy schedule never failed "
                     "(seeds 1..8)";
        return false;
    }
    out.report = ev.diagnosis.report;
    if (out.report.episodes.empty()) {
        err = name + ": diagnosis produced no episodes";
        return false;
    }

    if (wantLog) {
        if (!ev.hasLog) {
            err = name + ": replay log build failed: " + ev.logError;
            return false;
        }
        obs::replay::MinimizeResult mres =
            obs::replay::minimizeReplayLog(*out.target.plain, ev.log);
        out.log = mres.ok ? mres.minimized : ev.log;
        out.hasLog = true;
    }
    return true;
}

} // namespace conair::fixtest
