#include "explore/evidence.h"

#include "ir/module.h"

namespace conair::explore {

vm::VmConfig
cellConfig(const Target &t, const ScheduleSpec &s,
           const CampaignOptions &opts)
{
    vm::VmConfig cfg;
    s.applyTo(cfg);
    cfg.pctHorizon = t.horizon;
    cfg.quantum = t.quantum;
    cfg.maxSteps = opts.maxSteps;
    cfg.maxRetries = opts.maxRetries;
    return cfg;
}

bool
correctRun(const Target &t, const vm::RunResult &r)
{
    if (r.outcome != vm::Outcome::Success)
        return false;
    if (!t.checkOutput)
        return true;
    return r.output == t.expectedOutput && r.exitCode == t.expectedExit;
}

LegDiagnosis
diagnoseLegs(const Target &t, const obs::FlightRecorder &plainRec,
             const obs::FlightRecorder &hardRec, const std::string &token)
{
    LegDiagnosis d;
    d.hardened = t.hardened &&
                 (hardRec.totalOf(obs::EventKind::RecoveryDone) > 0 ||
                  hardRec.totalOf(obs::EventKind::FailureSite) > 0);
    d.report = obs::pm::diagnose(d.hardened ? hardRec : plainRec,
                                 d.hardened ? *t.hardened : *t.plain,
                                 t.name, token);
    return d;
}

FailureEvidence
captureFailure(const Target &t, const vm::VmConfig &cfg,
               const std::string &token)
{
    FailureEvidence ev;
    vm::VmConfig bare = cfg; // the log snapshots the config, recorders off
    bare.recorder = nullptr;
    bare.recordSharedAccesses = false;

    vm::VmConfig rcfg = bare;
    rcfg.recorder = &ev.plainTrace;
    rcfg.recordSharedAccesses = true;
    ev.run = vm::runProgram(*t.plain, rcfg);
    ev.failed = !correctRun(t, ev.run);

    if (ev.failed && t.hardened) {
        rcfg.recorder = &ev.hardenedTrace;
        vm::runProgram(*t.hardened, rcfg);
    }
    ev.diagnosis = diagnoseLegs(t, ev.plainTrace, ev.hardenedTrace, token);
    ev.hasLog = obs::replay::buildReplayLog(t.name, token, bare,
                                            ev.plainTrace, ev.run, ev.log,
                                            ev.logError);
    return ev;
}

} // namespace conair::explore
