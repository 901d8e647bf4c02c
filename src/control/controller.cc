#include "control/controller.hh"

#include <algorithm>
#include <ostream>
#include <string>

#include "engine/engine.hh"
#include "support/logging.hh"
#include "telemetry/telemetry.hh"

namespace hotpath::control
{

Controller::Controller(engine::Engine &eng, ControllerConfig config)
    : eng(eng), cfg(std::move(config)), classifier(cfg.classifier)
{
    HOTPATH_ASSERT(!cfg.tauRungs.empty(),
                   "controller needs at least one tau rung");
    HOTPATH_ASSERT(
        std::is_sorted(cfg.tauRungs.begin(), cfg.tauRungs.end()),
        "tau rungs must ascend");

    tmEpochs = telemetry::counter("control.epochs");
    tmDecisions = telemetry::counter("control.decisions");
    tmRetunes = telemetry::counter("control.retunes");
    tmShedEngaged = telemetry::counter("control.shed.engaged");
    tmShedReleased = telemetry::counter("control.shed.released");
    for (std::size_t i = 0; i < kSessionClassCount; ++i)
        tmClass[i] = telemetry::counter(
            std::string("control.class.") +
            sessionClassName(static_cast<SessionClass>(i)));
    tmPressure = telemetry::gauge("control.queue.pressure");
    tmObserved = telemetry::gauge("control.sessions.observed");
    tmShedActive = telemetry::gauge("control.shed.active");
}

std::size_t
Controller::rungOf(std::uint64_t tau) const
{
    for (std::size_t i = 0; i < cfg.tauRungs.size(); ++i)
        if (cfg.tauRungs[i] >= tau)
            return i;
    return cfg.tauRungs.size() - 1;
}

std::uint32_t
Controller::measurePressure() const
{
    const engine::EngineStats stats = eng.stats();
    std::size_t max_depth = 0;
    for (const std::size_t depth : stats.queueDepth)
        max_depth = std::max(max_depth, depth);
    const std::uint64_t permille =
        static_cast<std::uint64_t>(max_depth) * 1000 /
        stats.queueCapacityFrames;
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(
        permille, 1000));
}

void
Controller::step()
{
    stepWithLoad(measurePressure());
}

void
Controller::stepWithLoad(std::uint32_t pressure_permille)
{
    std::lock_guard<std::mutex> guard(mu);
    ++epochCount;
    if (tmEpochs)
        tmEpochs->add(1);

    // 1. Snapshot every resident session. The forEach order depends
    // on hashing, so sort by id before classifying - the decision
    // log must not depend on shard layout.
    scratchSamples.clear();
    eng.sessions().forEach([this](const engine::Session &session) {
        const engine::SessionStats &stats = session.stats();
        SessionSample sample;
        sample.session = session.id();
        sample.events = stats.eventsProcessed;
        sample.cached = stats.cachedEvents;
        sample.predictions = stats.predictions;
        sample.counters = session.countersAllocated();
        sample.predictionDelay = session.predictionDelay();
        scratchSamples.push_back(sample);
    });
    std::sort(scratchSamples.begin(), scratchSamples.end(),
              [](const SessionSample &a, const SessionSample &b) {
                  return a.session < b.session;
              });
    observedCount = scratchSamples.size();
    if (tmObserved)
        tmObserved->set(static_cast<std::int64_t>(observedCount));
    rungOccupancy.assign(cfg.tauRungs.size(), 0);
    for (const SessionSample &sample : scratchSamples)
        ++rungOccupancy[rungOf(sample.predictionDelay)];

    // 2+3. Classify each session's closed epoch and move one ladder
    // rung when the verdict calls for it.
    for (const SessionSample &sample : scratchSamples) {
        const SessionClass cls = classifier.observe(sample);
        ++classTallies[static_cast<std::size_t>(cls)];
        if (telemetry::Counter *tm =
                tmClass[static_cast<std::size_t>(cls)])
            tm->add(1);

        const std::size_t rung = rungOf(sample.predictionDelay);
        std::size_t target = rung;
        switch (cls) {
        case SessionClass::Noisy:
            // Junk promotions: raise τ so only genuinely hot paths
            // clear the bar.
            if (rung + 1 < cfg.tauRungs.size())
                target = rung + 1;
            break;
        case SessionClass::PhaseShifting:
        case SessionClass::HeadChurn:
            // The working set moved: lower τ so the new hot paths
            // are promoted before the next move.
            if (rung > 0)
                target = rung - 1;
            break;
        case SessionClass::Idle:
        case SessionClass::Stable:
            break;
        }
        const std::uint64_t tau_after = cfg.tauRungs[target];
        if (tau_after == sample.predictionDelay)
            continue;
        if (!eng.retuneSession(sample.session, tau_after))
            continue; // evicted between snapshot and retune

        --rungOccupancy[rung];
        ++rungOccupancy[target];
        ++decisionCount;
        if (tmDecisions)
            tmDecisions->add(1);
        if (tmRetunes)
            tmRetunes->add(1);
        if (log.size() >= cfg.decisionLogCap)
            log.erase(log.begin());
        log.push_back(ControlDecision{epochCount, sample.session,
                                      cls, sample.predictionDelay,
                                      tau_after});
        // Settling time: drop the session's history so the next
        // epoch re-seeds under the new τ and the one after is the
        // first to judge it.
        classifier.forget(sample.session);
    }

    // 4. Queue-pressure response with hysteresis.
    lastPressure = pressure_permille;
    if (tmPressure)
        tmPressure->set(static_cast<std::int64_t>(pressure_permille));
    if (!shedActive && pressure_permille >= cfg.shedOnPermille) {
        shedActive = true;
        ++shedEngagedCount;
        eng.setForcedShedding(true);
        if (tmShedEngaged)
            tmShedEngaged->add(1);
    } else if (shedActive &&
               pressure_permille < cfg.shedOffPermille) {
        shedActive = false;
        ++shedReleasedCount;
        eng.setForcedShedding(false);
        if (tmShedReleased)
            tmShedReleased->add(1);
    }
    if (tmShedActive)
        tmShedActive->set(shedActive ? 1 : 0);
}

std::uint64_t
Controller::epoch() const
{
    std::lock_guard<std::mutex> guard(mu);
    return epochCount;
}

std::vector<ControlDecision>
Controller::decisions() const
{
    std::lock_guard<std::mutex> guard(mu);
    return log;
}

ControlStats
Controller::stats() const
{
    std::lock_guard<std::mutex> guard(mu);
    ControlStats out;
    out.epochs = epochCount;
    out.decisions = decisionCount;
    out.sessionsObserved = observedCount;
    for (std::size_t i = 0; i < kSessionClassCount; ++i)
        out.classCounts[i] = classTallies[i];
    out.shedEngaged = shedEngagedCount;
    out.shedReleased = shedReleasedCount;
    out.shedActive = shedActive;
    out.lastPressurePermille = lastPressure;
    return out;
}

std::uint32_t
Controller::loadHintPermille() const
{
    std::lock_guard<std::mutex> guard(mu);
    return shedActive ? 500u : 1000u;
}

void
Controller::appendStats(std::ostream &os) const
{
    std::lock_guard<std::mutex> guard(mu);
    os << ",\"control_epoch\":" << epochCount
       << ",\"control_decisions\":" << decisionCount
       << ",\"control_sessions_observed\":" << observedCount
       << ",\"control_shed_engaged\":" << shedEngagedCount
       << ",\"control_shed_released\":" << shedReleasedCount
       << ",\"control_shed_active\":" << (shedActive ? 1 : 0)
       << ",\"control_queue_pressure_permille\":" << lastPressure
       << ",\"control_load_hint_permille\":"
       << (shedActive ? 500 : 1000);
    for (std::size_t i = 0; i < kSessionClassCount; ++i)
        os << ",\"control_class_"
           << sessionClassName(static_cast<SessionClass>(i))
           << "\":" << classTallies[i];

    // The τ ladder and its occupancy (sessions per rung as of the
    // last epoch's snapshot) as flat arrays, so engine_top can show
    // where the fleet of sessions currently sits.
    os << ",\"control_tau_rungs\":[";
    for (std::size_t i = 0; i < cfg.tauRungs.size(); ++i)
        os << (i ? "," : "") << cfg.tauRungs[i];
    os << "],\"control_tau_sessions\":[";
    for (std::size_t i = 0; i < cfg.tauRungs.size(); ++i)
        os << (i ? "," : "")
           << (i < rungOccupancy.size() ? rungOccupancy[i] : 0);
    os << "]";

    // The most recent retune, flattened (class as the SessionClass
    // index; engine_top maps it back to a name).
    if (!log.empty()) {
        const ControlDecision &last = log.back();
        os << ",\"control_last_epoch\":" << last.epoch
           << ",\"control_last_session\":" << last.session
           << ",\"control_last_class\":"
           << static_cast<unsigned>(last.cls)
           << ",\"control_last_tau_before\":" << last.tauBefore
           << ",\"control_last_tau_after\":" << last.tauAfter;
    }
}

} // namespace hotpath::control
