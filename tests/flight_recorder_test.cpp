// Flight recorder semantics: dump round-trip (ring records -> Chrome
// trace + metrics snapshot on disk), rate limiting, the hs::fault fire
// hook trigger, and the acceptance scenario — a serving run whose
// watchdog respawns a stalled worker must leave a flight-recorder dump
// on disk whose trace contains the spans preceding the restart.

#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.h"
#include "infer/infer.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "obs/obs.h"
#include "util/stopwatch.h"

namespace hs::obs {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/// All "<prefix>.trace.json" flight dumps under `dir`, sorted.
std::vector<fs::path> trace_dumps(const fs::path& dir) {
    std::vector<fs::path> out;
    for (const auto& e : fs::directory_iterator(dir)) {
        const std::string name = e.path().filename().string();
        if (name.rfind("hs_flight_", 0) == 0 &&
            name.size() > 11 &&
            name.find(".trace.json") != std::string::npos)
            out.push_back(e.path());
    }
    std::sort(out.begin(), out.end());
    return out;
}

/// True iff the parsed Chrome trace has a traceEvents entry whose name
/// starts with `prefix`.
bool has_event_with_prefix(const JsonValue& trace, const std::string& prefix) {
    const JsonValue* events = trace.find("traceEvents");
    if (events == nullptr || !events->is_array()) return false;
    for (const auto& ev : events->array) {
        const JsonValue* name = ev.find("name");
        if (name != nullptr && name->string.rfind(prefix, 0) == 0) return true;
    }
    return false;
}

class FlightRecorderTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::path(::testing::TempDir()) /
               ("flight_" +
                std::string(
                    ::testing::UnitTest::GetInstance()->current_test_info()->name()));
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        set_flight_dir(dir_.string());
        flight_reset();
        Registry::instance().reset();
        set_enabled(true);
    }
    void TearDown() override {
        fault::disarm();
        set_enabled(false);
        flight_reset();
        Registry::instance().reset();
        fs::remove_all(dir_);
    }

    fs::path dir_;
};

TEST_F(FlightRecorderTest, DumpRoundTripsRecordsAndMetrics) {
    const std::int64_t t0 = monotonic_ns();
    flight_record("unit.work", "test", t0, t0 + 1000);
    flight_mark("unit.marker");
    count("unit.counter", 3);

    const std::string trace_path = flight_dump("unit_test");
    ASSERT_FALSE(trace_path.empty());
    EXPECT_EQ(flight_dump_count(), 1);
    ASSERT_TRUE(fs::exists(trace_path));

    const auto trace = parse_json(slurp(trace_path));
    ASSERT_TRUE(trace.has_value());
    EXPECT_TRUE(has_event_with_prefix(*trace, "unit.work"));
    EXPECT_TRUE(has_event_with_prefix(*trace, "unit.marker"));

    // The sibling metrics snapshot carries the registry state.
    std::string metrics_path = trace_path;
    const auto pos = metrics_path.rfind(".trace.json");
    ASSERT_NE(pos, std::string::npos);
    metrics_path.replace(pos, std::string::npos, ".metrics.json");
    ASSERT_TRUE(fs::exists(metrics_path));
    const auto metrics = parse_json(slurp(metrics_path));
    ASSERT_TRUE(metrics.has_value());
    EXPECT_NE(metrics->find("counters"), nullptr);
}

TEST_F(FlightRecorderTest, BackToBackDumpsAreRateLimited) {
    flight_mark("first");
    ASSERT_FALSE(flight_dump("one").empty());
    // Inside the minimum gap: suppressed, not a second file.
    EXPECT_TRUE(flight_dump("two").empty());
    EXPECT_EQ(flight_dump_count(), 1);
    EXPECT_EQ(trace_dumps(dir_).size(), 1u);
    // flight_reset() re-arms the limiter (what tests rely on).
    flight_reset();
    flight_mark("third");
    EXPECT_FALSE(flight_dump("three").empty());
}

TEST_F(FlightRecorderTest, FaultFireHookTriggersDump) {
    install_flight_triggers();
    fault::arm("flightrec.site=delay:0#1");
    flight_record("before.fault", "test", monotonic_ns(),
                  monotonic_ns() + 10);

    (void)fault::at("flightrec.site"); // fires -> hook -> dump
    ASSERT_GE(flight_dump_count(), 1);

    const auto dumps = trace_dumps(dir_);
    ASSERT_FALSE(dumps.empty());
    EXPECT_NE(dumps.front().string().find("fault_flightrec"),
              std::string::npos);
    const auto trace = parse_json(slurp(dumps.front()));
    ASSERT_TRUE(trace.has_value());
    // The ring held work recorded before the fault, plus the incident mark.
    EXPECT_TRUE(has_event_with_prefix(*trace, "before.fault"));
    EXPECT_TRUE(has_event_with_prefix(*trace, "fault:"));
}

// Acceptance: a serving run with an injected worker stall long enough to
// trip the watchdog must produce a flight-recorder dump (trace + metrics)
// whose spans precede the restart — without HS_TRACE_FILE ever being set.
TEST_F(FlightRecorderTest, WatchdogRestartDumpsSpansPrecedingRestart) {
    constexpr int kChannels = 4;
    nn::Sequential net;
    net.emplace<nn::GlobalAvgPool>();
    auto model = std::make_shared<const infer::FrozenModel>(
        infer::freeze(net, {kChannels, 2, 2}));

    infer::ServingConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 2;
    cfg.queue_capacity = 64;
    cfg.watchdog_timeout_us = 50'000;
    infer::ServingEngine serving(model, cfg);

    // Only the first batch stalls (400 ms >> watchdog 50 ms).
    fault::arm("serving.worker=delay:400000#1");

    constexpr int kRequests = 10;
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < kRequests; ++i) {
        auto r = serving.submit(Tensor::full({kChannels, 2, 2},
                                             static_cast<float>(i + 1)),
                                infer::SubmitOptions{});
        ASSERT_TRUE(r.accepted()) << "submit " << i;
        futures.push_back(std::move(*r.future));
        if (i == 1) // let the stalled batch get picked up first
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    for (auto& f : futures) (void)f.get();
    serving.stop();

    const infer::ServingStats stats = serving.stats();
    ASSERT_GE(stats.worker_restarts, 1);

    // At least one incident dump exists (fault-hook or watchdog trigger;
    // within the rate-limit gap only the first fires).
    ASSERT_GE(flight_dump_count(), 1);
    const auto dumps = trace_dumps(dir_);
    ASSERT_FALSE(dumps.empty());

    const auto trace = parse_json(slurp(dumps.front()));
    ASSERT_TRUE(trace.has_value());
    const JsonValue* events = trace->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    ASSERT_FALSE(events->array.empty());
    // Spans from before the incident made it into the dump.
    EXPECT_TRUE(has_event_with_prefix(*trace, "serve."));

    // And the sibling metrics snapshot is valid JSON with counters.
    std::string metrics_path = dumps.front().string();
    metrics_path.replace(metrics_path.rfind(".trace.json"),
                         std::string::npos, ".metrics.json");
    ASSERT_TRUE(fs::exists(metrics_path));
    const auto metrics = parse_json(slurp(metrics_path));
    ASSERT_TRUE(metrics.has_value());
    EXPECT_NE(metrics->find("counters"), nullptr);
}

} // namespace
} // namespace hs::obs
