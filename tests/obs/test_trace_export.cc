/**
 * @file
 * Chrome trace-event export validation (src/obs/trace_export.hh),
 * using the same strict dependency-free JSON parser that guards
 * BENCH_encoder.json (tests/support/json_test_util.hh): the exported
 * document must parse, every event must carry pid/tid/ts/ph/name,
 * complete events need dur, instants need the scope field, string
 * escaping must survive hostile thread names, and span begin/end
 * ordering must survive the µs re-quantization.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "../support/json_test_util.hh"
#include "obs/trace.hh"
#include "obs/trace_export.hh"

namespace pce::obs {
namespace {

using testjson::JsonParser;
using testjson::JsonValue;

/** Structural contract for one exported trace document. */
void
validateTraceDocument(const JsonValue &doc)
{
    ASSERT_TRUE(doc.isObject());
    const JsonValue *unit = doc.find("displayTimeUnit");
    ASSERT_NE(unit, nullptr);
    EXPECT_EQ(unit->string, "ms");
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    for (std::size_t i = 0; i < events->array.size(); ++i) {
        const JsonValue &e = events->array[i];
        ASSERT_TRUE(e.isObject()) << "event " << i;
        for (const char *key : {"pid", "tid", "ts"}) {
            const JsonValue *v = e.find(key);
            ASSERT_NE(v, nullptr)
                << "event " << i << " missing " << key;
            EXPECT_TRUE(v->isNumber()) << "event " << i;
        }
        const JsonValue *ph = e.find("ph");
        ASSERT_NE(ph, nullptr) << "event " << i;
        ASSERT_TRUE(ph->isString()) << "event " << i;
        const JsonValue *name = e.find("name");
        ASSERT_NE(name, nullptr) << "event " << i;
        EXPECT_TRUE(name->isString()) << "event " << i;
        EXPECT_FALSE(name->string.empty()) << "event " << i;
        const JsonValue *args = e.find("args");
        ASSERT_NE(args, nullptr) << "event " << i;
        EXPECT_TRUE(args->isObject()) << "event " << i;
        if (ph->string == "X") {
            const JsonValue *dur = e.find("dur");
            ASSERT_NE(dur, nullptr) << "event " << i;
            EXPECT_TRUE(dur->isNumber()) << "event " << i;
            EXPECT_GE(dur->number, 0.0) << "event " << i;
        } else if (ph->string == "i") {
            const JsonValue *scope = e.find("s");
            ASSERT_NE(scope, nullptr) << "event " << i;
            EXPECT_EQ(scope->string, "t") << "event " << i;
        } else {
            EXPECT_EQ(ph->string, "M") << "event " << i;
        }
    }
}

TEST(TraceExport, EmptyTraceIsAValidDocument)
{
    std::ostringstream os;
    writeChromeTrace(os, {});
    JsonValue doc;
    ASSERT_NO_THROW(doc = JsonParser(os.str()).parse()) << os.str();
    validateTraceDocument(doc);
    EXPECT_TRUE(doc.find("traceEvents")->array.empty());
}

TEST(TraceExport, EventsCarryTimesTagsAndPayloads)
{
    std::vector<TraceEvent> events;
    TraceEvent span;
    span.name = "service/dispatch";
    span.beginNs = 1234567;   // 1234.567 us
    span.endNs = 9876543;
    span.frame = 7;
    span.stream = 1;
    span.shard = 0;
    span.argName = "migrated";
    span.arg = 1;
    span.tid = 2;
    events.push_back(span);
    TraceEvent instant;
    instant.name = "net/nack";
    instant.beginNs = 2000000;
    instant.endNs = 2000000;
    instant.instant = true;
    instant.tid = 3;
    events.push_back(instant);

    std::ostringstream os;
    writeChromeTrace(os, events, {{2, "shard0/dispatcher"}});
    JsonValue doc;
    ASSERT_NO_THROW(doc = JsonParser(os.str()).parse()) << os.str();
    validateTraceDocument(doc);

    const std::vector<JsonValue> &out =
        doc.find("traceEvents")->array;
    ASSERT_EQ(out.size(), 3u);  // thread_name + span + instant
    EXPECT_EQ(out[0].find("ph")->string, "M");
    EXPECT_EQ(out[0].find("args")->find("name")->string,
              "shard0/dispatcher");

    const JsonValue &x = out[1];
    EXPECT_EQ(x.find("ph")->string, "X");
    EXPECT_DOUBLE_EQ(x.find("ts")->number, 1234.567);
    EXPECT_DOUBLE_EQ(x.find("dur")->number, 8641.976);
    EXPECT_DOUBLE_EQ(x.find("args")->find("frame")->number, 7.0);
    EXPECT_DOUBLE_EQ(x.find("args")->find("stream")->number, 1.0);
    EXPECT_DOUBLE_EQ(x.find("args")->find("shard")->number, 0.0);
    EXPECT_DOUBLE_EQ(x.find("args")->find("migrated")->number, 1.0);

    const JsonValue &ii = out[2];
    EXPECT_EQ(ii.find("ph")->string, "i");
    // Untagged event: the sentinel tag fields must be *absent*, not
    // emitted as giant sentinel numbers.
    EXPECT_EQ(ii.find("args")->find("frame"), nullptr);
    EXPECT_EQ(ii.find("args")->find("stream"), nullptr);
    EXPECT_EQ(ii.find("args")->find("shard"), nullptr);
}

TEST(TraceExport, HostileThreadNamesAreEscaped)
{
    const std::string hostile =
        "quote\" backslash\\ newline\n tab\t ctrl\x01 done";
    std::ostringstream os;
    writeChromeTrace(os, {}, {{9, hostile}});
    JsonValue doc;
    ASSERT_NO_THROW(doc = JsonParser(os.str()).parse()) << os.str();
    validateTraceDocument(doc);
    const std::string &name = doc.find("traceEvents")
                                  ->array[0]
                                  .find("args")
                                  ->find("name")
                                  ->string;
    // The strict parser keeps \uXXXX escapes verbatim, so the control
    // byte round-trips as its escape.
    EXPECT_NE(name.find("quote\""), std::string::npos);
    EXPECT_NE(name.find("backslash\\"), std::string::npos);
    EXPECT_NE(name.find("newline\n"), std::string::npos);
    EXPECT_NE(name.find("\\u0001"), std::string::npos);
}

TEST(TraceExport, CollectedTraceExportsAndSaves)
{
    setTraceEnabled(false);
    Tracer::instance().reset();
    setTraceEnabled(true);
    Tracer::instance().nameThread("exporter-test");
    {
        TraceSpan outer("outer");
        TraceSpan inner("inner");
        inner.end();
        traceInstant("mark", "k", 5);
    }
    setTraceEnabled(false);

    std::ostringstream os;
    writeChromeTrace(os);
    JsonValue doc;
    ASSERT_NO_THROW(doc = JsonParser(os.str()).parse()) << os.str();
    validateTraceDocument(doc);
    // thread_name + outer + inner + instant.
    EXPECT_EQ(doc.find("traceEvents")->array.size(), 4u);

    const std::string path = "trace_export_test.json";
    ASSERT_TRUE(saveChromeTrace(path));
    const std::string text = testjson::readFile(path);
    std::remove(path.c_str());
    ASSERT_FALSE(text.empty());
    JsonValue saved;
    ASSERT_NO_THROW(saved = JsonParser(text).parse());
    validateTraceDocument(saved);
    Tracer::instance().reset();
}

TEST(TraceExport, SpansNestInExportOrder)
{
    // Exported order is collect() order: a parent span must appear
    // before its child, and the child's [ts, ts+dur] window must sit
    // inside the parent's — µs re-quantization included, because both
    // edges round the same way (truncation toward zero).
    setTraceEnabled(false);
    Tracer::instance().reset();
    setTraceEnabled(true);
    {
        TraceSpan a("parent");
        TraceSpan b("child");
    }
    setTraceEnabled(false);
    std::ostringstream os;
    writeChromeTrace(os);
    JsonValue doc;
    ASSERT_NO_THROW(doc = JsonParser(os.str()).parse());
    // Filter to the span events: the main thread's recorder may
    // still carry a thread_name from an earlier test in this binary.
    std::vector<JsonValue> out;
    for (const JsonValue &e : doc.find("traceEvents")->array)
        if (e.find("ph")->string == "X")
            out.push_back(e);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].find("name")->string, "parent");
    EXPECT_EQ(out[1].find("name")->string, "child");
    const double p0 = out[0].find("ts")->number;
    const double p1 = p0 + out[0].find("dur")->number;
    const double c0 = out[1].find("ts")->number;
    const double c1 = c0 + out[1].find("dur")->number;
    EXPECT_LE(p0, c0);
    EXPECT_GE(p1, c1);
    Tracer::instance().reset();
}

} // namespace
} // namespace pce::obs
