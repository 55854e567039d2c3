/**
 * @file
 * Every checked-in BENCH_encoder.json record must pass the schema
 * table in bench/bench_record.hh and its type's cross-field checks.
 * Also pins that the table is enforced, that the append refuses a
 * file that is not a JSON array, and the strict JSON parser
 * (tests/support/json_test_util.hh) the file is read with.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "../../bench/bench_record.hh"
#include "../support/json_test_util.hh"
#include "service/encode_service.hh"

#ifndef PCE_SOURCE_DIR
#error "PCE_SOURCE_DIR must point at the repository root"
#endif

namespace {

using namespace pce::bench;
using testjson::JsonParser;
using testjson::JsonValue;
using testjson::readFile;

TEST(BenchSchema, TrajectoryFileParsesAndConforms)
{
    const std::string path =
        std::string(PCE_SOURCE_DIR) + "/BENCH_encoder.json";
    const std::string text = readFile(path);
    ASSERT_FALSE(text.empty()) << path << " is missing or empty";
    JsonValue doc;
    ASSERT_NO_THROW(doc = JsonParser(text).parse())
        << "BENCH_encoder.json does not parse";
    ASSERT_TRUE(doc.isArray())
        << "top level must be an array of records";
    ASSERT_FALSE(doc.array.empty())
        << "the trajectory must hold at least one record";

    for (std::size_t i = 0; i < doc.array.size(); ++i) {
        const JsonValue &rec = doc.array[i];
        ASSERT_TRUE(rec.isObject()) << "record " << i;
        const std::vector<std::string> errors = validateRecord(rec);
        for (const std::string &e : errors)
            ADD_FAILURE() << "record " << i << ": " << e;
        if (!errors.empty())
            continue;

        // Cross-field checks — the point of the fault and adaptive
        // records — which the per-field table cannot state.
        const auto num = [&](const std::string &key) {
            return rec.find(key)->number;  // validated: present
        };
        if (rec.find("bench")->string == "fault_campaign") {
            // On every surface the selective hardening defends, silent
            // corruption must drop and detection coverage must rise.
            std::vector<std::string> defended = {
                "bd_stream", "queue_slot", "ecc_map", "frame_output"};
            if (rec.find("net_packet_baseline_coverage") != nullptr)
                defended.push_back("net_packet");
            for (const std::string &s : defended) {
                EXPECT_LT(num(s + "_hardened_silent_rate"),
                          num(s + "_baseline_silent_rate"))
                    << "record " << i << " surface " << s
                    << ": hardening did not reduce silent corruption";
                EXPECT_GT(num(s + "_hardened_coverage"),
                          num(s + "_baseline_coverage"))
                    << "record " << i << " surface " << s
                    << ": hardening did not raise detection coverage";
            }
        } else if (rec.find("input_copies") != nullptr) {
            // Input copies are whole frames, and the pool never owns
            // more than the streams' summed streamDepth (the runner
            // uses the default).
            EXPECT_EQ(num("input_copy_bytes"),
                      num("input_copies") * num("width") *
                          num("height") * sizeof(pce::Vec3))
                << "record " << i;
            EXPECT_LE(num("input_copies"),
                      num("streams") * pce::ServiceParams().streamDepth)
                << "record " << i;
        } else if (const JsonValue *gate =
                       rec.find("adaptive_loss_schedules")) {
            const auto names = splitNames(gate->string);
            EXPECT_GE(names.size(), 2u)
                << "record " << i
                << ": adaptive sweep must cover step and burst";
            // Convergence is -1 (never) or within the run.
            for (const std::string &s : names)
                EXPECT_LE(num("adaptive_" + s + "_convergence_frames"),
                          num("adaptive_frames"))
                    << "record " << i << " schedule " << s;
        }
    }
}

/**
 * A conforming record of type @p schema, built through Record from the
 * table itself: every field of every group, the gated ones included,
 * at an in-range value.
 */
Record
minimalRecord(const RecordSchema &schema)
{
    Record rec(schema.bench, 1);
    for (const GroupSpec &g : schema.groups) {
        if (g.ifAbsent)
            continue;  // the legacy shape; Record stamps `date`
        for (const auto &[key, spec] : groupFields(g, rec)) {
            if (spec.kind == FieldKind::Number)
                rec.num(key, std::min(spec.hi, spec.lo + 1));
            else if (spec.kind == FieldKind::String)
                rec.str(key, "step,burst");
        }
    }
    return rec;
}

TEST(BenchSchema, TableRejectsEveryMutation)
{
    for (const RecordSchema &schema : schemaTable()) {
        const Record rec = minimalRecord(schema);
        ASSERT_TRUE(validateRecord(rec).empty()) << schema.bench;
        // Mutate the record as its JSON text reads back.
        const JsonValue base = JsonParser(rec.json()).parse();
        ASSERT_TRUE(validateRecord(base).empty()) << schema.bench;
        const auto expectRejected = [&](const std::string &what,
                                        const auto &mutate) {
            JsonValue m = base;
            mutate(m.object);
            EXPECT_FALSE(validateRecord(m).empty())
                << schema.bench << " accepted " << what;
        };

        for (const GroupSpec &g : schema.groups)
            for (const auto &[k, spec] : groupFields(g, base)) {
                if (base.find(k) == nullptr)
                    continue;  // the legacy group's `threads`
                expectRejected("no " + k, [&](auto &o) { o.erase(k); });
                if (spec.kind != FieldKind::Number) {
                    expectRejected(k + " as a number", [&](auto &o) {
                        o[k].type = JsonValue::Type::Number;
                    });
                    continue;
                }
                expectRejected(k + " as a string", [&](auto &o) {
                    o[k].type = JsonValue::Type::String;
                    o[k].string = "1";
                });
                // Negative wherever the bound is the default 0.
                expectRejected(k + " below its bound", [&](auto &o) {
                    o[k].number = spec.loOpen ? spec.lo : spec.lo - 0.5;
                });
                if (std::isfinite(spec.hi))
                    expectRejected(k + " above its bound", [&](auto &o) {
                        o[k].number = spec.hi + 0.5;
                    });
            }
        expectRejected("a date without a time", [](auto &o) {
            o["date"].string = "2026-10-17";
        });
        // The bounds that carry a record's point, pinned by value.
        const std::vector<std::pair<std::string, double>> pins = {
            {"shard_count", 0.0},     {"refix_speedup", 1.0},
            {"trace_on_vs_off", 0.0}, {"trace_events", 0.0},
            {"loss0_delivered_tile_fraction", 0.99}};
        for (const auto &[k, bad] : pins)
            if (base.find(k) != nullptr)
                expectRejected(k + " at " + std::to_string(bad),
                               [&](auto &o) { o[k].number = bad; });
        if (base.find("adaptive_loss_schedules") != nullptr)
            expectRejected("a named schedule without its group",
                           [](auto &o) {
                               std::erase_if(o, [](const auto &kv) {
                                   return kv.first.starts_with(
                                       "adaptive_burst_");
                               });
                           });
        expectRejected("no bench", [](auto &o) { o.erase("bench"); });
        expectRejected("an unknown bench type", [](auto &o) {
            o["bench"].string = "not_a_bench";
        });
    }
}

// --------------------------------------------------------------- append

/** A scratch trajectory file, removed with its .tmp after each test. */
class BenchAppend : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        std::remove(path_.c_str());
        std::remove(tmp_.c_str());
    }

    static void write(const std::string &path, const std::string &text)
    {
        std::ofstream(path, std::ios::binary) << text;
    }

    const std::string path_ = ::testing::TempDir() + "bench_append_" +
                              std::to_string(::getpid()) + ".json";
    const std::string tmp_ = path_ + ".tmp";
    const std::string rec_ = "  {\"bench\": \"z\"}";
    const std::string two_ =
        "[\n  {\"bench\": \"x\"},\n  {\"bench\": \"y\"}\n]";
};

TEST_F(BenchAppend, StartsOrExtendsAnArray)
{
    ASSERT_TRUE(appendJsonRecord(path_, rec_));  // no file yet
    EXPECT_EQ(readFile(path_), "[\n" + rec_ + "\n]\n");

    const std::vector<std::pair<std::string, std::size_t>> cases = {
        {"[]", 1}, {"[\n]\n", 1}, {two_ + "\n \n\t", 3},
        {"[\r\n  {}\r\n]\r\n", 2}};  // trailing whitespace, CRLF
    for (const auto &[existing, records] : cases) {
        write(path_, existing);
        ASSERT_TRUE(appendJsonRecord(path_, rec_)) << existing;
        const JsonValue doc = JsonParser(readFile(path_)).parse();
        ASSERT_EQ(doc.array.size(), records) << existing;
        EXPECT_EQ(doc.array.back().find("bench")->string, "z");
    }
}

TEST_F(BenchAppend, RefusesAnythingButAnArray)
{
    for (const std::string &existing : std::vector<std::string>{
             two_ + "\n<<<<<<< HEAD\n", "{\"bench\": \"x\"}\n",
             two_.substr(0, two_.size() - 2)})
        for (const bool stale_tmp : {false, true}) {
            write(path_, existing);
            std::remove(tmp_.c_str());
            if (stale_tmp)  // left over from an earlier run
                write(tmp_, "[\n" + rec_ + "\n]\n");
            EXPECT_FALSE(appendJsonRecord(path_, rec_)) << existing;
            EXPECT_EQ(readFile(path_), existing);
        }
}

TEST_F(BenchAppend, NonConformingRecordIsNeverWritten)
{
    write(path_, two_);
    EXPECT_FALSE(Record("gaze_encode", 1).appendTo(path_));
    EXPECT_EQ(readFile(path_), two_);

    EXPECT_TRUE(minimalRecord(schemaTable().front()).appendTo(path_));
    EXPECT_EQ(JsonParser(readFile(path_)).parse().array.size(), 3u);
}

// --------------------------------------------------------------- parser

TEST(BenchSchema, ParserRejectsMalformedDocuments)
{
    const char *bad[] = {
        "",
        "[",
        "[{]",
        "[{}",
        "{\"a\": }",
        "[1,]",
        "[01]",
        "[1.2.3]",
        "[\"unterminated]",
        "[{\"a\":1,\"a\":2}]",   // duplicate key
        "[true] trailing",
        "[nul]",
        "[+1]",
        "[1e]",
    };
    for (const char *text : bad) {
        const std::string doc(text);
        EXPECT_THROW(JsonParser(doc).parse(), std::runtime_error)
            << "accepted: " << doc;
    }
}

TEST(BenchSchema, ParserAcceptsRepresentativeDocuments)
{
    const char *good[] = {
        "[]",
        "[{}]",
        "{\"a\": [1, -2.5, 1e3, 1.5E-2], \"b\": \"x\\n\\u0041\", "
        "\"c\": true, \"d\": null}",
        "  [ { \"nested\" : { \"deep\" : [ [ ] ] } } ]  ",
    };
    for (const char *text : good) {
        const std::string doc(text);
        EXPECT_NO_THROW(JsonParser(doc).parse()) << "rejected: " << doc;
    }
}

} // namespace
