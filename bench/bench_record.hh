/**
 * @file
 * The BENCH_encoder.json record: the builder every runner writes it
 * with, the schema table, the validator over that table (run before
 * every append and, by tests/bench, over every checked-in record),
 * and the append to the trajectory file.
 */

#ifndef PCE_BENCH_BENCH_RECORD_HH
#define PCE_BENCH_BENCH_RECORD_HH

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "bd/bd_codec.hh"
#include "common/integrity.hh"
#include "simd/tile_kernels.hh"

#ifdef PCE_HAVE_GIT_REV_HEADER
#include "pce_git_rev.h"  // build-time stamp (cmake/git_rev.cmake)
#endif
#ifndef PCE_GIT_REV
#define PCE_GIT_REV "unknown"
#endif

namespace pce::bench {

/** Where a runner appends: argv[1], else PCE_BENCH_OUT, else
 *  BENCH_encoder.json in the working directory. */
inline std::string
benchOutPath(int argc, char **argv)
{
    if (argc > 1)
        return argv[1];
    const char *env = std::getenv("PCE_BENCH_OUT");
    return env != nullptr ? env : "BENCH_encoder.json";
}

/** UTC timestamp, ISO 8601 — the `date` field of bench records. */
inline std::string
isoNowUtc()
{
    const std::time_t now = std::time(nullptr);
    std::tm tm_utc{};
    gmtime_r(&now, &tm_utc);
    char buf[32];
    std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
    return buf;
}

// ------------------------------------------------------------- schema

enum class FieldKind { Number, String, Date };

/** One field: a number in [lo, hi] ((lo, hi] when loOpen) unless its
 *  kind says otherwise. A '*' in the key stands for each group name. */
struct FieldSpec
{
    const char *key;
    FieldKind kind = FieldKind::Number;
    double lo = 0.0;
    double hi = std::numeric_limits<double>::infinity();
    bool loOpen = false;
};

/**
 * Fields that appear together. A gated group applies only when its
 * gate key is present (absent, with ifAbsent), and when it does not
 * apply none of its fields may appear. `each` (a comma list) or
 * `eachFrom` (the string field holding one) repeats the fields once
 * per name.
 */
struct GroupSpec
{
    std::vector<FieldSpec> fields;
    const char *gate = nullptr;
    bool ifAbsent = false;
    const char *each = nullptr;
    const char *eachFrom = nullptr;
};

struct RecordSchema
{
    std::string bench;
    std::vector<GroupSpec> groups;  ///< the shared groups first
};

/** The schema: one row per record type, in the order they appeared. */
inline const std::vector<RecordSchema> &
schemaTable()
{
    constexpr FieldKind kStr = FieldKind::String;
    static const std::vector<GroupSpec> shared = {
        {.fields = {{"width"}, {"height"}, {"repeats"}}},
        {.fields = {{"date", FieldKind::Date}, {"git_rev", kStr},
                    {"simd_level", kStr}, {"hw_threads"}, {"mt_threads"},
                    {"mt_pool_workers"}},
         .gate = "date"},
        // The PR 1 record predates the provenance fields.
        {.fields = {{"threads"}}, .gate = "date", .ifAbsent = true},
        // The bit paths, since the BD tile pass and CRC-32 dispatch.
        {.fields = {{"bd_bit_path", kStr}, {"crc_path", kStr}},
         .gate = "bd_bit_path"},
    };
    const auto row = [](const char *bench, std::vector<GroupSpec> own) {
        RecordSchema s{bench, shared};
        s.groups.insert(s.groups.end(), own.begin(), own.end());
        return s;
    };
    static const std::vector<FieldSpec> surface_rates = {
        {.key = "*_baseline_coverage", .hi = 1},
        {.key = "*_hardened_coverage", .hi = 1},
        {.key = "*_baseline_silent_rate", .hi = 1},
        {.key = "*_hardened_silent_rate", .hi = 1}};
    static const std::vector<RecordSchema> table = {
        row("full_frame_encoder",
            {{.fields = {{"scene", kStr}, {"adjust_mps_1t"},
                         {"encode_mps_1t"}, {"adjust_mps_mt"},
                         {"encode_mps_mt"}, {"baseline_adjust_mps_1t"},
                         {"baseline_encode_mps_1t"},
                         {"adjust_speedup_vs_baseline"},
                         {"encode_speedup_vs_baseline"}}},
             {.fields = {{"baseline_decode_mps_1t"}, {"decode_mps_1t"},
                         {"decode_mps_mt"}, {"decode_speedup_vs_baseline"}},
              .gate = "baseline_decode_mps_1t"},
             {.fields = {{"trace_off_encode_mps_1t"},
                         {"trace_on_encode_mps_1t"},
                         {.key = "trace_on_vs_off", .loOpen = true},
                         {.key = "trace_events", .loOpen = true}},
              .gate = "trace_on_vs_off"}}),
        row("encode_service",
            {{.fields = {{"streams"}, {"frames_per_stream"},
                         {"aggregate_mps"}, {"singleshot_mps"},
                         {"service_efficiency"}, {"queue_p50_ms"},
                         {"queue_p99_ms"}, {"queue_max_ms"}}},
             {.fields = {{.key = "shard_count", .lo = 1},
                         {"stolen_frames"}, {"queue_peak_depth"},
                         {"shard_occupancy_mean"}},
              .gate = "shard_count"},
             // The shared input pool's allocations.
             {.fields = {{.key = "input_copies", .lo = 1},
                         {.key = "input_copy_bytes", .lo = 1}},
              .gate = "input_copies"},
             {.fields = {{"trace_off_aggregate_mps"},
                         {"trace_on_aggregate_mps"},
                         {.key = "trace_on_vs_off", .loOpen = true},
                         {.key = "trace_events", .loOpen = true}},
              .gate = "trace_on_vs_off"}}),
        row("gaze_encode",
            {{.fields = {{"frames"}, {"refix_incremental_ms"},
                         {"refix_rebuild_ms"},
                         // Incremental re-fixation must beat a rebuild.
                         {.key = "refix_speedup", .lo = 1, .loOpen = true},
                         {"refix_fallback_rebuilds"}, {"gaze_encode_mps"},
                         {"rebuild_encode_mps"},
                         {"moving_fixation_speedup"},
                         {"saccade_frames"}}}}),
        row("fault_campaign",
            {{.fields = {{"total_trials"}, {"max_flips"},
                         {"campaign_seconds"}, {"baseline_encode_mps"},
                         {"hardened_encode_mps"}}},
             {.fields = surface_rates,
              .each = "tile_scratch,bd_stream,png_payload,queue_slot,"
                      "ecc_map,frame_output"},
             // The delivery tier added the net_packet surface.
             {.fields = surface_rates,
              .gate = "net_packet_baseline_coverage",
              .each = "net_packet"}}),
        row("net_delivery",
            {{.fields = {{"frames_per_loss_point"},
                         // A clean channel is fully transparent.
                         {.key = "loss0_delivered_tile_fraction",
                          .lo = 1, .hi = 1}}},
             {.fields = {{.key = "loss*_delivered_tile_fraction", .hi = 1},
                         {.key = "loss*_foveal_intact_rate", .hi = 1},
                         {.key = "loss*_retransmit_overhead", .hi = 1},
                         {"loss*_effective_psnr_db"}},
              .each = "0,10,25"},
             // The adaptive rate-control sweep, one group per schedule.
             {.fields = {{"adaptive_loss_schedules", kStr},
                         {"adaptive_frames"}},
              .gate = "adaptive_loss_schedules"},
             {.fields = {{.key = "adaptive_*_convergence_frames", .lo = -1},
                         {.key = "adaptive_*_mean_budget_bytes_per_round",
                          .loOpen = true},
                         {.key = "adaptive_*_foveal_intact_rate", .hi = 1},
                         {.key = "adaptive_*_delivered_tile_fraction",
                          .hi = 1}},
              .eachFrom = "adaptive_loss_schedules"}}),
    };
    return table;
}

/** The names of a comma list ("step,burst"). */
inline std::vector<std::string>
splitNames(const std::string &list)
{
    std::vector<std::string> names;
    std::stringstream ss(list);
    for (std::string name; std::getline(ss, name, ',');)
        names.push_back(name);
    return names;
}

/** The keys @p group names in @p rec, each with its spec. */
template <typename Rec>
std::vector<std::pair<std::string, FieldSpec>>
groupFields(const GroupSpec &group, const Rec &rec)
{
    std::vector<std::string> names = {""};
    if (group.each != nullptr)
        names = splitNames(group.each);
    if (group.eachFrom != nullptr) {
        const auto *list = rec.find(group.eachFrom);
        names = list != nullptr && list->isString()
                    ? splitNames(list->string)
                    : std::vector<std::string>{};
    }
    std::vector<std::pair<std::string, FieldSpec>> out;
    for (const std::string &name : names)
        for (const FieldSpec &spec : group.fields) {
            std::string key = spec.key;
            if (const std::size_t star = key.find('*');
                star != std::string::npos)
                key.replace(star, 1, name);
            out.emplace_back(std::move(key), spec);
        }
    return out;
}

/**
 * Every way @p rec fails the table; empty when it conforms. @p rec is
 * a Record or a parsed JSON object: anything whose find(key) returns a
 * value with isNumber(), isString(), `number` and `string`.
 */
template <typename Rec>
std::vector<std::string>
validateRecord(const Rec &rec)
{
    const auto *bench = rec.find("bench");
    if (bench == nullptr || !bench->isString())
        return {"record has no string \"bench\""};
    const auto &table = schemaTable();
    const auto schema =
        std::find_if(table.begin(), table.end(),
                     [&](const auto &s) { return s.bench == bench->string; });
    if (schema == table.end())
        return {"unknown bench type \"" + bench->string + "\""};

    std::vector<std::string> errors;
    const auto fail = [&](const std::string &key, const char *what) {
        errors.push_back(bench->string + " field \"" + key + "\" " + what);
    };
    for (const GroupSpec &g : schema->groups) {
        const bool applies = g.gate == nullptr ||
                             (rec.find(g.gate) != nullptr) != g.ifAbsent;
        for (const auto &[key, spec] : groupFields(g, rec)) {
            const auto *v = rec.find(key);
            if (!applies) {
                if (v != nullptr)
                    fail(key, "appears without its group's gate");
            } else if (v == nullptr) {
                fail(key, "is missing");
            } else if (spec.kind == FieldKind::Number) {
                if (!v->isNumber() || !std::isfinite(v->number))
                    fail(key, "is not a finite number");
                else if (v->number < spec.lo || v->number > spec.hi ||
                         (spec.loOpen && v->number == spec.lo))
                    fail(key, "is out of range");
            } else if (!v->isString() || v->string.empty() ||
                       v->string.find_first_of("\"\\\n\r\t") !=
                           std::string::npos) {
                fail(key, "is not a plain non-empty string");
            } else if (spec.kind == FieldKind::Date) {
                std::tm tm{};
                const char *end = strptime(v->string.c_str(),
                                           "%Y-%m-%dT%H:%M:%SZ", &tm);
                if (v->string.size() != 20 || end == nullptr || *end != 0)
                    fail(key, "is not a YYYY-MM-DDThh:mm:ssZ date");
            }
        }
    }
    return errors;
}

// ------------------------------------------------------------- append

/**
 * Append @p record (one JSON object, indented two spaces) to the JSON
 * array in @p path; a missing or blank file starts one. Anything else
 * (a truncated file, a merge conflict tail, a bare object) is refused,
 * false returned and the file left byte-identical. Write-temp-then-
 * rename, so a crash mid-write cannot destroy the trajectory.
 */
inline bool
appendJsonRecord(const std::string &path, const std::string &record)
{
    std::string existing;
    if (std::ifstream in(path, std::ios::binary); in) {
        std::stringstream ss;
        ss << in.rdbuf();
        existing = ss.str();
    } else if (std::filesystem::exists(path)) {
        std::cerr << "bench: cannot read " << path << "\n";
        return false;
    }
    const char *const ws = " \t\r\n";
    const std::size_t first = existing.find_first_not_of(ws);
    const std::size_t last = existing.find_last_not_of(ws);
    std::string merged = "[\n" + record + "\n]\n";
    if (first != std::string::npos) {
        if (existing[first] != '[' || existing[last] != ']') {
            std::cerr << "bench: " << path
                      << " is not a JSON array; record not written\n";
            return false;
        }
        // End of the last element; `first` for an empty array.
        const std::size_t end = existing.find_last_not_of(ws, last - 1);
        if (end != first)
            merged = existing.substr(first, end + 1 - first) + ",\n" +
                     record + "\n]\n";
    }

    const std::string tmp_path = path + ".tmp";
    {
        std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
        out << merged;
        out.flush();
        if (!out) {
            std::cerr << "bench: failed writing " << tmp_path << "\n";
            std::remove(tmp_path.c_str());
            return false;
        }
    }
    if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
        std::cerr << "bench: failed replacing " << path << "\n";
        return false;
    }
    return true;
}

// ------------------------------------------------------------- record

/**
 * One bench record, fields in insertion order (setting a key again
 * replaces its value), provenance stamped by the constructor. Numbers
 * print in the default ostream form of their type, strings as given
 * (the validator refuses any that would need escaping).
 */
class Record
{
  public:
    struct Value
    {
        bool numeric = false;
        double number = 0.0;
        std::string string;
        std::string json;

        bool isNumber() const { return numeric; }
        bool isString() const { return !numeric; }
    };

    Record(const std::string &bench, int mt_threads)
    {
        str("bench", bench);
        str("date", isoNowUtc());
        str("git_rev", PCE_GIT_REV);
        str("simd_level", simd::simdLevelName(simd::activeSimdLevel()));
        str("bd_bit_path", bdBitPathName(activeBdBitPath()));
        str("crc_path", crcPathName(activeCrcPath()));
        num("hw_threads", std::thread::hardware_concurrency());
        num("mt_threads", mt_threads);
        num("mt_pool_workers", mt_threads - 1);
    }

    template <typename T>
        requires std::is_arithmetic_v<T>
    Record &num(const std::string &key, T value)
    {
        std::ostringstream os;
        os << value;
        return set(key, {true, static_cast<double>(value), "", os.str()});
    }

    Record &str(const std::string &key, const std::string &value)
    {
        return set(key, {false, 0.0, value, "\"" + value + "\""});
    }

    const Value *find(const std::string &key) const
    {
        for (const auto &[k, v] : fields_)
            if (k == key)
                return &v;
        return nullptr;
    }

    /** The record as a JSON object, indented to sit in the array. */
    std::string json() const
    {
        std::string out = "  {";
        for (std::size_t i = 0; i < fields_.size(); ++i)
            out += (i ? ",\n    \"" : "\n    \"") + fields_[i].first +
                   "\": " + fields_[i].second.json;
        return out + "\n  }";
    }

    /** Validate, append to @p path, and print the record. False, with
     *  the file untouched and the reasons on stderr, when the record
     *  does not conform or the append is refused. */
    bool appendTo(const std::string &path) const
    {
        const std::vector<std::string> errors = validateRecord(*this);
        for (const std::string &e : errors)
            std::cerr << "bench: record not written: " << e << "\n";
        if (!errors.empty() || !appendJsonRecord(path, json()))
            return false;
        std::cout << json() << "\nappended record to " << path << "\n";
        return true;
    }

  private:
    Record &set(const std::string &key, Value value)
    {
        for (auto &[k, v] : fields_)
            if (k == key) {
                v = std::move(value);
                return *this;
            }
        fields_.emplace_back(key, std::move(value));
        return *this;
    }

    std::vector<std::pair<std::string, Value>> fields_;
};

} // namespace pce::bench

#endif // PCE_BENCH_BENCH_RECORD_HH
