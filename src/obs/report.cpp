#include "obs/report.hpp"

#include "io/file.hpp"
#include "re/types.hpp"

namespace relb::obs {

using io::Json;
using re::Error;

RunReport buildRunReport(const SpanAggregator& aggregator,
                         const Registry& registry) {
  RunReport report;
  const auto toRows = [](const SpanAggregator::Rows& rows) {
    std::vector<RunReport::Row> out;
    out.reserve(rows.size());
    for (const auto& [name, totals] : rows) {
      out.push_back({name, totals.count, totals.wallMicros});
    }
    return out;
  };
  report.phases = toRows(aggregator.rootTotals());
  report.spans = toRows(aggregator.totals());
  Registry::Snapshot snapshot = registry.snapshot();
  report.counters = std::move(snapshot.counters);
  report.gauges = std::move(snapshot.gauges);
  return report;
}

namespace {

const io::SealedLayout kLayout{
    "run report", "relb-run-report", kRunReportVersion,
    {"run", "phases", "spans", "counters", "gauges"}};

Json rowsToJson(const std::vector<RunReport::Row>& rows) {
  Json out = Json::array();
  for (const RunReport::Row& row : rows) {
    Json r = Json::object();
    r.set("name", row.name);
    r.set("count", static_cast<std::int64_t>(row.count));
    r.set("wall_micros", row.wallMicros);
    out.push(std::move(r));
  }
  return out;
}

std::vector<RunReport::Row> rowsFromJson(const Json& j) {
  std::vector<RunReport::Row> out;
  for (const Json& r : j.asArray()) {
    RunReport::Row row;
    row.name = r.at("name").asString();
    row.count = static_cast<std::uint64_t>(r.at("count").asInt());
    row.wallMicros = r.at("wall_micros").asInt();
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace

Json runReportToJson(const RunReport& report) {
  Json run = Json::object();
  run.set("command", report.command);
  run.set("total_wall_micros", report.totalWallMicros);
  run.set("threads", report.threads);
  if (report.chainDelta >= 0) {
    Json chain = Json::object();
    chain.set("delta", report.chainDelta);
    chain.set("x0", report.chainX0);
    Json steps = Json::array();
    for (const RunReport::ChainStep& step : report.chainSteps) {
      Json s = Json::object();
      s.set("a", step.a);
      s.set("x", step.x);
      steps.push(std::move(s));
    }
    chain.set("steps", std::move(steps));
    run.set("chain", std::move(chain));
  }
  if (!report.opsWalked.empty()) {
    Json ops = Json::array();
    for (const std::string& op : report.opsWalked) ops.push(op);
    run.set("ops_walked", std::move(ops));
  }

  Json counters = Json::object();
  for (const auto& [name, value] : report.counters) {
    counters.set(name, static_cast<std::int64_t>(value));
  }
  Json gauges = Json::object();
  for (const auto& [name, value] : report.gauges) gauges.set(name, value);

  Json sections[] = {std::move(run), rowsToJson(report.phases),
                     rowsToJson(report.spans), std::move(counters),
                     std::move(gauges)};
  return io::sealSections(kLayout, report.version, sections);
}

RunReport runReportFromJson(const Json& j) {
  io::checkSealed(kLayout, j);
  RunReport report;
  const Json& run = j.at("run");
  report.command = run.at("command").asString();
  report.totalWallMicros = run.at("total_wall_micros").asInt();
  report.threads = static_cast<int>(run.at("threads").asInt());
  if (const Json* chain = run.find("chain")) {
    report.chainDelta = chain->at("delta").asInt();
    report.chainX0 = chain->at("x0").asInt();
    for (const Json& s : chain->at("steps").asArray()) {
      report.chainSteps.push_back({s.at("a").asInt(), s.at("x").asInt()});
    }
  }
  if (const Json* ops = run.find("ops_walked")) {
    for (const Json& op : ops->asArray()) {
      report.opsWalked.push_back(op.asString());
    }
  }

  report.phases = rowsFromJson(j.at("phases"));
  report.spans = rowsFromJson(j.at("spans"));
  for (const auto& [name, value] : j.at("counters").asObject()) {
    report.counters.emplace_back(name,
                                 static_cast<std::uint64_t>(value.asInt()));
  }
  for (const auto& [name, value] : j.at("gauges").asObject()) {
    report.gauges.emplace_back(name, value.asInt());
  }
  return report;
}

void saveRunReport(const std::filesystem::path& path,
                   const RunReport& report) {
  io::atomicWriteFile(path, runReportToJson(report).dumpPretty());
}

RunReport loadRunReport(const std::filesystem::path& path) {
  const auto text = io::readFile(path);
  if (!text) throw Error("run report: cannot open '" + path.string() + "'");
  return runReportFromJson(Json::parse(*text));
}

}  // namespace relb::obs
