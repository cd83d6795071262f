// aqua_chaos — chaos-test harness over the failpoint inventory.
//
// Enumerates every failpoint site compiled into the library
// (aqua::fault::AllSites()), replays a fixed query workload (the paper's
// DS2 instance + eBay p-mapping, loaded from disk each run so the storage
// and mapping I/O paths are on the execution path) under a set of fault
// specs per site, plus randomized seeded multi-site combinations, and
// asserts the robustness contract: the process never crashes or hangs, and
// every answer is (a) correct and exact — byte-identical to the fault-free
// baseline — (b) flagged approximate, or (c) a well-formed error Status.
// It also demonstrates each degradation edge deterministically:
// exact-to-sampler, parallel-to-serial fallback, and the two
// sharded-execution edges (shard death and torn shard partial). File reads
// and writes are not retried: an injected I/O fault surfaces as a clean
// error of the load or round-trip step.
//
//   aqua_chaos [--all] [--site=<name>] [--combos=<n>] [--seed=<n>]
//              [--json=<path>] [--service] [--list] [--help]
//
// --list prints the site inventory and exits. --json writes a
// machine-readable report. --service skips the site sweep and instead
// runs the service-mode chaos edges against a live aquad stack: slow
// client, dropped connection mid-response, deadline storm,
// shed-then-recover, and a SIGTERM drain under load. Exit codes: 0 =
// all runs honoured the contract, 1 = at least one violation (wrong
// un-flagged answer, malformed error, baseline drift), 2 = usage error.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "aqua/common/failpoint.h"
#include "aqua/common/random.h"
#include "aqua/core/engine.h"
#include "aqua/exec/parallel.h"
#include "aqua/exec/thread_pool.h"
#include "aqua/mapping/serialize.h"
#include "aqua/obs/json.h"
#include "aqua/obs/metrics.h"
#include "aqua/query/parser.h"
#include "aqua/server/server.h"
#include "aqua/server/service.h"
#include "aqua/server/signal.h"
#include "aqua/storage/csv.h"
#include "aqua/workload/ebay.h"

namespace {

using namespace aqua;

constexpr int kExitOk = 0;
constexpr int kExitChaosFailure = 1;
constexpr int kExitUsage = 2;

constexpr uint64_t kSamplerSeed = 0xC0FFEE;

struct ChaosArgs {
  bool list = false;
  bool help = false;
  bool service = false;
  std::string only_site;  // empty = all
  size_t combos = 4;
  uint64_t seed = 2009;
  std::string json_path;
};

int Usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: aqua_chaos [--all] [--site=<name>] [--combos=<n>]\n"
      "                  [--seed=<n>] [--json=<path>] [--service]\n"
      "                  [--list] [--help]\n"
      "--all: exercise every registered failpoint site (the default)\n"
      "--site: exercise one site only\n"
      "--combos: randomized multi-site combinations to run (default 4)\n"
      "--seed: seed for the randomized combinations (default 2009)\n"
      "--json: write a machine-readable report to <path>\n"
      "--service: run the service-mode edges (slow client, dropped\n"
      "           connection, deadline storm, shed-then-recover, SIGTERM\n"
      "           drain under load) against a live server and exit\n"
      "--list: print the failpoint site inventory and exit\n"
      "exit codes: 0 = contract held, 1 = violation found, 2 = usage\n");
  return out == stdout ? kExitOk : kExitUsage;
}

/// One query's outcome under one fault configuration.
struct Outcome {
  std::string query;
  std::string kind;    // "exact" | "approximate" | "error" | "VIOLATION"
  std::string detail;  // rendered answer or status
  bool pass = false;
};

std::string OutcomeJson(const Outcome& o) {
  return "{" + obs::JsonString("query", o.query) + ',' +
         obs::JsonString("outcome", o.kind) + ',' +
         obs::JsonString("detail", o.detail) +
         ",\"pass\":" + (o.pass ? "true" : "false") + '}';
}

/// The on-disk fixture every workload run loads from scratch.
struct Fixture {
  std::filesystem::path dir;
  std::string csv_path;
  std::string mapping_path;
  Schema schema;
};

/// A Status is well-formed when it carries a nameable non-OK code and a
/// non-empty message — what the contract demands of every error outcome.
bool WellFormedError(const Status& s) {
  return !s.ok() && StatusCodeToString(s.code()) != std::string_view("unknown") &&
         !s.message().empty();
}

EngineOptions WorkloadEngineOptions() {
  EngineOptions options;
  options.degrade = DegradePolicy::kSample;
  options.degrade_sampler.seed = kSamplerSeed;
  options.threads = 2;
  // Two fault domains put the shard runner (and the shard/* failpoint
  // sites) on every shardable workload query's path.
  options.shards = 2;
  return options;
}

/// Knobs for the chaos HTTP client: where to pause mid-send (the slow
/// client probe) and whether to abort with an RST instead of reading the
/// response (the dropped-connection-mid-response probe).
struct ClientBehavior {
  int recv_timeout_ms = 3000;
  size_t send_prefix = static_cast<size_t>(-1);  // bytes before the pause
  int pause_ms = 0;
  bool abort_after_send = false;
};

/// Minimal blocking HTTP client: connect to 127.0.0.1:port, send
/// `request`, read to EOF. "" means the server dropped the connection (or
/// the probe aborted on purpose) — never a hang, thanks to SO_RCVTIMEO.
std::string HttpRoundTrip(int port, const std::string& request,
                          const ClientBehavior& behavior = {}) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  timeval tv{};
  tv.tv_sec = behavior.recv_timeout_ms / 1000;
  tv.tv_usec = (behavior.recv_timeout_ms % 1000) * 1000;
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return "";
  }
  auto send_all = [&](size_t begin, size_t end) {
    while (begin < end) {
      const ssize_t n =
          send(fd, request.data() + begin, end - begin, MSG_NOSIGNAL);
      if (n <= 0) return false;
      begin += static_cast<size_t>(n);
    }
    return true;
  };
  const size_t split = std::min(behavior.send_prefix, request.size());
  bool sent = send_all(0, split);
  if (sent && split < request.size()) {
    if (behavior.pause_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(behavior.pause_ms));
    }
    sent = send_all(split, request.size());
  }
  if (behavior.abort_after_send) {
    // Close with an immediate RST so the server's response write fails
    // mid-flight rather than landing in a dead socket buffer.
    linger hard{/*l_onoff=*/1, /*l_linger=*/0};
    (void)setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    close(fd);
    return "";
  }
  std::string response;
  if (sent) {
    char chunk[4096];
    while (true) {
      const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      response.append(chunk, static_cast<size_t>(n));
    }
  }
  close(fd);
  return response;
}

std::string PostQueryRequest(const std::string& body) {
  return "POST /query HTTP/1.1\r\nHost: chaos\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// Slices the deterministic part out of a 200 /query response body — the
/// admission decision plus the rendered answer. The stats object carries
/// wall-clock times and must not participate in byte comparisons.
std::string DeterministicAnswerSlice(const std::string& body) {
  const size_t decision = body.find("\"decision\":");
  const size_t answer = body.find("\"answer\":");
  const size_t stats = body.find(",\"stats\":");
  if (decision == std::string::npos || answer == std::string::npos ||
      stats == std::string::npos || stats < answer) {
    return body;
  }
  const size_t decision_end = body.find(',', decision);
  return body.substr(decision, decision_end - decision) + ' ' +
         body.substr(answer, stats - answer);
}

/// Runs the fixed workload: load from disk, round-trip the writers, then
/// the query mix (COUNT distribution, SUM range, SUM expected, MIN range,
/// grouped MAX range, nested Q2 range). Returns one Outcome per step with
/// `kind` filled in; `pass` and baseline comparison are the caller's job.
std::vector<Outcome> RunWorkload(const Fixture& fixture) {
  std::vector<Outcome> outcomes;
  auto record_error = [&](std::string name, const Status& status) {
    Outcome o;
    o.query = std::move(name);
    o.kind = "error";
    o.detail = status.ToString();
    outcomes.push_back(std::move(o));
  };
  auto record_answer = [&](std::string name, std::string rendered,
                           bool approximate) {
    Outcome o;
    o.query = std::move(name);
    o.kind = approximate ? "approximate" : "exact";
    o.detail = std::move(rendered);
    outcomes.push_back(std::move(o));
  };

  // Step 1: load the fixture (exercises the storage/csv and
  // mapping/serialize read paths).
  const auto table = Csv::ReadFile(fixture.csv_path, fixture.schema);
  const auto mapping = PMappingText::ReadSchemaFile(fixture.mapping_path);
  if (!table.ok() || !mapping.ok()) {
    record_error("load", table.ok() ? mapping.status() : table.status());
    return outcomes;  // nothing further can run; a clean error is a pass
  }
  const PMapping& pm = mapping->mapping(0);

  // Step 2: writer round-trip (exercises the write paths).
  {
    const std::string rt_csv = (fixture.dir / "roundtrip.csv").string();
    const std::string rt_map = (fixture.dir / "roundtrip.pmapping").string();
    const Status wrote_csv = Csv::WriteFile(*table, rt_csv);
    const Status wrote_map = PMappingText::WriteSchemaFile(*mapping, rt_map);
    if (!wrote_csv.ok() || !wrote_map.ok()) {
      record_error("io-roundtrip", wrote_csv.ok() ? wrote_map : wrote_csv);
    } else {
      record_answer("io-roundtrip", "ok", /*approximate=*/false);
    }
  }

  // Step 3: a synthetic parallel region. The paper's 8-tuple instance is
  // far below the kernels' chunk grain, so the query mix alone never
  // engages the thread pool; this step chunks finely enough (chunk_size 1,
  // 64 chunks) that the exec/pool/* sites are on every workload run's
  // path, and its answer is a deterministic scalar.
  {
    std::vector<double> out(64, 0.0);
    const Status ran = exec::ParallelFor(
        exec::ExecPolicy{/*threads=*/2}, out.size(), /*chunk_size=*/1,
        /*parent=*/nullptr,
        [&](const exec::Chunk& chunk, ExecContext*) -> Status {
          for (size_t i = chunk.begin; i < chunk.end; ++i) {
            out[i] = static_cast<double>(i);
          }
          return Status::OK();
        });
    if (ran.ok()) {
      double sum = 0.0;
      for (double v : out) sum += v;
      record_answer("parallel-region", std::to_string(sum),
                    /*approximate=*/false);
    } else {
      record_error("parallel-region", ran);
    }
  }

  const Engine engine(WorkloadEngineOptions());
  const auto run_sql = [&](const char* name, const char* sql,
                           AggregateSemantics as) {
    const auto answer = engine.AnswerSql(sql, pm, *table,
                                         MappingSemantics::kByTuple, as);
    if (answer.ok()) {
      record_answer(name, answer->ToString(), answer->approximate);
    } else {
      record_error(name, answer.status());
    }
  };
  run_sql("count-dist", "SELECT COUNT(*) FROM T2 WHERE price > 300",
          AggregateSemantics::kDistribution);
  run_sql("sum-range", "SELECT SUM(price) FROM T2 WHERE auctionId = 34",
          AggregateSemantics::kRange);
  run_sql("sum-expected", "SELECT SUM(price) FROM T2",
          AggregateSemantics::kExpectedValue);
  run_sql("min-range", "SELECT MIN(price) FROM T2",
          AggregateSemantics::kRange);
  {
    const auto grouped = engine.AnswerGroupedSql(
        "SELECT MAX(price) FROM T2 GROUP BY auctionId", pm, *table,
        MappingSemantics::kByTuple, AggregateSemantics::kRange);
    if (grouped.ok()) {
      std::string rendered;
      bool approximate = false;
      for (const GroupedAnswer& g : *grouped) {
        rendered += g.group.ToString() + '=' + g.answer.ToString() + ';';
        approximate = approximate || g.answer.approximate;
      }
      record_answer("grouped-max-range", std::move(rendered), approximate);
    } else {
      record_error("grouped-max-range", grouped.status());
    }
  }
  {
    const auto nested =
        engine.AnswerNested(PaperQueryQ2(), pm, *table,
                            MappingSemantics::kByTuple,
                            AggregateSemantics::kRange);
    if (nested.ok()) {
      record_answer("nested-q2-range", nested->ToString(),
                    nested->approximate);
    } else {
      record_error("nested-q2-range", nested.status());
    }
  }

  // Final step: one service round-trip over a real socket, which puts the
  // four server/* failpoint sites (accept, read-request, admission,
  // write-response) on every workload run's path. Only the deterministic
  // slice of the response — admission decision plus rendered answer —
  // participates in the byte-identical baseline comparison.
  {
    server::QueryServiceOptions service_options;
    service_options.engine = WorkloadEngineOptions();
    server::QueryService service(*table, pm, service_options);
    server::HttpServerOptions http_options;
    http_options.io_timeout_ms = 2000;
    server::HttpServer http(&service, http_options);
    const Status started = http.Start();
    if (!started.ok()) {
      record_error("server-query", started);
    } else {
      const std::string response = HttpRoundTrip(
          http.port(),
          PostQueryRequest(
              R"({"query":"SELECT COUNT(*) FROM T2 WHERE price > 300",)"
              R"("answer":"expected","deadline_ms":10000})"));
      const size_t body_at = response.find("\r\n\r\n");
      if (response.empty() || body_at == std::string::npos) {
        record_error("server-query",
                     Status::Unavailable("server dropped the connection"));
      } else {
        const std::string payload = response.substr(body_at + 4);
        if (response.compare(0, 15, "HTTP/1.1 200 OK") == 0) {
          record_answer(
              "server-query", DeterministicAnswerSlice(payload),
              payload.find("\"approximate\":true") != std::string::npos);
        } else {
          // Non-200: the payload is the service's uniform error envelope.
          record_error("server-query",
                       Status::Unavailable("service error: " + payload));
        }
      }
      (void)http.Shutdown(/*drain_deadline_ms=*/2000);
    }
  }
  return outcomes;
}

/// Grades a chaos run against the baseline. Every outcome must be exact
/// and byte-identical to the baseline, flagged approximate, or a
/// well-formed error. Any other shape is a contract violation.
size_t Grade(std::vector<Outcome>* outcomes,
             const std::vector<Outcome>& baseline) {
  size_t violations = 0;
  for (Outcome& o : *outcomes) {
    if (o.kind == "exact") {
      const Outcome* base = nullptr;
      for (const Outcome& b : baseline) {
        if (b.query == o.query) base = &b;
      }
      o.pass = base != nullptr && base->detail == o.detail;
      if (!o.pass) {
        o.kind = "VIOLATION";
        o.detail = "un-flagged answer differs from baseline: " + o.detail;
      }
    } else if (o.kind == "approximate") {
      o.pass = true;
    } else if (o.kind == "error") {
      // RunWorkload only records "error" for a Status that already passed
      // through the library's Result plumbing; re-check its shape here.
      o.pass = !o.detail.empty() && o.detail.find(": ") != std::string::npos;
      if (!o.pass) o.kind = "VIOLATION";
    }
    if (!o.pass) ++violations;
  }
  return violations;
}

/// Fault specs to try against `site`. Every site gets the transient /
/// persistent / fail-late / delay mix; sites with special context get
/// extra specs that reach their unique edges.
std::vector<std::string> SpecsFor(const fault::SiteInfo& site) {
  std::vector<std::string> specs = {
      "once*error(unavailable)", "error(unavailable)",
      "once*error(internal)",    "after(2)*error(unavailable)",
      "delay(5)",
  };
  const std::string name(site.name);
  if (name == "common/exec_context/check") {
    specs.push_back("once*error(deadline-exceeded)");
  }
  if (name == "core/engine/exact") {
    specs.push_back("error(resource-exhausted)");
  }
  if (name == "shard/run") {
    // Torn shard partial: the shard scans only half its rows; the
    // runner's coverage check must catch it (degrade or clean error,
    // never a silently short answer).
    specs.push_back("once*partial");
  }
  return specs;
}

/// Extra failpoints that must be armed alongside `site` so the workload
/// actually reaches it: the degrade/sampler sites only execute after the
/// exact pass has failed with a degradable error.
std::vector<std::pair<std::string, std::string>> CompanionsFor(
    std::string_view site) {
  if (site == "core/engine/degrade" || site == "core/sampler/run") {
    return {{"core/engine/exact", "error(resource-exhausted)"}};
  }
  return {};
}

uint64_t CounterValue(const char* name, obs::LabelSet labels = {}) {
  return obs::MetricsRegistry::Default().GetCounter(name, std::move(labels))
      .value();  // aqua-lint: allow(unchecked-result-value) Counter, not Result
}

/// The deterministic degradation-edge demonstrations the acceptance
/// criteria call for. Each returns a pass/fail Outcome for the report.
std::vector<Outcome> RunEdgeDemos(const Fixture& fixture,
                                  const std::vector<Outcome>& baseline) {
  std::vector<Outcome> edges;
  auto record = [&](const char* edge, bool pass, std::string detail) {
    edges.push_back(Outcome{edge, pass ? "pass" : "VIOLATION",
                            std::move(detail), pass});
  };

  // Edge 1: exact-to-sampler. An injected resource-exhaustion in the exact
  // pass degrades to Monte-Carlo sampling; the answer is flagged
  // approximate and carries the sampler seed for reproducibility.
  {
    fault::DisableAll();
    fault::ScopedFailpoint fp("core/engine/exact",
                              "error(resource-exhausted)");
    const auto table = Csv::ReadFile(fixture.csv_path, fixture.schema);
    const auto mapping = PMappingText::ReadSchemaFile(fixture.mapping_path);
    bool pass = false;
    std::string detail = "fixture load failed";
    if (table.ok() && mapping.ok()) {
      const Engine engine(WorkloadEngineOptions());
      const auto answer = engine.Answer(
          PaperQueryQ2Prime(), mapping->mapping(0), *table,
          MappingSemantics::kByTuple, AggregateSemantics::kExpectedValue);
      pass = answer.ok() && answer->approximate && answer->stats.degraded &&
             answer->stats.sampler_seed == kSamplerSeed &&
             answer->stats.samples > 0;
      detail = answer.ok() ? answer->ToString() + " sampler_seed=" +
                                 std::to_string(answer->stats.sampler_seed)
                           : answer.status().ToString();
    }
    record("exact-to-sampler", pass, std::move(detail));
  }

  // Edge 2: parallel-to-serial fallback. When the pool cannot take tasks,
  // the parallel region runs inline on the calling thread and every query
  // answer is byte-identical to the parallel baseline. The server step is
  // the one legitimate exception: a server cannot run without its accept
  // thread, so it must either match the baseline or fail with a clean,
  // well-formed kUnavailable — never a wrong answer.
  {
    fault::DisableAll();
    const uint64_t fallback_before =
        CounterValue("aqua_exec_serial_fallback_total");
    fault::ScopedFailpoint fp("exec/pool/spawn", "error(unavailable)");
    std::vector<Outcome> outcomes = RunWorkload(fixture);
    const uint64_t fallbacks =
        CounterValue("aqua_exec_serial_fallback_total") - fallback_before;
    bool identical = outcomes.size() == baseline.size();
    for (size_t i = 0; identical && i < outcomes.size(); ++i) {
      if (outcomes[i].query == "server-query" &&
          outcomes[i].kind == "error") {
        identical = outcomes[i].detail.find("unavailable") !=
                    std::string::npos;
        continue;
      }
      identical = outcomes[i].kind == baseline[i].kind &&
                  outcomes[i].detail == baseline[i].detail;
    }
    record("parallel-to-serial", identical && fallbacks > 0,
           "identical=" + std::string(identical ? "true" : "false") +
               " fallbacks=" + std::to_string(fallbacks));
  }

  // The sharded-execution edges all run the same decomposable COUNT
  // distribution query across the two workload fault domains.
  constexpr const char* kShardSql = "SELECT COUNT(*) FROM T2 WHERE price > 300";

  // Edge 3: shard death. A persistent failure kills every shard's exact
  // pass; each shard degrades locally to Monte-Carlo sampling and the
  // merged answer is flagged approximate, carrying the degraded-shard
  // count — the query itself never fails.
  {
    fault::DisableAll();
    const auto table = Csv::ReadFile(fixture.csv_path, fixture.schema);
    const auto mapping = PMappingText::ReadSchemaFile(fixture.mapping_path);
    bool pass = false;
    std::string detail = "fixture load failed";
    if (table.ok() && mapping.ok()) {
      const Engine engine(WorkloadEngineOptions());
      fault::ScopedFailpoint fp("shard/run", "error(unavailable)");
      const auto answer = engine.AnswerSql(
          kShardSql, mapping->mapping(0), *table, MappingSemantics::kByTuple,
          AggregateSemantics::kDistribution);
      pass = answer.ok() && answer->approximate && answer->stats.degraded &&
             answer->stats.shards == 2 && answer->stats.degraded_shards == 2;
      detail = answer.ok()
                   ? answer->ToString() + " degraded_shards=" +
                         std::to_string(answer->stats.degraded_shards) + "/" +
                         std::to_string(answer->stats.shards)
                   : answer.status().ToString();
    }
    record("shard-death", pass, std::move(detail));
  }

  // Edge 4: torn shard partial. One shard scans only a prefix of its
  // rows; the runner's coverage check must catch the short partial and
  // either degrade the shard or fail cleanly — never merge it into a
  // silently wrong answer.
  {
    fault::DisableAll();
    const auto table = Csv::ReadFile(fixture.csv_path, fixture.schema);
    const auto mapping = PMappingText::ReadSchemaFile(fixture.mapping_path);
    bool pass = false;
    std::string detail = "fixture load failed";
    if (table.ok() && mapping.ok()) {
      const Engine engine(WorkloadEngineOptions());
      fault::ScopedFailpoint fp("shard/run", "once*partial");
      const auto answer = engine.AnswerSql(
          kShardSql, mapping->mapping(0), *table, MappingSemantics::kByTuple,
          AggregateSemantics::kDistribution);
      if (answer.ok()) {
        pass = answer->approximate && answer->stats.degraded_shards >= 1;
        detail = answer->ToString() + " degraded_shards=" +
                 std::to_string(answer->stats.degraded_shards);
      } else {
        pass = WellFormedError(answer.status());
        detail = answer.status().ToString();
      }
    }
    record("shard-torn-partial", pass, std::move(detail));
  }

  fault::DisableAll();
  return edges;
}

/// A live aquad stack (service + HTTP front end) for the service-mode
/// edges. Fresh per edge so state never bleeds between probes.
struct ServiceRig {
  std::unique_ptr<server::QueryService> service;
  std::unique_ptr<server::HttpServer> http;
};

Result<ServiceRig> MakeServiceRig(int io_timeout_ms) {
  AQUA_ASSIGN_OR_RETURN(Table ds2, PaperInstanceDS2());
  AQUA_ASSIGN_OR_RETURN(PMapping pm, MakeEbayPMapping());
  server::QueryServiceOptions options;
  options.engine = WorkloadEngineOptions();
  ServiceRig rig;
  rig.service = std::make_unique<server::QueryService>(
      std::move(ds2), std::move(pm), options);
  server::HttpServerOptions http_options;
  http_options.io_timeout_ms = io_timeout_ms;
  rig.http = std::make_unique<server::HttpServer>(rig.service.get(),
                                                  http_options);
  AQUA_RETURN_NOT_OK(rig.http->Start());
  return rig;
}

bool Healthy(int port) {
  return HttpRoundTrip(port, "GET /healthz HTTP/1.1\r\nHost: c\r\n\r\n")
             .find("{\"ok\":true}") != std::string::npos;
}

constexpr const char kEdgeQuery[] =
    R"({"query":"SELECT SUM(price) FROM T2","answer":"expected",)"
    R"("deadline_ms":10000})";

/// The service-mode chaos edges: a hostile or overloaded client world,
/// and the server must keep every promise — well-formed responses,
/// flagged approximations, zero dropped in-flight work on drain.
std::vector<Outcome> RunServiceEdges() {
  std::vector<Outcome> edges;
  auto record = [&](const char* edge, bool pass, std::string detail) {
    edges.push_back(Outcome{edge, pass ? "pass" : "VIOLATION",
                            std::move(detail), pass});
  };

  // Edge 1: slow client. A client that stalls mid-request holds its
  // connection slot for at most io_timeout_ms, then the server cuts it
  // loose and keeps serving everyone else.
  {
    fault::DisableAll();
    auto rig = MakeServiceRig(/*io_timeout_ms=*/200);
    if (!rig.ok()) {
      record("slow-client", false, rig.status().ToString());
    } else {
      ClientBehavior slow;
      slow.send_prefix = 10;   // stall inside the request line
      slow.pause_ms = 600;     // three times the server's io timeout
      const std::string response =
          HttpRoundTrip(rig->http->port(), PostQueryRequest(kEdgeQuery), slow);
      const bool cut = response.empty();
      const bool healthy = Healthy(rig->http->port());
      record("slow-client", cut && healthy,
             "stalled connection cut=" + std::string(cut ? "true" : "false") +
                 " server healthy after=" +
                 std::string(healthy ? "true" : "false"));
      (void)rig->http->Shutdown(2000);
    }
  }

  // Edge 2: dropped connection mid-response. The client vanishes (RST)
  // while its query is still executing; the response write fails, the
  // failure is counted, and the server survives.
  {
    fault::DisableAll();
    auto rig = MakeServiceRig(/*io_timeout_ms=*/2000);
    if (!rig.ok()) {
      record("dropped-connection", false, rig.status().ToString());
    } else {
      const uint64_t failed_before =
          CounterValue("aqua_server_write_failed_total");
      fault::ScopedFailpoint slow_engine("core/engine/exact", "delay(150)");
      ClientBehavior vanish;
      vanish.abort_after_send = true;
      (void)HttpRoundTrip(rig->http->port(), PostQueryRequest(kEdgeQuery),
                          vanish);
      // Give the in-flight request time to finish and hit the dead socket.
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
      const uint64_t failed =
          CounterValue("aqua_server_write_failed_total") - failed_before;
      const bool healthy = Healthy(rig->http->port());
      record("dropped-connection", failed >= 1 && healthy,
             "write failures=" + std::to_string(failed) +
                 " server healthy after=" +
                 std::string(healthy ? "true" : "false"));
      (void)rig->http->Shutdown(2000);
    }
  }

  // Edge 3: deadline storm. A burst of requests whose budgets are already
  // (or nearly) exhausted: every one gets a well-formed response — either
  // a flagged approximation or a clean deadline error — and the server is
  // healthy afterwards.
  {
    fault::DisableAll();
    auto rig = MakeServiceRig(/*io_timeout_ms=*/2000);
    if (!rig.ok()) {
      record("deadline-storm", false, rig.status().ToString());
    } else {
      fault::ScopedFailpoint slow_engine("core/engine/exact", "delay(50)");
      constexpr int kStorm = 6;
      int well_formed = 0, errors = 0, approximate = 0;
      for (int i = 0; i < kStorm; ++i) {
        const std::string response = HttpRoundTrip(
            rig->http->port(),
            PostQueryRequest(
                R"({"query":"SELECT SUM(price) FROM T2",)"
                R"("answer":"expected","deadline_ms":1})"));
        if (response.find("\"ok\":false") != std::string::npos &&
            response.find("deadline") != std::string::npos) {
          ++well_formed;
          ++errors;
        } else if (response.find("\"ok\":true") != std::string::npos &&
                   response.find("\"approximate\":true") !=
                       std::string::npos) {
          ++well_formed;
          ++approximate;
        }
      }
      const bool healthy = Healthy(rig->http->port());
      record("deadline-storm", well_formed == kStorm && healthy,
             std::to_string(well_formed) + "/" + std::to_string(kStorm) +
                 " well-formed (errors=" + std::to_string(errors) +
                 " approximate=" + std::to_string(approximate) +
                 ") server healthy after=" +
                 std::string(healthy ? "true" : "false"));
      (void)rig->http->Shutdown(2000);
    }
  }

  // Edge 4: shed-then-recover. Push the admission decision into the shed
  // band (via the server/admission failpoint — the deterministic stand-in
  // for a watermark breach), verify the flagged approximate answer, then
  // recover and verify the exact answer is byte-identical to the
  // pre-shed baseline.
  {
    fault::DisableAll();
    auto rig = MakeServiceRig(/*io_timeout_ms=*/2000);
    if (!rig.ok()) {
      record("shed-then-recover", false, rig.status().ToString());
    } else {
      auto query_slice = [&](std::string* out) {
        const std::string response =
            HttpRoundTrip(rig->http->port(), PostQueryRequest(kEdgeQuery));
        const size_t at = response.find("\r\n\r\n");
        if (at == std::string::npos) return false;
        *out = DeterministicAnswerSlice(response.substr(at + 4));
        return response.find("HTTP/1.1 200") != std::string::npos;
      };
      std::string before, during, after;
      bool ok = query_slice(&before) &&
                before.find("\"decision\":\"admit\"") != std::string::npos;
      {
        fault::ScopedFailpoint shed("server/admission",
                                    "error(resource-exhausted)");
        ok = ok && query_slice(&during) &&
             during.find("\"decision\":\"shed\"") != std::string::npos &&
             during.find("\"approximate\":true") != std::string::npos;
      }
      ok = ok && query_slice(&after) && after == before;
      record("shed-then-recover", ok,
             "recovered answer identical=" +
                 std::string(after == before ? "true" : "false") +
                 " shed slice: " + during);
      (void)rig->http->Shutdown(2000);
    }
  }

  // Edge 5: SIGTERM drain under load. A real signal lands while a query
  // is in flight; admission stops, the in-flight answer completes in
  // full, the drain reports clean, and nothing is served afterwards.
  {
    fault::DisableAll();
    auto rig = MakeServiceRig(/*io_timeout_ms=*/5000);
    if (!rig.ok()) {
      record("sigterm-drain", false, rig.status().ToString());
    } else {
      server::InstallDrainHandlers();
      server::ResetDrainFlag();
      fault::ScopedFailpoint slow_engine("core/engine/exact", "delay(300)");
      std::string response;
      std::atomic<bool> done{false};
      exec::ThreadPool client(1);
      const int port = rig->http->port();
      const bool submitted = client.Submit([&response, &done, port] {
        response = HttpRoundTrip(port, PostQueryRequest(kEdgeQuery));
        done.store(true);
      });
      // Wait for the request to be admitted, then deliver the signal.
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(3);
      while (submitted && rig->service->admission().inflight() == 0 &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      const bool admitted = rig->service->admission().inflight() > 0;
      (void)std::raise(SIGTERM);
      const bool flagged = server::DrainRequested();
      rig->http->RequestDrain();
      const Status drained = rig->http->Shutdown(/*drain_deadline_ms=*/5000);
      while (submitted && !done.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      const bool answered =
          response.find("HTTP/1.1 200") != std::string::npos &&
          response.find("\"ok\":true") != std::string::npos;
      const bool dead_after = !Healthy(port);
      server::ResetDrainFlag();
      record("sigterm-drain",
             submitted && admitted && flagged && drained.ok() && answered &&
                 dead_after,
             "admitted=" + std::string(admitted ? "true" : "false") +
                 " signal flagged=" + std::string(flagged ? "true" : "false") +
                 " drain=" + drained.ToString() +
                 " in-flight answered=" +
                 std::string(answered ? "true" : "false") +
                 " serving after=" + std::string(dead_after ? "no" : "YES"));
    }
  }
  fault::DisableAll();
  return edges;
}

int RunServiceMode(const ChaosArgs& args) {
  const std::vector<Outcome> edges = RunServiceEdges();
  size_t violations = 0;
  std::string json = "\"service_edges\":[";
  for (size_t i = 0; i < edges.size(); ++i) {
    if (i > 0) json += ',';
    json += OutcomeJson(edges[i]);
    if (!edges[i].pass) ++violations;
    std::fprintf(stderr, "service edge %-22s %s (%s)\n",
                 edges[i].query.c_str(),
                 edges[i].pass ? "pass" : "VIOLATION",
                 edges[i].detail.c_str());
  }
  json += "],\"summary\":{\"runs\":" + std::to_string(edges.size()) +
          ",\"violations\":" + std::to_string(violations) + '}';
  if (!args.json_path.empty()) {
    std::FILE* out = std::fopen(args.json_path.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return kExitChaosFailure;
    }
    std::fprintf(out, "{%s}\n", json.c_str());
    std::fclose(out);
    std::fprintf(stderr, "report: %s\n", args.json_path.c_str());
  }
  std::fprintf(stderr, "service chaos: %zu edges, %zu violation(s)\n",
               edges.size(), violations);
  return violations == 0 ? kExitOk : kExitChaosFailure;
}

Result<ChaosArgs> ParseChaosArgs(int argc, char** argv) {
  ChaosArgs args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    }
    auto number = [&](uint64_t* out) -> Status {
      try {
        size_t pos = 0;
        *out = std::stoull(value, &pos);
        if (pos != value.size()) throw std::invalid_argument(value);
        return Status::OK();
      } catch (...) {
        return Status::InvalidArgument(arg + " expects an integer, got '" +
                                       value + "'");
      }
    };
    if (arg == "--all") {
      args.only_site.clear();
    } else if (arg == "--site") {
      args.only_site = value;
    } else if (arg == "--combos") {
      uint64_t n = 0;
      AQUA_RETURN_NOT_OK(number(&n));
      args.combos = static_cast<size_t>(n);
    } else if (arg == "--seed") {
      AQUA_RETURN_NOT_OK(number(&args.seed));
    } else if (arg == "--json") {
      args.json_path = value;
    } else if (arg == "--service") {
      args.service = true;
    } else if (arg == "--list") {
      args.list = true;
    } else if (arg == "--help" || arg == "-h") {
      args.help = true;
    } else {
      return Status::InvalidArgument("unknown flag '" + std::string(argv[i]) +
                                     "'");
    }
  }
  return args;
}

Result<Fixture> WriteFixture() {
  Fixture fixture;
  fixture.dir = std::filesystem::temp_directory_path() /
                ("aqua_chaos_" + std::to_string(::getpid()));
  std::error_code ec;
  std::filesystem::create_directories(fixture.dir, ec);
  if (ec) {
    return Status::Internal("cannot create fixture dir: " + ec.message());
  }
  AQUA_ASSIGN_OR_RETURN(Table ds2, PaperInstanceDS2());
  AQUA_ASSIGN_OR_RETURN(PMapping pm, MakeEbayPMapping());
  AQUA_ASSIGN_OR_RETURN(SchemaPMapping schema_pm,
                        SchemaPMapping::Make({std::move(pm)}));
  fixture.schema = ds2.schema();
  fixture.csv_path = (fixture.dir / "ds2.csv").string();
  fixture.mapping_path = (fixture.dir / "ebay.pmapping").string();
  AQUA_RETURN_NOT_OK(Csv::WriteFile(ds2, fixture.csv_path));
  AQUA_RETURN_NOT_OK(
      PMappingText::WriteSchemaFile(schema_pm, fixture.mapping_path));
  return fixture;
}

int RunChaos(const ChaosArgs& args) {
  const auto fixture = WriteFixture();
  if (!fixture.ok()) {
    std::fprintf(stderr, "fixture: %s\n",
                 fixture.status().ToString().c_str());
    return kExitChaosFailure;
  }
  struct FixtureCleanup {
    const std::filesystem::path dir;
    ~FixtureCleanup() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{fixture->dir};

  size_t total_runs = 0;
  size_t violations = 0;
  std::string json;

  // Baseline: all failpoints disabled, run twice; the two runs must be
  // byte-identical and violation-free (this is the acceptance criterion's
  // "byte-identical answers when all failpoints are disabled").
  fault::DisableAll();
  std::vector<Outcome> baseline = RunWorkload(*fixture);
  {
    const std::vector<Outcome> again = RunWorkload(*fixture);
    bool identical = baseline.size() == again.size();
    for (size_t i = 0; identical && i < baseline.size(); ++i) {
      identical = baseline[i].kind == again[i].kind &&
                  baseline[i].detail == again[i].detail;
    }
    bool clean = identical;
    for (const Outcome& o : baseline) clean = clean && o.kind == "exact";
    total_runs += 2;
    if (!clean) ++violations;
    std::fprintf(stderr, "baseline: %s (%zu steps)\n",
                 clean ? "byte-identical, all exact" : "VIOLATION",
                 baseline.size());
    json += "\"baseline\":{\"identical\":" +
            std::string(identical ? "true" : "false") + ",\"queries\":[";
    for (size_t i = 0; i < baseline.size(); ++i) {
      if (i > 0) json += ',';
      json += OutcomeJson(baseline[i]);
    }
    json += "]}";
  }

  // Per-site sweep.
  json += ",\"sites\":[";
  size_t sites_exercised = 0;
  bool first_site = true;
  for (const fault::SiteInfo& site : fault::AllSites()) {
    if (!args.only_site.empty() && args.only_site != site.name) continue;
    ++sites_exercised;
    if (!first_site) json += ',';
    first_site = false;
    json += "{" + obs::JsonString("site", std::string(site.name)) +
            ",\"runs\":[";
    uint64_t site_fires = 0;
    bool first_run = true;
    for (const std::string& spec : SpecsFor(site)) {
      fault::DisableAll();
      for (const auto& [companion_site, companion_spec] :
           CompanionsFor(site.name)) {
        (void)fault::Enable(companion_site, companion_spec);
      }
      const Status armed = fault::Enable(site.name, spec);
      if (!armed.ok()) {
        std::fprintf(stderr, "%s: cannot arm '%s': %s\n",
                     std::string(site.name).c_str(), spec.c_str(),
                     armed.ToString().c_str());
        ++violations;
        continue;
      }
      std::vector<Outcome> outcomes = RunWorkload(*fixture);
      const auto stats = fault::StatsFor(site.name);
      site_fires += stats.fire_count;
      fault::DisableAll();
      const size_t run_violations = Grade(&outcomes, baseline);
      violations += run_violations;
      ++total_runs;
      if (!first_run) json += ',';
      first_run = false;
      json += "{" + obs::JsonString("spec", spec) +
              ",\"hits\":" + std::to_string(stats.hit_count) +
              ",\"fires\":" + std::to_string(stats.fire_count) +
              ",\"pass\":" + (run_violations == 0 ? "true" : "false") +
              ",\"outcomes\":[";
      for (size_t i = 0; i < outcomes.size(); ++i) {
        if (i > 0) json += ',';
        json += OutcomeJson(outcomes[i]);
      }
      json += "]}";
      if (run_violations > 0) {
        std::fprintf(stderr, "%s under '%s': %zu VIOLATION(s)\n",
                     std::string(site.name).c_str(), spec.c_str(),
                     run_violations);
      }
    }
    // Coverage within the suite: the site must actually have fired under
    // at least one spec, otherwise the sweep proved nothing about it.
    if (site_fires == 0) {
      std::fprintf(stderr, "%s: never fired under any spec — not covered\n",
                   std::string(site.name).c_str());
      ++violations;
    }
    json += "],\"fires\":" + std::to_string(site_fires) + '}';
  }
  json += ']';

  // Randomized seeded combinations: several sites armed at once with
  // probabilistic triggers. Deterministic for a fixed --seed.
  json += ",\"combos\":[";
  const std::vector<fault::SiteInfo>& all_sites = fault::AllSites();
  for (size_t k = 0; k < args.combos; ++k) {
    uint64_t stream = SplitMix64(args.seed ^ (0x9E37 + k));
    const size_t num_armed = 2 + stream % 3;  // 2..4 sites
    fault::DisableAll();
    std::vector<std::string> armed;
    for (size_t a = 0; a < num_armed; ++a) {
      stream = SplitMix64(stream);
      const fault::SiteInfo& site = all_sites[stream % all_sites.size()];
      stream = SplitMix64(stream);
      const std::string spec =
          "p(0.3," + std::to_string(stream | 1) + ")*error(unavailable)";
      if (fault::Enable(site.name, spec).ok()) {
        armed.push_back(std::string(site.name) + ':' + spec);
      }
    }
    std::vector<Outcome> outcomes = RunWorkload(*fixture);
    fault::DisableAll();
    const size_t run_violations = Grade(&outcomes, baseline);
    violations += run_violations;
    ++total_runs;
    if (k > 0) json += ',';
    json += "{\"combo\":" + std::to_string(k) + ",\"armed\":[";
    for (size_t a = 0; a < armed.size(); ++a) {
      if (a > 0) json += ',';
      json += '"' + obs::JsonEscape(armed[a]) + '"';
    }
    json += "],\"pass\":" + std::string(run_violations == 0 ? "true"
                                                            : "false") +
            ",\"outcomes\":[";
    for (size_t i = 0; i < outcomes.size(); ++i) {
      if (i > 0) json += ',';
      json += OutcomeJson(outcomes[i]);
    }
    json += "]}";
  }
  json += ']';

  // Deterministic degradation-edge demonstrations.
  const std::vector<Outcome> edges = RunEdgeDemos(*fixture, baseline);
  json += ",\"edges\":[";
  for (size_t i = 0; i < edges.size(); ++i) {
    if (i > 0) json += ',';
    json += OutcomeJson(edges[i]);
    total_runs += 1;
    if (!edges[i].pass) ++violations;
    std::fprintf(stderr, "edge %-22s %s (%s)\n", edges[i].query.c_str(),
                 edges[i].pass ? "pass" : "VIOLATION",
                 edges[i].detail.c_str());
  }
  json += ']';

  // Final determinism check: with everything disabled again, the workload
  // must still match the baseline byte for byte (no leaked fault state).
  {
    fault::DisableAll();
    std::vector<Outcome> final_run = RunWorkload(*fixture);
    bool identical = final_run.size() == baseline.size();
    for (size_t i = 0; identical && i < final_run.size(); ++i) {
      identical = final_run[i].kind == baseline[i].kind &&
                  final_run[i].detail == baseline[i].detail;
    }
    ++total_runs;
    if (!identical) {
      ++violations;
      std::fprintf(stderr, "final disabled run drifted from baseline\n");
    }
    json += ",\"final_disabled_run_identical\":" +
            std::string(identical ? "true" : "false");
  }

  const size_t sites_total =
      args.only_site.empty() ? all_sites.size() : 1;
  json += ",\"summary\":{\"runs\":" + std::to_string(total_runs) +
          ",\"violations\":" + std::to_string(violations) +
          ",\"sites_exercised\":" + std::to_string(sites_exercised) +
          ",\"sites_total\":" + std::to_string(sites_total) + '}';
  if (sites_exercised != sites_total) ++violations;

  if (!args.json_path.empty()) {
    std::FILE* out = std::fopen(args.json_path.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return kExitChaosFailure;
    }
    std::fprintf(out, "{%s}\n", json.c_str());
    std::fclose(out);
    std::fprintf(stderr, "report: %s\n", args.json_path.c_str());
  }
  std::fprintf(stderr, "chaos: %zu runs, %zu violation(s), %zu/%zu sites\n",
               total_runs, violations, sites_exercised, sites_total);
  return violations == 0 ? kExitOk : kExitChaosFailure;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = ParseChaosArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return Usage(stderr);
  }
  if (args->help) return Usage(stdout);
  if (args->list) {
    for (const fault::SiteInfo& site : fault::AllSites()) {
      std::printf("%-32s %s%s\n", std::string(site.name).c_str(),
                  std::string(site.description).c_str(),
                  site.honors_error ? "" : " [delay-only]");
    }
    return kExitOk;
  }
  if (!args->only_site.empty() && !fault::IsKnownSite(args->only_site)) {
    std::fprintf(stderr, "unknown site '%s' (see --list)\n",
                 args->only_site.c_str());
    return kExitUsage;
  }
  if (args->service) return RunServiceMode(*args);
  return RunChaos(*args);
}
