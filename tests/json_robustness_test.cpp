// Deterministic mutation pass over the JSON readers that take input from
// outside the process: util::parse_json, serve::parse_request and
// core::parse_json_report.
//
// The seed corpus is what the program itself writes: a JSON report of a
// small campaign with findings, the Chrome trace of that same run, and
// one request frame per protocol verb. util::Rng applies byte flips,
// deletions, splices, truncations, token inserts and deep-bracket inserts
// to it, and every case goes to all three readers. Each call must either
// return or throw its documented error type (util::JsonError,
// serve::ProtocolError, core::SpecError); any other exception, a crash or
// a sanitizer report is a failure. Case numbers are stable, so a failure
// names the case that reproduces it.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/report.hpp"
#include "core/session.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace specure {
namespace {

struct SeedCorpus {
  std::string report;
  std::string trace;
  std::vector<std::string> frames;  ///< one per protocol verb

  std::vector<std::string> all() const {
    std::vector<std::string> docs = frames;
    docs.push_back(report);
    docs.push_back(trace);
    return docs;
  }
};

// Sets the value after each `key` to 1.000: wall-clock fields would
// otherwise make the corpus, and with it every mutated case, differ from
// run to run.
std::string pin_values(std::string doc,
                       std::initializer_list<std::string_view> keys) {
  for (const std::string_view key : keys) {
    for (std::size_t at = doc.find(key); at != std::string::npos;
         at = doc.find(key, at)) {
      at += key.size();
      doc.replace(at, doc.find_first_of(",}", at) - at, "1.000");
    }
  }
  return doc;
}

const SeedCorpus& seed_corpus() {
  static const SeedCorpus corpus = [] {
    SeedCorpus c;
    core::CampaignSpec spec = core::CampaignSpec::preset("full");
    spec.rng_seed = 1;
    spec.batch_size = 4;
    spec.jobs = 1;
    spec.budget.iterations = 10;
    spec.progress_interval = 0;
    spec.trace_out = "json_robustness_test_trace.json";
    core::Session session(spec);
    const core::CampaignResult result = session.run();
    c.report = pin_values(core::json_report(result, 64, &spec),
                          {"\"seconds\": "});
    std::ifstream in(spec.trace_out, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    c.trace = pin_values(buf.str(), {"\"ts\": ", "\"dur\": "});
    std::remove(spec.trace_out.c_str());

    const std::string id = R"(, "id": "c0001")";
    c.frames = {
        R"({"verb": "submit", "spec": ")" + util::json_escape(spec.to_toml()) +
            "\"}",
        R"({"verb": "status")" + id + "}",
        R"({"verb": "metrics")" + id + "}",
        R"({"verb": "events")" + id + R"(, "from": 3, "follow": false})",
        R"({"verb": "pause")" + id + "}",
        R"({"verb": "resume")" + id + "}",
        R"({"verb": "cancel")" + id + "}",
        R"({"verb": "list"})",
        R"({"verb": "shutdown"})",
    };
    return c;
  }();
  return corpus;
}

// Tokens worth inserting whole: literals, number edge cases, escapes and
// structure characters a single byte flip rarely assembles.
const std::vector<std::string>& tokens() {
  static const std::vector<std::string> list = {
      "null", "true", "false", "-", "1e999", "-0", "1e-400", "0.1",
      "18446744073709551616", "-1", "1.5", "\"", "\\", "\\u00", "\\u0041",
      "\\x", "{", "}", "[", "]", ",", ":", "\n", "\"verb\": ", "\"spec\": {",
      "\"findings\": [", "\"program\": \"zz\"", "\"from\": 1e300"};
  return list;
}

std::size_t pos_in(util::Rng& rng, const std::string& s) {
  return static_cast<std::size_t>(rng.below(s.size() + 1));
}

/// One to four mutations of `doc`, drawn from `rng`.
std::string mutate(util::Rng& rng, std::string doc,
                   const std::vector<std::string>& donors) {
  const std::uint64_t steps = rng.range(1, 4);
  for (std::uint64_t step = 0; step < steps; ++step) {
    switch (rng.below(6)) {
      case 0: {  // byte flip
        if (doc.empty()) break;
        const std::size_t at = static_cast<std::size_t>(rng.below(doc.size()));
        doc[at] = static_cast<char>(rng.below(256));
        break;
      }
      case 1: {  // deletion
        const std::size_t at = pos_in(rng, doc);
        doc.erase(at, static_cast<std::size_t>(rng.range(1, 32)));
        break;
      }
      case 2: {  // splice: a slice of any seed document
        const std::string& donor = rng.pick(donors);
        const std::size_t from = pos_in(rng, donor);
        const std::string slice =
            donor.substr(from, static_cast<std::size_t>(rng.range(1, 64)));
        doc.insert(pos_in(rng, doc), slice);
        break;
      }
      case 3:  // truncation
        doc.resize(pos_in(rng, doc));
        break;
      case 4:  // token insert
        doc.insert(pos_in(rng, doc), rng.pick(tokens()));
        break;
      default: {  // deep-bracket insert, around and far past the bound
        static const std::vector<std::size_t> depths = {
            util::kMaxJsonDepth - 1, util::kMaxJsonDepth,
            util::kMaxJsonDepth + 1, 1000, 100000};
        static const std::vector<std::string> openers = {"[", "{\"k\": ",
                                                         "[{\"a\": "};
        const std::string& opener = rng.pick(openers);
        std::string run;
        for (std::size_t i = rng.pick(depths); i > 0; --i) run += opener;
        doc.insert(pos_in(rng, doc), run);
        break;
      }
    }
  }
  return doc;
}

struct Outcome {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

/// Runs `fn`; it must return or throw `Error`.
template <typename Error, typename Fn>
void expect_contained(const char* reader, std::size_t case_index,
                      const std::string& input, Outcome& outcome, Fn&& fn) {
  try {
    fn();
    ++outcome.accepted;
  } catch (const Error&) {
    ++outcome.rejected;
  } catch (const std::exception& e) {
    ADD_FAILURE() << reader << " threw an undocumented exception on case "
                  << case_index << ": " << e.what() << "\ninput prefix: "
                  << input.substr(0, 200);
  } catch (...) {
    ADD_FAILURE() << reader << " threw a non-std exception on case "
                  << case_index;
  }
}

TEST(JsonRobustness, SeedCorpusParses) {
  const SeedCorpus& corpus = seed_corpus();
  for (const std::string& doc : corpus.all()) {
    EXPECT_NO_THROW(util::parse_json(doc)) << doc.substr(0, 200);
  }
  std::istringstream in(corpus.report);
  const core::ParsedReport report = core::parse_json_report(in);
  EXPECT_TRUE(report.has_spec);
  EXPECT_FALSE(report.findings.empty());

  std::set<std::string> verbs;
  for (const std::string& frame : corpus.frames) {
    verbs.insert(serve::parse_request(frame).verb);
  }
  EXPECT_EQ(verbs, std::set<std::string>(serve::protocol_verbs().begin(),
                                         serve::protocol_verbs().end()));
}

TEST(JsonRobustness, MutatedInputsReturnOrThrowTheDocumentedError) {
  const std::vector<std::string> seeds = seed_corpus().all();
  constexpr std::size_t kCasesPerSeed = 300;
  util::Rng rng(0x15a7e);
  Outcome json, request, report;
  std::size_t case_index = 0;
  for (const std::string& seed : seeds) {
    for (std::size_t i = 0; i < kCasesPerSeed; ++i, ++case_index) {
      const std::string input = mutate(rng, seed, seeds);
      expect_contained<util::JsonError>("util::parse_json", case_index, input,
                                        json,
                                        [&] { util::parse_json(input); });
      expect_contained<serve::ProtocolError>(
          "serve::parse_request", case_index, input, request,
          [&] { serve::parse_request(input); });
      expect_contained<core::SpecError>("core::parse_json_report", case_index,
                                        input, report, [&] {
                                          std::istringstream in(input);
                                          core::parse_json_report(in);
                                        });
    }
  }
  // Both outcomes occur for every reader, so the pass exercises the
  // accepting paths as well as the error paths.
  for (const Outcome* o : {&json, &request, &report}) {
    EXPECT_GT(o->accepted, 0u);
    EXPECT_GT(o->rejected, 0u);
  }
  std::printf("parse_json %zu/%zu, parse_request %zu/%zu, "
              "parse_json_report %zu/%zu accepted/rejected over %zu cases\n",
              json.accepted, json.rejected, request.accepted,
              request.rejected, report.accepted, report.rejected, case_index);
}

}  // namespace
}  // namespace specure
