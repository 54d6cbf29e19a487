#include "triage/triage.hpp"

#include <chrono>
#include <cstdio>
#include <ostream>
#include <set>

#include "triage/repro.hpp"
#include "triage/signature.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

namespace specure::triage {

namespace {

/// Fail before any minimization work: create the bundle root and probe
/// it for writability, mirroring the vcd_out contract.
void ensure_out_dir_writable(const std::string& dir) {
  const std::string problem = util::ensure_dir_writable(dir);
  if (!problem.empty()) {
    throw core::SpecError("triage_out directory '" + dir + "' " + problem);
  }
}

/// The coarse finding_key is the signature's prefix (everything before
/// the '#' separator); signatures predating the triage layer have no
/// separator and are their own bucket.
std::string coarse_of(const std::string& signature) {
  const std::size_t hash = signature.find('#');
  return hash == std::string::npos ? signature : signature.substr(0, hash);
}

}  // namespace

TriageReport run_triage(const core::CampaignSpec& spec,
                        const core::OfflineResult& offline,
                        const std::vector<TriageInput>& findings,
                        const TriageOptions& options,
                        const MinimizedObserver& observer) {
  const auto t0 = std::chrono::steady_clock::now();
  TriageReport report;
  if (findings.empty()) return report;
  if (options.mode == core::TriageMode::kFull) {
    ensure_out_dir_writable(options.out_dir);
  }

  Minimizer minimizer(spec.core, offline, spec.detector, options.jobs);
  std::set<std::string> seen;
  for (const TriageInput& input : findings) {
    if (input.signature.empty() || !seen.insert(input.signature).second) {
      continue;
    }
    MinimizeResult minimized =
        minimizer.minimize(input.program, input.signature);

    TriagedFinding finding;
    finding.signature = input.signature;
    finding.digest = signature_digest(input.signature);
    finding.coarse = coarse_of(input.signature);
    finding.original = input.program;
    finding.minimized = minimized.program;
    finding.leak_instructions = std::move(minimized.leak_instructions);
    finding.probes = minimized.probes;
    finding.reproduced = minimized.reproduced;
    report.probes_total += minimized.probes;

    if (options.mode == core::TriageMode::kFull && minimized.reproduced) {
      const ReproBundle bundle =
          write_repro_bundle(options.out_dir, spec, minimized, minimizer);
      finding.bundle_dir = bundle.dir;
      finding.verified = bundle.verified;
    }

    if (observer) {
      MinimizedEvent event;
      event.signature = finding.signature;
      event.digest = finding.digest;
      event.original_len = minimized.original_len;
      event.minimized_len = minimized.minimized_len;
      event.probes = minimized.probes;
      event.reproduced = minimized.reproduced;
      event.bundle_dir = finding.bundle_dir;
      event.verified = finding.verified;
      observer(event);
    }
    report.findings.push_back(std::move(finding));
  }
  report.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return report;
}

void write_triage_table(std::ostream& os, const TriageReport& report) {
  char line[512];
  std::snprintf(line, sizeof line, "%-18s %-34s %-10s %-8s %-9s %s\n",
                "digest", "coarse key", "insts", "probes", "verified",
                "bundle");
  os << line;
  for (const TriagedFinding& f : report.findings) {
    std::string insts = std::to_string(f.original.code.size()) + "->" +
                        std::to_string(f.minimized.code.size());
    if (!f.reproduced) insts = "(no repro)";
    std::snprintf(line, sizeof line, "%-18s %-34s %-10s %-8zu %-9s %s\n",
                  f.digest.c_str(), f.coarse.c_str(), insts.c_str(), f.probes,
                  f.bundle_dir.empty() ? "-" : (f.verified ? "yes" : "NO"),
                  f.bundle_dir.empty() ? "-" : f.bundle_dir.c_str());
    os << line;
  }
}

void write_triage_json(std::ostream& os, const TriageReport& report) {
  os << "{\n  \"probes\": " << report.probes_total
     << ", \"seconds\": " << report.seconds << ",\n  \"findings\": [";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const TriagedFinding& f = report.findings[i];
    os << (i == 0 ? "" : ",") << "\n    {\"digest\": \""
       << util::json_escape(f.digest) << "\", \"signature\": \""
       << util::json_escape(f.signature) << "\", \"coarse\": \""
       << util::json_escape(f.coarse) << "\""
       << ", \"original_insts\": " << f.original.code.size()
       << ", \"minimized_insts\": " << f.minimized.code.size()
       << ", \"probes\": " << f.probes
       << ", \"reproduced\": " << (f.reproduced ? "true" : "false")
       << ", \"verified\": " << (f.verified ? "true" : "false")
       << ", \"program\": \"" << f.minimized.to_hex() << "\"";
    if (!f.bundle_dir.empty()) {
      os << ", \"bundle\": \"" << util::json_escape(f.bundle_dir) << "\"";
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace specure::triage
