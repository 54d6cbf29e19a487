// Campaign report rendering: human-readable text and machine-readable
// JSON for CI pipelines / triage tooling. Covers the vulnerability
// findings (with root causes and windows), the Misspeculation Table
// sample, the campaign statistics, and — when a CampaignSpec is given —
// an echo of the resolved scenario so a report is self-describing and
// the exact campaign can be reproduced from it.
#pragma once

#include <iosfwd>
#include <string>

#include "core/campaign_spec.hpp"
#include "core/result_merger.hpp"

namespace specure::core {

/// Human-readable campaign report (the paper's "root cause report").
/// With a spec, the header carries a scenario section (name, feedback
/// mode, seed, execution shape, armed emulations).
void write_text_report(std::ostream& os, const CampaignResult& result,
                       const CampaignSpec* spec = nullptr);

/// JSON document with the full campaign result. Stable schema:
/// { "campaign": {...}, "spec": {...}?, "findings": [...], "mst": [...],
///   "history": [...] }
/// The "spec" object (present when `spec` is given) holds every resolved
/// CampaignSpec field keyed by its flat override key, so the report
/// round-trips back into a CampaignSpec. History is downsampled to at
/// most `history_points` entries.
void write_json_report(std::ostream& os, const CampaignResult& result,
                       std::size_t history_points = 64,
                       const CampaignSpec* spec = nullptr);

/// Convenience: JSON to string.
std::string json_report(const CampaignResult& result,
                        std::size_t history_points = 64,
                        const CampaignSpec* spec = nullptr);

/// The resolved spec as a flat JSON object ({"name": "...", "rob_entries":
/// 16, ...}); the "spec" member of write_json_report and the per-scenario
/// echo in Sweep::write_json.
std::string spec_json(const CampaignSpec& spec);

/// The slice of a JSON report the triage pipeline consumes: the resolved
/// spec plus each finding's signature and triggering program. Written by
/// write_json_report; parsed back by parse_json_report for
/// `specure triage REPORT.json`.
struct ParsedReportFinding {
  std::string signature;
  riscv::Program program;
};

struct ParsedReport {
  CampaignSpec spec;
  bool has_spec = false;  ///< the report carried a "spec" object
  std::vector<ParsedReportFinding> findings;
};

/// Parse a report produced by write_json_report (read whole, through
/// util::parse_json). Throws SpecError("JSON report: ...") on malformed
/// input — util::JsonError's "line N:" text included — and on reports
/// from builds that predate per-finding programs.
ParsedReport parse_json_report(std::istream& is);

}  // namespace specure::core
