// SDDF-style trace serialization.
//
// The Pablo environment recorded its instrumentation data in SDDF, the
// Self-Describing Data Format: a header describing each record's fields,
// followed by the records.  This module implements a compact text dialect of
// that idea for the I/O traces: a run can be dumped to a stream/file and
// reloaded later for offline analysis, so traces captured by one program can
// be post-processed by another (exactly the capture/analysis split Pablo's
// toolkit had).
//
// Format:
//   #SDDF-IO 1
//   #fields start_ns duration_ns node file op offset bytes
//   #file <id> <path>            (one per registered file)
//   #<rec>-fields <columns>      (per occurrence family present; see below)
//   #<rec> <one value per column>
//   #span-fields start_ns duration_ns op_id span parent stage node target bytes flags info
//   #span <start> <dur> <op_id> <span> <parent> <stage-name> <node> <target> <bytes> <flags> <info>
//   <records: one event per line, space separated, op by name>
//
// The occurrence records are #fault, #qos, #loss and #integrity; their
// columns and field order live only in record_schema.hpp.
//
// `#fault` records extend the dialect for fault-injection runs, `#qos`
// records for overload-protection runs, `#loss` records for crash-induced
// acknowledged-data losses, `#integrity` records for end-to-end
// data-integrity runs and `#span` records for causal-tracing runs; readers
// predating any of them skip unknown `#` lines, so old tools still load new
// traces.  Every per-operation record family carries the operation identity
// in one `op_id` column directly after its timestamp, so `siotrace` joins
// #span/#fault/#qos/#loss without per-record special cases.

#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "pablo/collector.hpp"
#include "pablo/event.hpp"

namespace sio::pablo {

/// Writes the collector's registered files, events and every other record
/// family to `out`.
void write_sddf(std::ostream& out, const Collector& collector);

/// Writes a pre-extracted trace: the file table, then each record family
/// that is present (faults, QoS, losses, integrity, spans), then the events.
void write_sddf(std::ostream& out, const std::vector<std::string>& file_names,
                const std::vector<TraceEvent>& events, const std::vector<FaultEvent>& faults = {},
                const std::vector<QosEvent>& qos = {}, const std::vector<LossEvent>& losses = {},
                const std::vector<IntegrityEvent>& integrity = {},
                const std::vector<SpanEvent>& spans = {});

/// True when `name` can be a `#file` name in both dialects: non-empty, with
/// no space, control byte or DEL.  The text dialect writes names verbatim
/// and reads them back as one whitespace-delimited token, so both decoders
/// reject any other name.
bool is_portable_file_name(std::string_view name);

/// Parses a trace written by write_sddf.  Throws std::runtime_error on
/// malformed input (bad magic, unknown op, truncated record).
TraceFile read_sddf(std::istream& in);

/// Convenience round trip through a string (used by tests and tools).
std::string to_sddf_string(const Collector& collector);
TraceFile from_sddf_string(const std::string& text);

}  // namespace sio::pablo
