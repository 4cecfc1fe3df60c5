// sddfconv — convert between the SDDF text dialect and the compact binary
// encoding, and verify that the two round-trip losslessly.
//
// Commands:
//   sddfconv to-binary <in.sddf>  <out.sddfb>   text -> binary
//   sddfconv to-text   <in.sddfb> <out.sddf>    binary -> canonical text
//   sddfconv verify    <in>                     round-trip either dialect
//   sddfconv emit      <out.sddfb> [escat|prism|ckpt]
//                                               run a paper-scale experiment
//                                               with live binary capture
//   sddfconv selftest                           paper-scale round-trip +
//                                               compression report, and a
//                                               faulted run's occurrences
//
// `verify` on a text trace demands full byte-identity after
// text -> binary -> text (the goldens guarantee: analysis downstream of the
// converter sees exactly the bytes the text path would have produced).  On a
// binary trace the stored record order is preserved by decode but a re-encode
// is batch-ordered, so verification is record-exact instead: decode, encode,
// decode again, and require structural equality plus canonical-text identity.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/experiment.hpp"
#include "pablo/binsddf.hpp"
#include "pablo/sddf.hpp"

namespace {

using namespace sio;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  if (!out) throw std::runtime_error("short write to " + path);
}

std::string trace_to_text(const pablo::TraceFile& tf) {
  std::ostringstream out;
  pablo::write_sddf(out, tf.file_names, tf.events, tf.faults, tf.qos, tf.losses, tf.integrity,
                    tf.spans);
  return out.str();
}

std::string trace_to_binary(const pablo::TraceFile& tf) {
  return pablo::to_binary_sddf(tf.file_names, tf.events, tf.faults, tf.qos, tf.losses,
                               tf.integrity, tf.spans);
}

bool traces_equal(const pablo::TraceFile& a, const pablo::TraceFile& b) {
  return a.file_names == b.file_names && a.events == b.events && a.faults == b.faults &&
         a.qos == b.qos && a.losses == b.losses && a.integrity == b.integrity &&
         a.spans == b.spans;
}

int cmd_to_binary(const std::string& in_path, const std::string& out_path) {
  const std::string text = slurp(in_path);
  const pablo::TraceFile tf = pablo::from_sddf_string(text);
  const std::string bin = trace_to_binary(tf);
  spit(out_path, bin);
  std::cout << "sddfconv: " << tf.events.size() << " events, " << text.size() << " -> "
            << bin.size() << " bytes ("
            << (bin.empty() ? 0.0
                            : static_cast<double>(text.size()) / static_cast<double>(bin.size()))
            << "x)\n";
  return 0;
}

int cmd_to_text(const std::string& in_path, const std::string& out_path) {
  pablo::TraceFile tf = pablo::from_binary_sddf(slurp(in_path));
  pablo::sort_trace_events(tf.events);
  spit(out_path, trace_to_text(tf));
  std::cout << "sddfconv: decoded " << tf.events.size() << " events\n";
  return 0;
}

int cmd_verify(const std::string& in_path) {
  const std::string data = slurp(in_path);
  if (pablo::is_binary_sddf(data)) {
    pablo::TraceFile tf = pablo::from_binary_sddf(data);
    pablo::TraceFile rt = pablo::from_binary_sddf(trace_to_binary(tf));
    if (!traces_equal(tf, rt)) {
      std::cerr << "sddfconv: FAIL: binary re-encode changed records\n";
      return 1;
    }
    pablo::sort_trace_events(tf.events);
    pablo::sort_trace_events(rt.events);
    if (trace_to_text(tf) != trace_to_text(rt)) {
      std::cerr << "sddfconv: FAIL: canonical text differs after round trip\n";
      return 1;
    }
    std::cout << "sddfconv: OK (binary, " << tf.events.size() << " events)\n";
    return 0;
  }
  const pablo::TraceFile tf = pablo::from_sddf_string(data);
  pablo::TraceFile rt = pablo::from_binary_sddf(trace_to_binary(tf));
  pablo::sort_trace_events(rt.events);
  const std::string text_back = trace_to_text(rt);
  if (text_back != data) {
    std::cerr << "sddfconv: FAIL: text -> binary -> text is not byte-identical\n";
    return 1;
  }
  std::cout << "sddfconv: OK (text, " << tf.events.size() << " events, byte-identical)\n";
  return 0;
}

core::RunResult paper_run(const std::string& app, const core::TraceOptions& topt) {
  const auto plan = fault::FaultPlan::fault_free();
  if (app == "prism") {
    return core::run_prism(apps::prism::make_config(apps::prism::Version::C), plan, topt);
  }
  if (app == "ckpt") {
    return core::run_ckpt(apps::ckpt::Config{}, plan, topt);
  }
  return core::run_escat(apps::escat::make_config(apps::escat::Version::C), plan, topt);
}

int cmd_emit(const std::string& out_path, const std::string& app) {
  core::TraceOptions topt;
  topt.binary_trace = true;
  topt.spans = true;  // emitted traces carry `#span` records for siotrace
  const core::RunResult r = paper_run(app, topt);
  spit(out_path, r.binary_trace);
  std::cout << "sddfconv: " << r.label << ": " << r.events.size() << " events, "
            << r.span_events.size() << " spans, " << r.binary_trace.size()
            << " bytes binary SDDF -> " << out_path << "\n";
  return 0;
}

/// A faulted checkpoint run whose trace carries all four occurrence
/// families: two torn crashes of I/O node 0 under full journaling, QoS
/// admission, and bit-rot bursts on the other I/O nodes under integrity
/// repair and scrubbing.
core::RunResult faulted_run(const core::TraceOptions& topt) {
  auto plan = fault::FaultPlan::io_node_crash_torn(1);
  plan.journal = pfs::JournalMode::kFull;
  plan.qos.enabled = true;
  const auto rot = fault::FaultPlan::bit_rot_plan(1, pfs::IntegrityMode::kRepair);
  plan.integrity = rot.integrity;
  for (const auto& b : rot.bit_rot) {
    if (b.io_node != 0) plan.bit_rot.push_back(b);  // node 0 is down part of the run
  }
  return core::run_ckpt(apps::ckpt::Config{}, plan, topt);
}

/// Checks that the batch-encoded and the live-captured binary traces of `r`
/// both reproduce its text trace; returns the number of failures.
int check_reproduces_text(const core::RunResult& r, const std::string& text,
                          const std::string& batch) {
  int failures = 0;
  for (const auto& [name, bin] : {std::pair{"batch", &batch}, std::pair{"live", &r.binary_trace}}) {
    pablo::TraceFile tf = pablo::from_binary_sddf(*bin);
    pablo::sort_trace_events(tf.events);
    if (trace_to_text(tf) != text) {
      std::cerr << "sddfconv: FAIL: " << r.label << " (" << name
                << " binary) does not reproduce the text trace\n";
      ++failures;
    }
  }
  return failures;
}

int cmd_selftest() {
  core::TraceOptions topt;
  topt.binary_trace = true;
  topt.spans = true;  // `#span` records ride both dialects through the same gate
  int failures = 0;
  for (const std::string app : {"escat", "prism", "ckpt"}) {
    const core::RunResult r = paper_run(app, topt);
    const std::string text = r.to_sddf();
    const std::string batch = r.to_binary_sddf();
    failures += check_reproduces_text(r, text, batch);
    const double ratio =
        batch.empty() ? 0.0 : static_cast<double>(text.size()) / static_cast<double>(batch.size());
    std::cout << "sddfconv: " << r.label << ": " << r.events.size() << " events, text "
              << text.size() << " B, binary " << batch.size() << " B (" << ratio << "x)\n";
    if (ratio < 5.0) {
      std::cerr << "sddfconv: FAIL: compression ratio below the 5x floor\n";
      ++failures;
    }
  }
  // The live writer interleaves occurrence records with events and spans;
  // only a faulted run carries them.
  const core::RunResult r = faulted_run(topt);
  failures += check_reproduces_text(r, r.to_sddf(), r.to_binary_sddf());
  std::cout << "sddfconv: " << r.label << " (faulted): " << r.fault_events.size() << " faults, "
            << r.qos_events.size() << " qos, " << r.loss_events.size() << " losses, "
            << r.integrity_events.size() << " integrity\n";
  if (r.fault_events.empty() || r.qos_events.empty() || r.loss_events.empty() ||
      r.integrity_events.empty()) {
    std::cerr << "sddfconv: FAIL: the faulted run lacks an occurrence family\n";
    ++failures;
  }
  if (failures == 0) std::cout << "sddfconv: selftest OK\n";
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::cerr << "usage: sddfconv to-binary <in.sddf> <out.sddfb>\n"
               "       sddfconv to-text <in.sddfb> <out.sddf>\n"
               "       sddfconv verify <in>\n"
               "       sddfconv emit <out.sddfb> [escat|prism|ckpt]\n"
               "       sddfconv selftest\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "to-binary" && argc == 4) return cmd_to_binary(argv[2], argv[3]);
    if (cmd == "to-text" && argc == 4) return cmd_to_text(argv[2], argv[3]);
    if (cmd == "verify" && argc == 3) return cmd_verify(argv[2]);
    if (cmd == "emit" && (argc == 3 || argc == 4)) {
      return cmd_emit(argv[2], argc == 4 ? argv[3] : "escat");
    }
    if (cmd == "selftest" && argc == 2) return cmd_selftest();
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "sddfconv: error: " << e.what() << "\n";
    return 1;
  }
}
