#include "pablo/sddf.hpp"

#include <charconv>
#include <concepts>
#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>

namespace sio::pablo {

namespace {
constexpr std::string_view kMagic = "#SDDF-IO 1";
constexpr std::string_view kFields = "#fields start_ns duration_ns node file op offset bytes";
constexpr std::string_view kFaultFields = "#fault-fields at_ns op_id kind node target info";
constexpr std::string_view kQosFields = "#qos-fields at_ns op_id kind node target info";
constexpr std::string_view kLossFields = "#loss-fields at_ns op_id target file offset bytes torn";
constexpr std::string_view kIntegrityFields = "#integrity-fields at_ns kind target file unit bytes";
constexpr std::string_view kSpanFields =
    "#span-fields start_ns duration_ns op_id span parent stage node target bytes flags info";

/// Parses a record's file-id field: "-" (no file) or the decimal id of an
/// entry already in the file table.  Non-digits, overflow and ids at or past
/// the end of the table all throw std::runtime_error naming `record`.
FileId parse_file_field(const std::string& field, std::size_t table_size, const char* record) {
  if (field == "-") return kNoFile;
  std::uint64_t id = 0;
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, id);
  if (ec != std::errc{} || ptr != end || id >= table_size) {
    throw std::runtime_error(std::string("SDDF: ") + record + " references unknown file id '" +
                             field + "'");
  }
  return static_cast<FileId>(id);
}

/// A record's file-id field: the decimal id, or "-" for kNoFile.
struct FileField {
  FileId id;
};

/// The SDDF text formatter.  Each line is formatted with std::to_chars and
/// memcpy straight into a 64 KiB chunk, and each full chunk goes to the
/// stream in one write().  Every field is an integer or a name, and
/// to_chars writes the same decimal text as operator<< on a default stream.
class TextWriter {
 public:
  explicit TextWriter(std::ostream& out) : out_(out), buf_(kChunk, '\0') {}

  /// Writes `fields` separated by single spaces, then a newline.
  template <class... Fields>
  void line(const Fields&... fields) {
    const std::size_t need = (width_bound(fields) + ...) + sizeof...(fields);
    if (need > buf_.size() - len_) {
      flush();
      if (need > buf_.size()) buf_.resize(need);  // a name longer than a chunk
    }
    char* p = buf_.data() + len_;
    ((p = put(p, fields), *p++ = ' '), ...);
    p[-1] = '\n';
    len_ = static_cast<std::size_t>(p - buf_.data());
  }

  /// Hands the buffered text to the stream.
  void flush() {
    out_.write(buf_.data(), static_cast<std::streamsize>(len_));
    len_ = 0;
  }

 private:
  static constexpr std::size_t kChunk = 64 * 1024;
  /// Longest decimal integer field: "-9223372036854775808" or UINT64_MAX.
  static constexpr std::size_t kMaxDigits = 20;

  static std::size_t width_bound(std::string_view s) { return s.size(); }
  static std::size_t width_bound(std::integral auto) { return kMaxDigits; }
  static std::size_t width_bound(FileField) { return kMaxDigits; }

  static char* put(char* p, std::string_view s) { return p + s.copy(p, s.size()); }
  static char* put(char* p, std::integral auto v) {
    return std::to_chars(p, p + kMaxDigits, v).ptr;
  }
  static char* put(char* p, FileField f) {
    if (f.id == kNoFile) {
      *p = '-';
      return p + 1;
    }
    return put(p, f.id);
  }

  std::ostream& out_;
  std::string buf_;
  std::size_t len_ = 0;
};
}  // namespace

bool is_portable_file_name(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const auto b = static_cast<unsigned char>(c);
    if (b <= 0x20 || b == 0x7f) return false;
  }
  return true;
}

IoOp parse_io_op(const std::string& name) {
  for (int i = 0; i < kIoOpCount; ++i) {
    const auto op = static_cast<IoOp>(i);
    if (io_op_name(op) == name) return op;
  }
  throw std::runtime_error("SDDF: unknown I/O operation '" + name + "'");
}

FaultKind parse_fault_kind(const std::string& name) {
  for (int i = 0; i < kFaultKindCount; ++i) {
    const auto k = static_cast<FaultKind>(i);
    if (fault_kind_name(k) == name) return k;
  }
  throw std::runtime_error("SDDF: unknown fault kind '" + name + "'");
}

QosKind parse_qos_kind(const std::string& name) {
  for (int i = 0; i < kQosKindCount; ++i) {
    const auto k = static_cast<QosKind>(i);
    if (qos_kind_name(k) == name) return k;
  }
  throw std::runtime_error("SDDF: unknown qos kind '" + name + "'");
}

IntegrityKind parse_integrity_kind(const std::string& name) {
  for (int i = 0; i < kIntegrityKindCount; ++i) {
    const auto k = static_cast<IntegrityKind>(i);
    if (integrity_kind_name(k) == name) return k;
  }
  throw std::runtime_error("SDDF: unknown integrity kind '" + name + "'");
}

obs::StageKind parse_stage_kind(const std::string& name) {
  for (int i = 0; i < obs::kStageKindCount; ++i) {
    const auto k = static_cast<obs::StageKind>(i);
    if (obs::stage_name(k) == name) return k;
  }
  throw std::runtime_error("SDDF: unknown span stage '" + name + "'");
}

void write_sddf(std::ostream& out, const std::vector<std::string>& file_names,
                const std::vector<TraceEvent>& events, const std::vector<FaultEvent>& faults,
                const std::vector<QosEvent>& qos, const std::vector<LossEvent>& losses,
                const std::vector<IntegrityEvent>& integrity,
                const std::vector<SpanEvent>& spans) {
  TextWriter w(out);
  w.line(kMagic);
  w.line(kFields);
  for (std::size_t i = 0; i < file_names.size(); ++i) w.line("#file", i, file_names[i]);
  if (!faults.empty()) {
    w.line(kFaultFields);
    for (const auto& f : faults) {
      w.line("#fault", f.at, f.op_id, fault_kind_name(f.kind), f.node, f.target, f.info);
    }
  }
  if (!qos.empty()) {
    w.line(kQosFields);
    for (const auto& q : qos) {
      w.line("#qos", q.at, q.op_id, qos_kind_name(q.kind), q.node, q.target, q.info);
    }
  }
  if (!losses.empty()) {
    w.line(kLossFields);
    for (const auto& l : losses) {
      w.line("#loss", l.at, l.op_id, l.target, FileField{l.file}, l.offset, l.bytes, l.torn);
    }
  }
  if (!integrity.empty()) {
    w.line(kIntegrityFields);
    for (const auto& g : integrity) {
      w.line("#integrity", g.at, integrity_kind_name(g.kind), g.target, FileField{g.file},
             g.unit, g.bytes);
    }
  }
  if (!spans.empty()) {
    w.line(kSpanFields);
    for (const auto& s : spans) {
      w.line("#span", s.start, s.duration, s.op_id, s.span, s.parent, obs::stage_name(s.stage),
             s.node, s.target, s.bytes, s.flags, s.info);
    }
  }
  for (const auto& ev : events) {
    w.line(ev.start, ev.duration, ev.node, FileField{ev.file}, io_op_name(ev.op), ev.offset,
           ev.bytes);
  }
  w.flush();
}

void write_sddf(std::ostream& out, const Collector& collector) {
  std::vector<std::string> names;
  names.reserve(collector.file_count());
  for (std::size_t i = 0; i < collector.file_count(); ++i) {
    names.push_back(collector.file_name(static_cast<FileId>(i)));
  }
  write_sddf(out, names, collector.events(), collector.fault_events(), collector.qos_events(),
             collector.loss_events(), collector.integrity_events(), collector.span_events());
}

TraceFile read_sddf(std::istream& in) {
  TraceFile tf;
  std::string line;

  if (!std::getline(in, line) || line != kMagic) {
    throw std::runtime_error("SDDF: bad magic line");
  }
  if (!std::getline(in, line) || line != kFields) {
    throw std::runtime_error("SDDF: bad field declaration");
  }

  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("#file ", 0) == 0) {
      std::istringstream ls(line.substr(6));
      std::size_t id = 0;
      std::string path;
      if (!(ls >> id >> path)) throw std::runtime_error("SDDF: bad #file line");
      if (!is_portable_file_name(path)) {
        throw std::runtime_error("SDDF: file name has a control byte");
      }
      if (id != tf.file_names.size()) {
        throw std::runtime_error("SDDF: file table ids must be dense and ordered");
      }
      tf.file_names.push_back(path);
      continue;
    }
    // The trailing space keeps "#fault-fields" falling through to the
    // generic comment skip below.
    if (line.rfind("#fault ", 0) == 0) {
      std::istringstream ls(line.substr(7));
      FaultEvent f;
      std::string kind_name;
      if (!(ls >> f.at >> f.op_id >> kind_name >> f.node >> f.target >> f.info)) {
        throw std::runtime_error("SDDF: bad #fault line: " + line);
      }
      f.kind = parse_fault_kind(kind_name);
      tf.faults.push_back(f);  // siolint:allow(trace-vector-growth) batch decode materializes
      continue;
    }
    if (line.rfind("#qos ", 0) == 0) {
      std::istringstream ls(line.substr(5));
      QosEvent q;
      std::string kind_name;
      if (!(ls >> q.at >> q.op_id >> kind_name >> q.node >> q.target >> q.info)) {
        throw std::runtime_error("SDDF: bad #qos line: " + line);
      }
      q.kind = parse_qos_kind(kind_name);
      tf.qos.push_back(q);  // siolint:allow(trace-vector-growth) batch decode materializes
      continue;
    }
    if (line.rfind("#integrity ", 0) == 0) {
      std::istringstream ls(line.substr(11));
      IntegrityEvent g;
      std::string kind_name;
      std::string file_field;
      if (!(ls >> g.at >> kind_name >> g.target >> file_field >> g.unit >> g.bytes)) {
        throw std::runtime_error("SDDF: bad #integrity line: " + line);
      }
      g.kind = parse_integrity_kind(kind_name);
      g.file = parse_file_field(file_field, tf.file_names.size(), "#integrity");
      tf.integrity.push_back(g);  // siolint:allow(trace-vector-growth) batch decode materializes
      continue;
    }
    if (line.rfind("#loss ", 0) == 0) {
      std::istringstream ls(line.substr(6));
      LossEvent l;
      std::string file_field;
      if (!(ls >> l.at >> l.op_id >> l.target >> file_field >> l.offset >> l.bytes >> l.torn)) {
        throw std::runtime_error("SDDF: bad #loss line: " + line);
      }
      l.file = parse_file_field(file_field, tf.file_names.size(), "#loss");
      tf.losses.push_back(l);  // siolint:allow(trace-vector-growth) batch decode materializes
      continue;
    }
    if (line.rfind("#span ", 0) == 0) {
      std::istringstream ls(line.substr(6));
      SpanEvent s;
      std::string stage_field;
      if (!(ls >> s.start >> s.duration >> s.op_id >> s.span >> s.parent >> stage_field >>
            s.node >> s.target >> s.bytes >> s.flags >> s.info)) {
        throw std::runtime_error("SDDF: bad #span line: " + line);
      }
      s.stage = parse_stage_kind(stage_field);
      // Same limits as the binary dialect: the end tick must fit in 64 bits
      // and a parent opens before its child.
      sim::Tick end = 0;
      if (__builtin_add_overflow(s.start, s.duration, &end)) {
        throw std::runtime_error("SDDF: #span end overflows 64 bits: " + line);
      }
      if (s.parent >= s.span && s.parent != 0) {
        throw std::runtime_error("SDDF: #span parent does not precede the span: " + line);
      }
      tf.spans.push_back(s);  // siolint:allow(trace-vector-growth) batch decode materializes
      continue;
    }
    if (line[0] == '#') continue;  // future extension records

    std::istringstream ls(line);
    TraceEvent ev;
    std::string file_field;
    std::string op_name;
    if (!(ls >> ev.start >> ev.duration >> ev.node >> file_field >> op_name >> ev.offset >>
          ev.bytes)) {
      throw std::runtime_error("SDDF: truncated record: " + line);
    }
    ev.file = parse_file_field(file_field, tf.file_names.size(), "record");
    ev.op = parse_io_op(op_name);
    tf.events.push_back(ev);  // siolint:allow(trace-vector-growth) batch decode materializes
  }
  return tf;
}

std::string to_sddf_string(const Collector& collector) {
  std::ostringstream out;
  write_sddf(out, collector);
  return out.str();
}

TraceFile from_sddf_string(const std::string& text) {
  std::istringstream in(text);
  return read_sddf(in);
}

}  // namespace sio::pablo
