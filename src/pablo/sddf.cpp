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
#include <tuple>
#include <type_traits>

#include "pablo/record_schema.hpp"

namespace sio::pablo {

namespace {
constexpr std::string_view kMagic = "#SDDF-IO 1";
constexpr std::string_view kFields = "#fields start_ns duration_ns node file op offset bytes";
constexpr std::string_view kSpanFields =
    "#span-fields start_ns duration_ns op_id span parent stage node target bytes flags info";

/// Parses a record's file-id field: "-" (no file) or the decimal id of an
/// entry already in the file table.  Non-digits, overflow and ids at or past
/// the end of the table all throw std::runtime_error naming `record`.
FileId parse_file_field(const std::string& field, std::size_t table_size, std::string_view record) {
  if (field == "-") return kNoFile;
  std::uint64_t id = 0;
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, id);
  if (ec != std::errc{} || ptr != end || id >= table_size) {
    throw std::runtime_error("SDDF: " + std::string(record) + " references unknown file id '" +
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

/// One occurrence field as the writer formats it.
template <class F, class R>
auto text_value(const F&, const R& r) {
  const auto v = r.*F::member;
  if constexpr (F::coding == Coding::kKind) {
    return name_table(v).name(v);
  } else if constexpr (F::coding == Coding::kFile) {
    return FileField{v};
  } else {
    return v;
  }
}

/// Writes one occurrence family: its `-fields` header, then one line per
/// record.  Writes nothing for an empty family.
template <class R>
void write_records(TextWriter& w, const std::vector<R>& records) {
  if (records.empty()) return;
  constexpr std::string_view name = kSchema<R>.name;
  std::apply(
      [&](const auto&... field) {
        w.line(std::string(name) + "-fields", field.column...);
        for (const R& r : records) w.line(name, text_value(field, r)...);
      },
      kSchema<R>.fields);
}

/// Parses `line` into tf's R family if it is an R record ("#fault ...", not
/// "#fault-fields ...").  Like one `>>` chain, every field is extracted
/// before the kind and file tokens are checked, in field order.
template <class R>
bool read_record(const std::string& line, TraceFile& tf) {
  constexpr std::string_view name = kSchema<R>.name;
  if (line.size() <= name.size() || line[name.size()] != ' ' || !line.starts_with(name)) {
    return false;
  }
  std::istringstream ls(line.substr(name.size() + 1));
  R r;
  std::string kind_token;
  std::string file_token;
  for_each_field<R>([&]<class F>(const F&) {
    if constexpr (F::coding == Coding::kKind) {
      ls >> kind_token;
    } else if constexpr (F::coding == Coding::kFile) {
      ls >> file_token;
    } else {
      ls >> r.*F::member;
    }
  });
  if (!ls) throw std::runtime_error("SDDF: bad " + std::string(name) + " line: " + line);
  for_each_field<R>([&]<class F>(const F&) {
    auto& v = r.*F::member;
    if constexpr (F::coding == Coding::kKind) {
      v = parse_name<std::remove_reference_t<decltype(v)>>(kind_token);
    } else if constexpr (F::coding == Coding::kFile) {
      v = parse_file_field(file_token, tf.file_names.size(), name);
    }
  });
  // siolint:allow(trace-vector-growth) batch decode materializes
  (tf.*kSchema<R>.trace).push_back(r);
  return true;
}
}  // namespace

bool is_portable_file_name(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const auto b = static_cast<unsigned char>(c);
    if (b <= 0x20 || b == 0x7f) return false;
  }
  return true;
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
  write_records(w, faults);
  write_records(w, qos);
  write_records(w, losses);
  write_records(w, integrity);
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
  const TraceFile& t = collector.trace();
  write_sddf(out, t.file_names, t.events, t.faults, t.qos, t.losses, t.integrity, t.spans);
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
    if (any_occurrence([&]<class R>(std::type_identity<R>) { return read_record<R>(line, tf); })) {
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
      s.stage = parse_name<obs::StageKind>(stage_field);
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
    ev.op = parse_name<IoOp>(op_name);
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
