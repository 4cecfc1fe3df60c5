#include "pablo/binsddf.hpp"

#include <algorithm>
#include <istream>
#include <stdexcept>

#include "pablo/blockcomp.hpp"
#include "pablo/collector.hpp"
#include "pablo/record_schema.hpp"
#include "pablo/sddf.hpp"
#include "pablo/varint.hpp"

namespace sio::pablo {

namespace {

constexpr std::uint8_t kTagEnd = 0x00;
constexpr std::uint8_t kTagFile = 0x01;
constexpr std::uint8_t kTagSpan = 0x06;
constexpr std::uint8_t kEventBit = 0x80;

// Event presence flags (tag bits 0..3).
constexpr std::uint8_t kFlagDur = 0x01;
constexpr std::uint8_t kFlagFile = 0x02;
constexpr std::uint8_t kFlagOff = 0x04;
constexpr std::uint8_t kFlagBytes = 0x08;

constexpr std::int64_t file_as_signed(FileId f) {
  return f == kNoFile ? -1 : static_cast<std::int64_t>(f);
}

FileId file_from_signed(std::int64_t v, std::size_t table_size) {
  if (v == -1) return kNoFile;
  if (v < 0 || static_cast<std::uint64_t>(v) >= table_size) {
    throw std::runtime_error("binary SDDF: record references unknown file id");
  }
  return static_cast<FileId>(v);
}

/// Wraparound-safe unsigned delta, encoded via zigzag of the two's-complement
/// difference so both directions stay short.
void put_u64_delta(std::string& out, std::uint64_t value, std::uint64_t prev) {
  varint::put_signed(out, static_cast<std::int64_t>(value - prev));
}

/// A signed delta, coded the same way: the difference wraps, so a jump
/// between any two int64 values (INT64_MIN to INT64_MAX, say) encodes, and
/// one that fits in int64 keeps its bytes.
void put_signed_delta(std::string& out, std::int64_t value, std::int64_t prev) {
  put_u64_delta(out, static_cast<std::uint64_t>(value), static_cast<std::uint64_t>(prev));
}

std::uint64_t get_u64_delta(std::string_view data, std::size_t& pos, std::uint64_t prev) {
  return prev + static_cast<std::uint64_t>(varint::get_signed(data, pos));
}

/// `prev` plus the next signed delta, wrapping as put_signed_delta does.
inline std::int64_t add_signed_delta(std::int64_t prev, std::string_view data,
                                     std::size_t& pos) {
  return static_cast<std::int64_t>(get_u64_delta(data, pos, static_cast<std::uint64_t>(prev)));
}

/// Reads one kind byte of enum E, range-checked against E's name table.
template <class E>
E get_kind(std::string_view data, std::size_t& pos, std::string_view record) {
  if (pos >= data.size()) {
    throw std::runtime_error("binary SDDF: truncated " + std::string(record) + " record");
  }
  const auto kind = static_cast<std::uint8_t>(data[pos++]);
  if (kind >= name_table(E{}).count) {
    throw std::runtime_error(std::string("binary SDDF: unknown ") + name_table(E{}).label);
  }
  return static_cast<E>(kind);
}

/// Appends field F of `r`, coded against the same field of `prev`.
template <class F, class R>
void put_field(std::string& out, const R& r, const R& prev) {
  const auto v = r.*F::member;
  const auto p = prev.*F::member;
  if constexpr (F::coding == Coding::kDelta) {
    put_signed_delta(out, static_cast<std::int64_t>(v), static_cast<std::int64_t>(p));
  } else if constexpr (F::coding == Coding::kU64Delta) {
    put_u64_delta(out, v, p);
  } else if constexpr (F::coding == Coding::kKind) {
    out.push_back(static_cast<char>(v));
  } else if constexpr (F::coding == Coding::kFile) {
    put_signed_delta(out, file_as_signed(v), file_as_signed(p));
  } else {
    varint::put(out, v);
  }
}

/// Decodes field F of `r` against the same field of `prev`.
template <class F, class R>
void get_field(std::string_view data, std::size_t& pos, R& r, const R& prev,
               std::size_t file_count) {
  auto& v = r.*F::member;
  const auto p = prev.*F::member;
  using V = std::remove_reference_t<decltype(v)>;
  if constexpr (F::coding == Coding::kDelta) {
    v = static_cast<V>(add_signed_delta(p, data, pos));
  } else if constexpr (F::coding == Coding::kU64Delta) {
    v = get_u64_delta(data, pos, p);
  } else if constexpr (F::coding == Coding::kKind) {
    v = get_kind<V>(data, pos, kSchema<R>.name.substr(1));
  } else if constexpr (F::coding == Coding::kFile) {
    v = file_from_signed(add_signed_delta(file_as_signed(p), data, pos), file_count);
  } else {
    v = varint::get(data, pos);
  }
}

/// Key of the per-(node, op) offset predictor table.
constexpr std::uint64_t node_op_key(std::int32_t node, std::size_t opi) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 3) | opi;
}

}  // namespace

bool is_binary_sddf(std::string_view data) {
  return data.substr(0, kBinarySddfMagic.size()) == kBinarySddfMagic;
}

BinarySddfWriter::BinarySddfWriter(Sink sink, std::size_t flush_threshold)
    : sink_(std::move(sink)), flush_threshold_(flush_threshold) {
  raw_.reserve(flush_threshold + 64);
  buf_.append(kBinarySddfMagic);
  container_bytes_ = buf_.size();
}

void BinarySddfWriter::close_frame() {
  if (raw_.empty()) return;
  packed_.clear();
  blockcomp::compress(raw_, packed_, hash_table_);
  const std::size_t before = buf_.size();
  varint::put(buf_, raw_.size());
  if (packed_.size() < raw_.size()) {
    varint::put(buf_, packed_.size());
    buf_.append(packed_);
  } else {
    varint::put(buf_, 0);  // stored frame: compression would not have paid
    buf_.append(raw_);
  }
  container_bytes_ += buf_.size() - before;
  raw_.clear();
}

void BinarySddfWriter::maybe_flush() {
  if (raw_.size() < flush_threshold_) return;
  close_frame();
  if (sink_) {
    sink_(buf_);
    buf_.clear();
  }
}

void BinarySddfWriter::add_file(std::string_view name) {
  const std::size_t before = raw_.size();
  raw_.push_back(static_cast<char>(kTagFile));
  varint::put(raw_, name.size());
  raw_.append(name);
  bytes_encoded_ += raw_.size() - before;
  ++files_written_;
  maybe_flush();
}

void BinarySddfWriter::add_event(const TraceEvent& ev) {
  const auto opi = static_cast<std::size_t>(ev.op);
  std::uint8_t tag = kEventBit | static_cast<std::uint8_t>(opi << 4);
  const std::int64_t file = file_as_signed(ev.file);
  auto& no_off = prev_no_off_[node_op_key(ev.node, opi)];
  const std::uint64_t predicted_off = no_off.first + no_off.second;
  if (ev.duration != prev_dur_[opi]) tag |= kFlagDur;
  if (file != prev_file_) tag |= kFlagFile;
  if (ev.offset != predicted_off) tag |= kFlagOff;
  if (ev.bytes != prev_bytes_[opi]) tag |= kFlagBytes;

  const std::size_t before = raw_.size();
  raw_.push_back(static_cast<char>(tag));
  put_signed_delta(raw_, ev.start, prev_start_);
  put_signed_delta(raw_, ev.node, prev_node_);
  if (tag & kFlagDur) put_signed_delta(raw_, ev.duration, prev_dur_[opi]);
  if (tag & kFlagFile) put_signed_delta(raw_, file, prev_file_);
  if (tag & kFlagOff) put_u64_delta(raw_, ev.offset, predicted_off);
  if (tag & kFlagBytes) put_u64_delta(raw_, ev.bytes, prev_bytes_[opi]);
  bytes_encoded_ += raw_.size() - before;

  prev_start_ = ev.start;
  prev_node_ = ev.node;
  prev_file_ = file;
  prev_dur_[opi] = ev.duration;
  no_off = {ev.offset, ev.bytes};
  prev_bytes_[opi] = ev.bytes;
  ++events_written_;
  maybe_flush();
}

template <class R>
void BinarySddfWriter::add(const R& ev) {
  R& prev = std::get<R>(prev_occurrence_);
  const std::size_t before = raw_.size();
  raw_.push_back(static_cast<char>(kSchema<R>.tag));
  for_each_field<R>([&]<class F>(const F&) { put_field<F>(raw_, ev, prev); });
  bytes_encoded_ += raw_.size() - before;
  prev = ev;
  maybe_flush();
}

template void BinarySddfWriter::add(const FaultEvent&);
template void BinarySddfWriter::add(const QosEvent&);
template void BinarySddfWriter::add(const LossEvent&);
template void BinarySddfWriter::add(const IntegrityEvent&);

void BinarySddfWriter::add_span(const SpanEvent& ev) {
  const std::size_t before = raw_.size();
  raw_.push_back(static_cast<char>(kTagSpan));
  put_signed_delta(raw_, ev.end(), prev_span_.end());
  put_signed_delta(raw_, ev.duration, prev_span_.duration);
  put_u64_delta(raw_, ev.op_id, prev_span_.op_id);
  put_signed_delta(raw_, ev.span, prev_span_.span);
  varint::put(raw_, ev.parent == 0 ? 0 : ev.span - ev.parent);
  raw_.push_back(static_cast<char>(ev.stage));
  put_signed_delta(raw_, ev.node, prev_span_.node);
  put_signed_delta(raw_, ev.target, prev_span_.target);
  put_u64_delta(raw_, ev.bytes, prev_span_.bytes);
  varint::put(raw_, ev.flags);
  put_u64_delta(raw_, ev.info, prev_span_.info);
  bytes_encoded_ += raw_.size() - before;
  prev_span_ = ev;
  maybe_flush();
}

std::string BinarySddfWriter::finish() {
  raw_.push_back(static_cast<char>(kTagEnd));
  ++bytes_encoded_;
  close_frame();
  finished_ = true;
  if (sink_) {
    if (!buf_.empty()) sink_(buf_);
    buf_.clear();
    return {};
  }
  return std::move(buf_);
}

std::string to_binary_sddf(const std::vector<std::string>& file_names,
                           const std::vector<TraceEvent>& events,
                           const std::vector<FaultEvent>& faults,
                           const std::vector<QosEvent>& qos,
                           const std::vector<LossEvent>& losses,
                           const std::vector<IntegrityEvent>& integrity,
                           const std::vector<SpanEvent>& spans) {
  BinarySddfWriter w;
  for (const auto& name : file_names) w.add_file(name);
  for (const auto& f : faults) w.add(f);
  for (const auto& q : qos) w.add(q);
  for (const auto& l : losses) w.add(l);
  for (const auto& g : integrity) w.add(g);
  for (const auto& s : spans) w.add_span(s);
  for (const auto& ev : events) w.add_event(ev);
  return w.finish();
}

std::string to_binary_sddf(const Collector& collector) {
  const TraceFile& t = collector.trace();
  return to_binary_sddf(t.file_names, t.events, t.faults, t.qos, t.losses, t.integrity, t.spans);
}

TraceFile from_binary_sddf(std::string_view container) {
  if (!is_binary_sddf(container)) throw std::runtime_error("binary SDDF: bad magic");

  // Unwrap the frame layer into the flat record stream.
  std::string data;
  {
    std::size_t fpos = kBinarySddfMagic.size();
    while (fpos < container.size()) {
      const std::uint64_t raw_len = varint::get(container, fpos);
      const std::uint64_t enc_len = varint::get(container, fpos);
      if (enc_len == 0) {
        if (raw_len > container.size() - fpos) {
          throw std::runtime_error("binary SDDF: truncated stored frame");
        }
        data.append(container.substr(fpos, raw_len));
        fpos += raw_len;
      } else {
        if (enc_len > container.size() - fpos) {
          throw std::runtime_error("binary SDDF: truncated compressed frame");
        }
        blockcomp::decompress(container.substr(fpos, enc_len), raw_len, data);
        fpos += enc_len;
      }
    }
  }

  TraceFile tf;
  std::size_t pos = 0;

  sim::Tick prev_start = 0;
  std::int64_t prev_node = 0;
  std::int64_t prev_file = -1;
  std::array<sim::Tick, kIoOpCount> prev_dur{};
  std::array<std::uint64_t, kIoOpCount> prev_bytes{};
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> prev_no_off;
  Occurrences prev_occurrence{};
  SpanEvent prev_span{};

  while (true) {
    if (pos >= data.size()) throw std::runtime_error("binary SDDF: missing end marker");
    const auto tag = static_cast<std::uint8_t>(data[pos++]);
    if (tag == kTagEnd) break;

    if (tag & kEventBit) {
      const auto opi = static_cast<std::size_t>((tag >> 4) & 0x07);
      TraceEvent ev;
      ev.op = static_cast<IoOp>(opi);
      ev.start = add_signed_delta(prev_start, data, pos);
      ev.node = static_cast<std::int32_t>(add_signed_delta(prev_node, data, pos));
      ev.duration =
          (tag & kFlagDur) ? add_signed_delta(prev_dur[opi], data, pos) : prev_dur[opi];
      const std::int64_t file =
          (tag & kFlagFile) ? add_signed_delta(prev_file, data, pos) : prev_file;
      ev.file = file_from_signed(file, tf.file_names.size());
      auto& no_off = prev_no_off[node_op_key(ev.node, opi)];
      const std::uint64_t predicted_off = no_off.first + no_off.second;
      ev.offset = (tag & kFlagOff) ? get_u64_delta(data, pos, predicted_off) : predicted_off;
      ev.bytes = (tag & kFlagBytes) ? get_u64_delta(data, pos, prev_bytes[opi]) : prev_bytes[opi];

      prev_start = ev.start;
      prev_node = ev.node;
      prev_file = file;
      prev_dur[opi] = ev.duration;
      no_off = {ev.offset, ev.bytes};
      prev_bytes[opi] = ev.bytes;
      // Decode buffer, bounded by the input trace.  siolint:allow(trace-vector-growth)
      tf.events.push_back(ev);
      continue;
    }

    switch (tag) {
      case kTagFile: {
        const std::uint64_t len = varint::get(data, pos);
        if (len > data.size() - pos) throw std::runtime_error("binary SDDF: truncated file name");
        const std::string_view name = std::string_view(data).substr(pos, len);
        if (!is_portable_file_name(name)) {
          throw std::runtime_error("binary SDDF: file name the text dialect cannot carry");
        }
        tf.file_names.emplace_back(name);
        pos += len;
        break;
      }
      case kTagSpan: {
        SpanEvent s;
        const sim::Tick end = add_signed_delta(prev_span.end(), data, pos);
        s.duration = add_signed_delta(prev_span.duration, data, pos);
        if (__builtin_sub_overflow(end, s.duration, &s.start)) {
          throw std::runtime_error("binary SDDF: span start overflows 64 bits");
        }
        s.op_id = get_u64_delta(data, pos, prev_span.op_id);
        s.span = static_cast<std::uint32_t>(add_signed_delta(prev_span.span, data, pos));
        const std::uint64_t parent_dist = varint::get(data, pos);
        if (parent_dist >= s.span && parent_dist != 0) {
          throw std::runtime_error("binary SDDF: span parent out of range");
        }
        s.parent = parent_dist == 0 ? 0 : s.span - static_cast<std::uint32_t>(parent_dist);
        s.stage = get_kind<obs::StageKind>(data, pos, "span");
        s.node = static_cast<std::int32_t>(add_signed_delta(prev_span.node, data, pos));
        s.target = static_cast<std::int32_t>(add_signed_delta(prev_span.target, data, pos));
        s.bytes = get_u64_delta(data, pos, prev_span.bytes);
        s.flags = varint::get(data, pos);
        s.info = get_u64_delta(data, pos, prev_span.info);
        prev_span = s;
        // siolint:allow(trace-vector-growth)
        tf.spans.push_back(s);
        break;
      }
      default: {
        const auto decode = [&]<class R>(std::type_identity<R>) {
          if (tag != kSchema<R>.tag) return false;
          R& prev = std::get<R>(prev_occurrence);
          R r;
          for_each_field<R>([&]<class F>(const F&) {
            get_field<F>(data, pos, r, prev, tf.file_names.size());
          });
          prev = r;
          // siolint:allow(trace-vector-growth)
          (tf.*kSchema<R>.trace).push_back(r);
          return true;
        };
        if (!any_occurrence(decode)) {
          throw std::runtime_error("binary SDDF: unknown record tag " + std::to_string(tag));
        }
      }
    }
  }
  return tf;
}

TraceFile read_binary_sddf(std::istream& in) {
  std::string data(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>{});
  return from_binary_sddf(data);
}

void sort_trace_events(std::vector<TraceEvent>& events) {
  std::stable_sort(events.begin(), events.end(), trace_event_before);
}

}  // namespace sio::pablo
