// One schema per trace occurrence record.
//
// FaultEvent, QosEvent, LossEvent and IntegrityEvent are flat records whose
// fields each ride one of five codings.  This header is the one place that
// gives, for each of them, the SDDF record name, the binary tag, the
// TraceFile vector and the ordered field list.  The text `-fields` header,
// writer and reader (sddf.cpp), the binary encoder and decoder (binsddf.cpp)
// and the collector's tee are generic loops over it, so adding a field means
// adding one entry here.
//
// The name tables below serve every enum the dialects spell by name, the
// I/O operations and span stages included.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>

#include "pablo/event.hpp"

namespace sio::pablo {

/// An enum's names: value i is called name(E(i)) for i < count.  `label`
/// names the enum in error texts ("unknown fault kind").
template <class E>
struct NameTable {
  int count;
  std::string_view (*name)(E);
  const char* label;
};

constexpr NameTable<IoOp> name_table(IoOp) { return {kIoOpCount, io_op_name, "I/O operation"}; }
constexpr NameTable<FaultKind> name_table(FaultKind) {
  return {kFaultKindCount, fault_kind_name, "fault kind"};
}
constexpr NameTable<QosKind> name_table(QosKind) {
  return {kQosKindCount, qos_kind_name, "qos kind"};
}
constexpr NameTable<IntegrityKind> name_table(IntegrityKind) {
  return {kIntegrityKindCount, integrity_kind_name, "integrity kind"};
}
constexpr NameTable<obs::StageKind> name_table(obs::StageKind) {
  return {obs::kStageKindCount, obs::stage_name, "span stage"};
}

/// Parses one of E's names; throws std::runtime_error on any other text.
template <class E>
E parse_name(std::string_view text) {
  constexpr NameTable<E> table = name_table(E{});
  for (int i = 0; i < table.count; ++i) {
    if (table.name(static_cast<E>(i)) == text) return static_cast<E>(i);
  }
  throw std::runtime_error(std::string("SDDF: unknown ") + table.label + " '" +
                           std::string(text) + "'");
}

/// How one field rides the two dialects.  The text dialect writes each field
/// as a decimal integer, except a kind (its name) and a file ("-" for
/// kNoFile).  The binary dialect codes each field against the same field of
/// the previous record of the same kind.
enum class Coding : std::uint8_t {
  kDelta,     ///< signed delta, zigzag varint
  kU64Delta,  ///< wraparound u64 delta, zigzag varint
  kKind,      ///< one byte, range-checked against the enum's name table
  kFile,      ///< signed delta with kNoFile as -1, checked against the file table
  kVarint,    ///< the value itself as a varint
};

/// One field: the record member, its coding and its `-fields` column name.
template <auto Member, Coding C>
struct Field {
  static constexpr auto member = Member;
  static constexpr Coding coding = C;
  std::string_view column;
};

template <auto M>
using Delta = Field<M, Coding::kDelta>;
template <auto M>
using U64Delta = Field<M, Coding::kU64Delta>;
template <auto M>
using Kind = Field<M, Coding::kKind>;
template <auto M>
using File = Field<M, Coding::kFile>;
template <auto M>
using Varint = Field<M, Coding::kVarint>;

/// One occurrence record's schema.
template <class Vector, class... Fields>
struct Schema {
  std::string_view name;         ///< text record word ("#fault")
  std::uint8_t tag;              ///< binary record tag
  Vector TraceFile::*trace;      ///< the record family's TraceFile vector
  std::tuple<Fields...> fields;  ///< in the order both dialects write them
};

/// Fault and QoS records share one shape.
template <class R>
inline constexpr std::tuple kOpOccurrenceFields{
    Delta<&R::at>{"at_ns"},   U64Delta<&R::op_id>{"op_id"}, Kind<&R::kind>{"kind"},
    Delta<&R::node>{"node"}, Delta<&R::target>{"target"},  U64Delta<&R::info>{"info"}};

constexpr auto schema_of(std::type_identity<FaultEvent>) {
  return Schema{"#fault", 0x02, &TraceFile::faults, kOpOccurrenceFields<FaultEvent>};
}

constexpr auto schema_of(std::type_identity<QosEvent>) {
  return Schema{"#qos", 0x03, &TraceFile::qos, kOpOccurrenceFields<QosEvent>};
}

constexpr auto schema_of(std::type_identity<LossEvent>) {
  using R = LossEvent;
  return Schema{"#loss", 0x04, &TraceFile::losses,
                std::tuple{Delta<&R::at>{"at_ns"}, U64Delta<&R::op_id>{"op_id"},
                           Delta<&R::target>{"target"}, File<&R::file>{"file"},
                           U64Delta<&R::offset>{"offset"}, U64Delta<&R::bytes>{"bytes"},
                           Varint<&R::torn>{"torn"}}};
}

constexpr auto schema_of(std::type_identity<IntegrityEvent>) {
  using R = IntegrityEvent;
  return Schema{"#integrity", 0x05, &TraceFile::integrity,
                std::tuple{Delta<&R::at>{"at_ns"}, Kind<&R::kind>{"kind"},
                           Delta<&R::target>{"target"}, File<&R::file>{"file"},
                           U64Delta<&R::unit>{"unit"}, U64Delta<&R::bytes>{"bytes"}}};
}

/// The four record types that have a schema.
template <class R>
concept Occurrence = requires { schema_of(std::type_identity<R>{}); };

/// The schema of occurrence record R.
template <Occurrence R>
inline constexpr auto kSchema = schema_of(std::type_identity<R>{});

/// Calls `f(field)` on each field of R's schema, in order.
template <class R, class F>
void for_each_field(F&& f) {
  std::apply([&](const auto&... field) { (f(field), ...); }, kSchema<R>.fields);
}

/// Calls `f(std::type_identity<R>{})` for each occurrence record R, in
/// trace order, until one call returns true; returns whether one did.
template <class F>
bool any_occurrence(F&& f) {
  return [&]<class... Rs>(std::type_identity<std::tuple<Rs...>>) {
    return (f(std::type_identity<Rs>{}) || ...);
  }(std::type_identity<Occurrences>{});
}

}  // namespace sio::pablo
