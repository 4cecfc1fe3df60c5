#include "siolint/rules.hpp"

#include <algorithm>
#include <cctype>
#include <regex>
#include <set>
#include <sstream>

namespace siolint {

namespace {

// ---- path scoping -------------------------------------------------------

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool is_sim_source(std::string_view path) { return starts_with(path, "src/"); }

bool is_order_sensitive_dir(std::string_view path) {
  return starts_with(path, "src/pablo/") || starts_with(path, "src/core/") ||
         starts_with(path, "src/fault/") || starts_with(path, "src/sim/") ||
         starts_with(path, "src/qos/") || starts_with(path, "src/mc/") ||
         // Causal tracing promises byte-identical span streams and critical-
         // path reports across runs; any hash-order leak breaks that.
         starts_with(path, "src/obs/") ||
         // Crash-consistency code replays logs and emits loss records whose
         // order is observable (SDDF traces, recovery redo order).
         starts_with(path, "src/pfs/journal") || starts_with(path, "src/apps/ckpt") ||
         // The integrity subsystem scrubs in key order and emits #integrity
         // records whose order is observable in SDDF traces.
         starts_with(path, "src/pfs/integrity") ||
         // The I/O servers' unit table: its (file, unit) walk order drives
         // the scrub, the scrubber, the bit-rot injector and the redo list.
         starts_with(path, "src/pfs/unit_table");
}

bool is_engine_hot_path(std::string_view path) { return starts_with(path, "src/sim/"); }

bool is_random_impl(std::string_view path) {
  return path == "src/sim/random.hpp" || path == "src/sim/random.cpp";
}

// ---- lexical preprocessing ----------------------------------------------

/// Blanks out comments and string/char literals, preserving line length so
/// word boundaries survive.  `in_block` carries /* ... */ state across lines.
std::string strip_code(const std::string& line, bool& in_block) {
  std::string out(line.size(), ' ');
  std::size_t i = 0;
  while (i < line.size()) {
    if (in_block) {
      if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
        in_block = false;
        i += 2;
      } else {
        ++i;
      }
      continue;
    }
    char c = line[i];
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') break;  // rest is comment
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
      in_block = true;
      i += 2;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      ++i;
      while (i < line.size()) {
        if (line[i] == '\\') {
          i += 2;
          continue;
        }
        if (line[i] == quote) {
          ++i;
          break;
        }
        ++i;
      }
      continue;
    }
    out[i] = c;
    ++i;
  }
  return out;
}

bool is_blank(const std::string& s) {
  return std::all_of(s.begin(), s.end(), [](unsigned char c) { return std::isspace(c) != 0; });
}

/// Parses `siolint:allow(a, b)` markers out of a raw (unstripped) line.
std::set<std::string> parse_allows(const std::string& raw) {
  std::set<std::string> out;
  static const std::regex kAllow(R"(siolint:allow\(([^)]*)\))");
  auto begin = std::sregex_iterator(raw.begin(), raw.end(), kAllow);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    std::stringstream ss((*it)[1].str());
    std::string rule;
    while (std::getline(ss, rule, ',')) {
      rule.erase(std::remove_if(rule.begin(), rule.end(),
                                [](unsigned char c) { return std::isspace(c) != 0; }),
                 rule.end());
      if (!rule.empty()) out.insert(rule);
    }
  }
  return out;
}

// ---- cross-file fact collection -----------------------------------------

bool is_ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_'; }

/// Finds declarations of functions with a non-Task return type, so names
/// used for both a coroutine and a plain function (`Engine::run` vs
/// `apps::escat::run`) can be treated as ambiguous and skipped by the
/// discarded-task rule instead of producing false positives.
void collect_plain_functions(const std::string& stripped, std::set<std::string>& names) {
  if (stripped.find("Task<") != std::string::npos) return;
  static const std::regex kPlainDecl(
      R"(^\s*(?:(?:static|inline|constexpr|virtual|explicit|friend)\s+)*)"
      R"((?:void|bool|int|auto|char|float|double|std::\w+(?:<[^;(]*>)?|[A-Z]\w*(?:<[^;(]*>)?))"
      R"((?:\s*[&*])*\s+(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\()");
  std::smatch m;
  if (std::regex_search(stripped, m, kPlainDecl)) names.insert(m[1].str());
}

/// Finds `Task<...> name(` declarations and returns the declared names.
void collect_task_functions(const std::string& stripped, std::set<std::string>& names) {
  std::size_t pos = 0;
  while ((pos = stripped.find("Task<", pos)) != std::string::npos) {
    // Require a word boundary (or "::") before "Task".
    if (pos > 0 && is_ident_char(stripped[pos - 1])) {
      pos += 5;
      continue;
    }
    std::size_t i = pos + 4;  // at '<'
    int depth = 0;
    while (i < stripped.size()) {
      if (stripped[i] == '<') ++depth;
      if (stripped[i] == '>' && --depth == 0) break;
      ++i;
    }
    if (i >= stripped.size()) return;  // unbalanced on this line; give up
    ++i;
    while (i < stripped.size() && std::isspace(static_cast<unsigned char>(stripped[i]))) ++i;
    std::size_t name_begin = i;
    while (i < stripped.size() && is_ident_char(stripped[i])) ++i;
    std::size_t name_end = i;
    while (i < stripped.size() && std::isspace(static_cast<unsigned char>(stripped[i]))) ++i;
    if (name_end > name_begin && i < stripped.size() && stripped[i] == '(') {
      names.insert(stripped.substr(name_begin, name_end - name_begin));
    }
    pos = name_end > name_begin ? name_end : pos + 5;
  }
}

/// Finds `std::unordered_{map,set}<...> name` member/variable declarations.
void collect_unordered_members(const std::string& stripped, std::set<std::string>& names) {
  for (const char* kw : {"std::unordered_map<", "std::unordered_set<"}) {
    std::size_t pos = 0;
    const std::string needle(kw);
    while ((pos = stripped.find(needle, pos)) != std::string::npos) {
      std::size_t i = pos + needle.size() - 1;  // at '<'
      int depth = 0;
      while (i < stripped.size()) {
        if (stripped[i] == '<') ++depth;
        if (stripped[i] == '>' && --depth == 0) break;
        ++i;
      }
      if (i >= stripped.size()) return;
      ++i;
      while (i < stripped.size() && std::isspace(static_cast<unsigned char>(stripped[i]))) ++i;
      std::size_t name_begin = i;
      while (i < stripped.size() && is_ident_char(stripped[i])) ++i;
      std::size_t name_end = i;
      while (i < stripped.size() && std::isspace(static_cast<unsigned char>(stripped[i]))) ++i;
      if (name_end > name_begin &&
          (i >= stripped.size() || stripped[i] == ';' || stripped[i] == '=' ||
           stripped[i] == '{')) {
        names.insert(stripped.substr(name_begin, name_end - name_begin));
      }
      pos = i;
    }
  }
}

/// Finds `std::vector<TraceEvent|FaultEvent|QosEvent|LossEvent|IntegrityEvent|SpanEvent> name`
/// member/variable declarations — the record containers whose size is
/// proportional to trace length.  Reference/pointer declarations (function
/// parameters, accessors) are skipped: only owning declarations terminated
/// by `;`, `=`, `{`, or end-of-line are collected.
void collect_trace_vector_members(const std::string& stripped, std::set<std::string>& names) {
  const std::string needle = "std::vector<";
  std::size_t pos = 0;
  while ((pos = stripped.find(needle, pos)) != std::string::npos) {
    std::size_t i = pos + needle.size() - 1;  // at '<'
    int depth = 0;
    while (i < stripped.size()) {
      if (stripped[i] == '<') ++depth;
      if (stripped[i] == '>' && --depth == 0) break;
      ++i;
    }
    if (i >= stripped.size()) return;  // unbalanced on this line; give up
    std::string arg = stripped.substr(pos + needle.size(), i - pos - needle.size());
    arg.erase(std::remove_if(arg.begin(), arg.end(),
                             [](unsigned char c) { return std::isspace(c) != 0; }),
              arg.end());
    const std::size_t quals = arg.rfind("::");
    if (quals != std::string::npos) arg = arg.substr(quals + 2);
    const bool event_vec =
        arg == "TraceEvent" || arg == "FaultEvent" || arg == "QosEvent" ||
        arg == "LossEvent" || arg == "IntegrityEvent" || arg == "SpanEvent";
    ++i;
    while (i < stripped.size() && std::isspace(static_cast<unsigned char>(stripped[i]))) ++i;
    std::size_t name_begin = i;
    while (i < stripped.size() && is_ident_char(stripped[i])) ++i;
    std::size_t name_end = i;
    while (i < stripped.size() && std::isspace(static_cast<unsigned char>(stripped[i]))) ++i;
    if (event_vec && name_end > name_begin &&
        (i >= stripped.size() || stripped[i] == ';' || stripped[i] == '=' ||
         stripped[i] == '{')) {
      names.insert(stripped.substr(name_begin, name_end - name_begin));
    }
    pos = i;
  }
}

// ---- per-rule helpers ----------------------------------------------------

/// True if `expr` (the text of an assert condition) contains a side effect:
/// ++/-- or an assignment that is not part of a comparison operator.
bool has_side_effect(const std::string& expr) {
  if (expr.find("++") != std::string::npos || expr.find("--") != std::string::npos) return true;
  for (std::size_t i = 0; i < expr.size(); ++i) {
    if (expr[i] != '=') continue;
    if (i + 1 < expr.size() && expr[i + 1] == '=') {
      ++i;  // '==': skip the pair
      continue;
    }
    if (i > 0 && (expr[i - 1] == '=' || expr[i - 1] == '!' || expr[i - 1] == '<' ||
                  expr[i - 1] == '>')) {
      continue;  // second char of ==, !=, <=, >=
    }
    return true;  // plain or compound assignment
  }
  return false;
}

/// Extracts the trailing identifier of an expression like "f.members_" -> "members_".
std::string trailing_identifier(std::string expr) {
  while (!expr.empty() && std::isspace(static_cast<unsigned char>(expr.back()))) expr.pop_back();
  std::size_t end = expr.size();
  std::size_t begin = end;
  while (begin > 0 && is_ident_char(expr[begin - 1])) --begin;
  return expr.substr(begin, end - begin);
}

}  // namespace

const std::vector<RuleInfo>& rule_table() {
  static const std::vector<RuleInfo> kTable = {
      {"wall-clock", "banned wall-clock APIs (std::chrono clocks, time(), gettimeofday(), ...)"},
      {"raw-random", "banned nondeterministic randomness (rand(), std::random_device, ...)"},
      {"getenv", "environment access inside simulation code (src/)"},
      {"banned-header",
       "<thread>/<mutex>/<random>/... in the single-threaded engine (src/; <random> "
       "only in src/sim/random.*)"},
      {"discarded-task", "Task<T>-returning call as a bare statement (never awaited or spawned)"},
      {"assert-side-effect", "SIO_ASSERT condition contains ++/--/assignment"},
      {"unordered-iter",
       "range-for over std::unordered_{map,set} in src/pablo/, src/core/, src/fault/, "
       "src/sim/, src/qos/, src/mc/, or src/obs/ (iteration order can reach reports, "
       "fault schedules, explored interleavings, or span streams)"},
      {"std-function",
       "std::function in the engine hot path (src/sim/); use sim::InlineCallback, which "
       "never heap-allocates for small callables"},
      {"trace-vector-growth",
       "push_back/emplace_back on a std::vector<TraceEvent/FaultEvent/QosEvent/LossEvent/"
                   "IntegrityEvent/SpanEvent> "
       "in src/pablo/ or src/obs/ (grows without bound with trace length; gate on "
       "Collector::retain_events() or fold into pablo::StreamingAnalytics)"},
      {"detached-coroutine",
       "raw coroutine_handle .resume()/.destroy() in src/ outside src/sim/ (bypasses the "
       "engine's post() lane, so the sim-sanitizer and the mc scheduler hook never see the "
       "step; wake tasks through Engine::post() or a primitive)"},
  };
  return kTable;
}

std::vector<Diagnostic> lint(const std::vector<SourceFile>& files) {
  std::vector<Diagnostic> diags;

  // Pass 1: program-wide facts.
  std::set<std::string> task_fns;
  std::set<std::string> plain_fns;
  std::set<std::string> unordered_members;
  std::set<std::string> trace_vec_members;
  std::vector<std::vector<std::string>> stripped_files;
  stripped_files.reserve(files.size());
  for (const auto& f : files) {
    std::vector<std::string> stripped;
    bool in_block = false;
    std::stringstream ss(f.content);
    std::string raw;
    while (std::getline(ss, raw)) {
      if (!raw.empty() && raw.back() == '\r') raw.pop_back();
      std::string s = strip_code(raw, in_block);
      collect_task_functions(s, task_fns);
      collect_plain_functions(s, plain_fns);
      collect_unordered_members(s, unordered_members);
      collect_trace_vector_members(s, trace_vec_members);
      stripped.push_back(std::move(s));
    }
    stripped_files.push_back(std::move(stripped));
  }

  // `spawn` takes a Task by value on purpose; `release` hands the frame off.
  task_fns.erase("spawn");
  task_fns.erase("release");
  // A name declared with both a Task and a non-Task return type somewhere in
  // the program is ambiguous at a call site; a line-based pass cannot tell
  // the overloads apart, so it must not guess.
  for (const auto& n : plain_fns) task_fns.erase(n);

  static const std::regex kChronoClock(R"(std::chrono::\w*clock)");
  static const std::regex kClockCall(
      R"((^|[^\w.:>])((std::)?(time|clock|gettimeofday|clock_gettime|localtime|gmtime|strftime|ftime)\s*\())");
  static const std::regex kRandomCall(
      R"((^|[^\w.:>])((std::)?(rand|srand|drand48|lrand48|mrand48|random)\s*\())");
  static const std::regex kRandomDevice(R"(std::random_device|(^|[^\w.:>])random_device\b)");
  static const std::regex kGetenv(R"((^|[^\w.:>])((std::)?(getenv|secure_getenv)\s*\())");
  static const std::regex kBannedHeader(
      R"(^\s*#\s*include\s*<(thread|mutex|shared_mutex|condition_variable|future|stop_token|random)>)");
  static const std::regex kRangeFor(R"(for\s*\(([^:;]*):([^)]*)\))");

  std::regex discarded_call;
  bool have_task_fns = !task_fns.empty();
  if (have_task_fns) {
    std::string alt;
    for (const auto& n : task_fns) {
      if (!alt.empty()) alt += "|";
      alt += n;
    }
    discarded_call.assign(R"(^\s*(?:[A-Za-z_]\w*\s*(?:\.|->|::)\s*)*()" + alt + R"()\s*\(.*;\s*$)");
  }

  // Pass 2: per-line rules.
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const auto& file = files[fi];
    const auto& stripped = stripped_files[fi];

    // Re-split raw lines for suppression markers.
    std::vector<std::string> raw_lines;
    {
      std::stringstream ss(file.content);
      std::string raw;
      while (std::getline(ss, raw)) {
        if (!raw.empty() && raw.back() == '\r') raw.pop_back();
        raw_lines.push_back(std::move(raw));
      }
    }

    std::set<std::string> carried_allow;  // from a comment-only line above
    for (std::size_t li = 0; li < stripped.size(); ++li) {
      const std::string& line = stripped[li];
      const std::string& raw = raw_lines[li];
      const int lineno = static_cast<int>(li) + 1;

      std::set<std::string> allow = parse_allows(raw);
      allow.insert(carried_allow.begin(), carried_allow.end());
      carried_allow.clear();
      if (is_blank(line)) {
        // Comment-only (or empty) line: its allow marker covers the next line.
        carried_allow = parse_allows(raw);
        if (!allow.empty() && !carried_allow.empty()) continue;
      }
      auto allowed = [&](const char* rule) {
        return allow.count(rule) > 0 || allow.count("all") > 0;
      };
      auto report = [&](const char* rule, std::string msg) {
        if (!allowed(rule)) diags.push_back({file.path, lineno, rule, std::move(msg)});
      };

      // wall-clock / raw-random: everywhere.
      if (std::regex_search(line, kChronoClock) || std::regex_search(line, kClockCall)) {
        report("wall-clock",
               "wall-clock API in simulation code; all time must come from Engine::now()");
      }
      if (std::regex_search(line, kRandomCall) || std::regex_search(line, kRandomDevice)) {
        report("raw-random",
               "nondeterministic randomness; use the seeded sio::sim::Rng instead");
      }

      // getenv / banned-header: only inside src/.
      if (is_sim_source(file.path)) {
        if (std::regex_search(line, kGetenv)) {
          report("getenv", "environment access makes runs host-dependent; plumb configuration "
                           "through explicit config structs");
        }
        std::smatch m;
        if (std::regex_search(line, m, kBannedHeader)) {
          const std::string header = m[1].str();
          if (!(header == "random" && is_random_impl(file.path))) {
            report("banned-header", "<" + header + "> is banned in the single-threaded engine" +
                                        (header == "random"
                                             ? " (libstdc++ distributions are not bit-stable; "
                                               "use sio::sim::Rng)"
                                             : ""));
          }
        }
      }

      // std-function: banned from the dispatch hot path.  Every scheduled
      // std::function is a potential heap allocation per event; the engine's
      // InlineCallback stores small callables in the event node itself.
      if (is_engine_hot_path(file.path)) {
        static const std::regex kStdFunction(R"(std::function\s*<)");
        if (std::regex_search(line, kStdFunction)) {
          report("std-function",
                 "std::function allocates per callable on the engine hot path; use "
                 "sim::InlineCallback (see sim/callback.hpp)");
        }
      }

      // detached-coroutine: resuming (or destroying) a coroutine handle by
      // hand anywhere outside the engine's own dispatch path.  A raw
      // .resume() sidesteps the post() lane, so the resume neither lands in
      // the deterministic FIFO order nor passes the sim-sanitizer's
      // double-resume bookkeeping, and the mc scheduler hook cannot turn it
      // into a decision point.
      if (is_sim_source(file.path) && !is_engine_hot_path(file.path)) {
        static const std::regex kRawResume(R"((\.|->)\s*(resume|destroy)\s*\(\s*\))");
        std::smatch m;
        if (std::regex_search(line, m, kRawResume)) {
          report("detached-coroutine",
                 "raw ." + m[2].str() + "() on a coroutine handle bypasses Engine::post(); "
                 "the resume is invisible to the sanitizer and the mc scheduler");
        }
      }

      // discarded-task: a known Task-returning function called as a statement.
      if (have_task_fns && line.find('(') != std::string::npos &&
          line.find("co_await") == std::string::npos &&
          line.find("co_return") == std::string::npos &&
          line.find("return") == std::string::npos && line.find("spawn") == std::string::npos &&
          line.find("Task<") == std::string::npos && line.find('=') == std::string::npos) {
        std::smatch m;
        if (std::regex_search(line, m, discarded_call)) {
          report("discarded-task", "result of Task-returning '" + m[1].str() +
                                       "' is discarded: the coroutine never runs; co_await it "
                                       "or hand it to Engine::spawn()");
        }
      }

      // assert-side-effect: collect the balanced argument (may span lines).
      std::size_t apos = line.find("SIO_ASSERT");
      if (apos != std::string::npos &&
          (apos == 0 || !is_ident_char(line[apos - 1]))) {
        std::string expr;
        int depth = 0;
        bool started = false;
        bool closed = false;
        for (std::size_t lj = li; lj < stripped.size() && lj < li + 8 && !closed; ++lj) {
          const std::string& l2 = stripped[lj];
          std::size_t start = (lj == li) ? apos + 10 : 0;
          for (std::size_t k = start; k < l2.size(); ++k) {
            if (l2[k] == '(') {
              ++depth;
              started = true;
              if (depth == 1) continue;
            }
            if (l2[k] == ')' && started && --depth == 0) {
              closed = true;
              break;
            }
            if (started) expr += l2[k];
          }
          if (!closed) expr += ' ';
        }
        if (closed && has_side_effect(expr)) {
          report("assert-side-effect",
                 "SIO_ASSERT condition has a side effect; asserts must be safely removable");
        }
      }

      // unordered-iter: order-sensitive directories only.
      if (is_order_sensitive_dir(file.path)) {
        std::smatch m;
        if (std::regex_search(line, m, kRangeFor)) {
          const std::string target = trailing_identifier(m[2].str());
          if (!target.empty() && unordered_members.count(target) > 0) {
            report("unordered-iter",
                   "range-for over unordered container '" + target +
                       "': iteration order is hash-dependent and can leak into reports; sort "
                       "first or use std::map");
          }
        }
      }

      // trace-vector-growth: appending to an event-record vector inside the
      // analytics library.  These vectors grow linearly with trace length,
      // so an unconditional push defeats the bounded-memory streaming path.
      // Legitimate sites — Collector appends gated on retain_events(), and
      // the explicit batch decoders — carry a siolint:allow marker.
      if (starts_with(file.path, "src/pablo/") || starts_with(file.path, "src/obs/")) {
        static const std::regex kVecGrow(
            R"(([A-Za-z_]\w*)\s*\.\s*(?:push_back|emplace_back)\s*\()");
        for (auto it = std::sregex_iterator(line.begin(), line.end(), kVecGrow);
             it != std::sregex_iterator(); ++it) {
          const std::string target = (*it)[1].str();
          if (trace_vec_members.count(target) > 0) {
            report("trace-vector-growth",
                   "append to event vector '" + target +
                       "' grows memory without bound as the trace grows; gate it on "
                       "Collector::retain_events() or fold the event into "
                       "pablo::StreamingAnalytics");
          }
        }
        // The generic record loops append through a pointer to a TraceFile
        // vector member, `(tf.*trace).push_back(r)`, which names no vector.
        static const std::regex kMemberPtrGrow(
            R"(\.\*[^()]*\)\s*\.\s*(?:push_back|emplace_back)\s*\()");
        if (std::regex_search(line, kMemberPtrGrow)) {
          report("trace-vector-growth",
                 "append through a member pointer to a record vector grows memory without "
                 "bound as the trace grows; gate it on Collector::retain_events()");
        }
      }
    }
  }

  std::sort(diags.begin(), diags.end(), [](const Diagnostic& a, const Diagnostic& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return diags;
}

std::string format(const Diagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ": [" + d.rule + "] " + d.message;
}

}  // namespace siolint
