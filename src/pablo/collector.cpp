#include "pablo/collector.hpp"

#include <algorithm>
#include <utility>

#include "pablo/sddf.hpp"

namespace sio::pablo {

std::string Collector::sddf_text() const { return to_sddf_string(*this); }

FileId Collector::register_file(std::string_view path) {
  std::vector<std::string>& files = trace_.file_names;
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (files[i] == path) return static_cast<FileId>(i);
  }
  files.emplace_back(path);
  const auto id = static_cast<FileId>(files.size() - 1);
  if (streaming_) streaming_->ensure_file(id);
  if (bin_writer_) bin_writer_->add_file(files.back());
  return id;
}

const std::vector<TraceEvent>& Collector::events() const {
  if (!sorted_) {
    std::stable_sort(trace_.events.begin(), trace_.events.end(), trace_event_before);
    sorted_ = true;
  }
  return trace_.events;
}

TraceFile Collector::take_trace() {
  events();  // sort before handing over
  sorted_ = false;
  return std::exchange(trace_, {});
}

std::size_t Collector::bytes_retained() const {
  std::size_t total = sizeof(*this);
  total += trace_.file_names.capacity() * sizeof(std::string);
  for (const std::string& f : trace_.file_names) total += f.capacity();
  for_each_record_vector(trace_, [&](const auto& v) { total += v.capacity() * sizeof(v[0]); });
  if (tracer_) total += tracer_->bytes_retained();
  if (streaming_) total += streaming_->bytes_retained();
  if (bin_writer_) total += bin_writer_->buffered_capacity();
  return total;
}

void Collector::note_peak() const {
  peak_bytes_retained_ = std::max(peak_bytes_retained_, bytes_retained());
}

}  // namespace sio::pablo
